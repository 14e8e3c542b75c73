package compress

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"sort"
)

// Canonical Huffman coding over bytes. The paper uses Huffman encoding of
// strings inside columnar page sets so that wide string columns do not force
// page-set underutilization; we use it for the same purpose.
//
// The encoded stream is self-describing: a 256-byte code-length table
// (lengths 0..32), a uvarint original size, then the packed bit stream.

const maxCodeLen = 32

// huffNode is a tree node used only during code construction.
type huffNode struct {
	freq        uint64
	sym         int // symbol for leaves, -1 for internal
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int            { return len(h) }
func (h huffHeap) Less(i, j int) bool  { return h[i].freq < h[j].freq }
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// buildCodeLengths computes Huffman code lengths for each byte symbol.
func buildCodeLengths(freq *[256]uint64) [256]uint8 {
	var lengths [256]uint8
	h := huffHeap{}
	for s, f := range freq {
		if f > 0 {
			h = append(h, &huffNode{freq: f, sym: s})
		}
	}
	switch len(h) {
	case 0:
		return lengths
	case 1:
		lengths[h[0].sym] = 1
		return lengths
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*huffNode)
		b := heap.Pop(&h).(*huffNode)
		heap.Push(&h, &huffNode{freq: a.freq + b.freq, sym: -1, left: a, right: b})
	}
	root := h[0]
	var walk func(n *huffNode, depth uint8)
	walk = func(n *huffNode, depth uint8) {
		if n.sym >= 0 {
			if depth == 0 {
				depth = 1
			}
			lengths[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// canonicalCodes assigns canonical codes given code lengths: symbols sorted
// by (length, symbol) get consecutive codes.
func canonicalCodes(lengths *[256]uint8) (codes [256]uint32) {
	type sl struct {
		sym int
		len uint8
	}
	var syms []sl
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, sl{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].len != syms[j].len {
			return syms[i].len < syms[j].len
		}
		return syms[i].sym < syms[j].sym
	})
	code := uint32(0)
	prevLen := uint8(0)
	for _, s := range syms {
		code <<= (s.len - prevLen)
		codes[s.sym] = code
		code++
		prevLen = s.len
	}
	return codes
}

// CompressHuffman encodes src with a canonical Huffman code built from its
// byte frequencies. Returns a self-describing buffer decodable by
// DecompressHuffman.
func CompressHuffman(src []byte) []byte {
	var freq [256]uint64
	for _, b := range src {
		freq[b]++
	}
	lengths := buildCodeLengths(&freq)
	// Pathologically skewed frequency distributions can produce code depths
	// beyond our 32-bit decode budget; fall back to flat 8-bit codes.
	for _, l := range lengths {
		if l > maxCodeLen {
			for i := range lengths {
				lengths[i] = 8
			}
			break
		}
	}
	codes := canonicalCodes(&lengths)

	out := make([]byte, 0, len(src)/2+300)
	out = append(out, lengths[:]...)
	out = binary.AppendUvarint(out, uint64(len(src)))

	var acc uint64
	var nbits uint
	for _, b := range src {
		l := uint(lengths[b])
		acc = (acc << l) | uint64(codes[b])
		nbits += l
		for nbits >= 8 {
			nbits -= 8
			out = append(out, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc<<(8-nbits)))
	}
	return out
}

// huffTableBits is the width of the decoder's primary lookup table: the next
// huffTableBits bits of the stream index straight to the symbol and length
// of every code that short, which on real pages is all but the rarest
// symbols. 2^11 two-byte entries stay well inside the L1 cache and cost
// about a microsecond to fill per page.
const huffTableBits = 11

// DecompressHuffman decodes a buffer produced by CompressHuffman.
func DecompressHuffman(src []byte) ([]byte, error) {
	if len(src) < 256 {
		return nil, fmt.Errorf("compress: huffman header too short (%d bytes)", len(src))
	}
	lengths := src[:256]
	var countAt [maxCodeLen + 1]int
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, fmt.Errorf("compress: huffman code length %d too large", l)
		}
		countAt[l]++
	}
	countAt[0] = 0
	n, consumed := binary.Uvarint(src[256:])
	if consumed <= 0 {
		return nil, fmt.Errorf("compress: bad huffman size header")
	}
	data := src[256+consumed:]
	if n == 0 {
		return []byte{}, nil
	}
	// A symbol consumes at least one bit, so a corrupted size header cannot
	// legitimately exceed 8 symbols per stream byte — reject instead of
	// allocating attacker-controlled amounts.
	if n > uint64(len(data))*8 {
		return nil, fmt.Errorf("compress: huffman size %d exceeds stream capacity (%d bytes)", n, len(data))
	}

	// Canonical decode tables: per length, the first code and the index of
	// its symbol among the symbols sorted by (length, symbol). The Kraft sum
	// says whether the lengths describe a prefix code at all; one that
	// over-subscribes the code space has codes that are prefixes of others
	// and no stream can mean anything under it.
	var firstCode [maxCodeLen + 1]uint32
	var firstIndex [maxCodeLen + 1]int
	var kraft uint64
	maxLen := 0
	code, idx := uint32(0), 0
	for l := 1; l <= maxCodeLen; l++ {
		firstCode[l] = code
		firstIndex[l] = idx
		code = (code + uint32(countAt[l])) << 1
		idx += countAt[l]
		kraft += uint64(countAt[l]) << (maxCodeLen - l)
		if kraft > 1<<maxCodeLen {
			return nil, fmt.Errorf("compress: huffman code lengths over-subscribed at length %d", l)
		}
		if countAt[l] > 0 {
			maxLen = l
		}
	}
	if maxLen == 0 {
		return nil, fmt.Errorf("compress: huffman stream with no symbols but size %d", n)
	}
	var sorted [256]byte
	next := firstIndex
	for sym, l := range lengths {
		if l > 0 {
			sorted[next[l]] = byte(sym)
			next[l]++
		}
	}
	// Primary table: entry = length<<8 | symbol for every huffTableBits-bit
	// window that starts with a code of at most that length; 0 (no code has
	// length 0) where the window starts a longer code or none.
	var table [1 << huffTableBits]uint16
	for l := 1; l <= maxLen && l <= huffTableBits; l++ {
		span := 1 << (huffTableBits - l)
		for k := 0; k < countAt[l]; k++ {
			e := uint16(l)<<8 | uint16(sorted[firstIndex[l]+k])
			lo := (int(firstCode[l]) + k) * span
			for j := lo; j < lo+span; j++ {
				table[j] = e
			}
		}
	}

	out := make([]byte, n)
	// acc holds the stream bits not yet decoded in its low nb bits, oldest
	// highest; bits above them are spent and masked off on every read.
	var acc uint64
	var nb uint
	pos := 0
	for i := range out {
		if nb < maxCodeLen {
			if pos+4 <= len(data) {
				acc = acc<<32 | uint64(binary.BigEndian.Uint32(data[pos:]))
				pos += 4
				nb += 32
			} else {
				for ; pos < len(data); pos++ {
					acc = acc<<8 | uint64(data[pos])
					nb += 8
				}
			}
		}
		// The window is zero-padded past the end of the stream; a code that
		// reaches into the padding is caught by its length below.
		var window uint64
		if nb >= huffTableBits {
			window = acc >> (nb - huffTableBits)
		} else {
			window = acc << (huffTableBits - nb)
		}
		e := table[window&(1<<huffTableBits-1)]
		l := uint(e >> 8)
		if l == 0 {
			// A longer code: the canonical first-code search, from the first
			// length the table does not cover.
			for l = huffTableBits + 1; ; l++ {
				if l > uint(maxLen) {
					return nil, fmt.Errorf("compress: invalid huffman code in stream")
				}
				if l > nb {
					break
				}
				c := uint32(acc>>(nb-l)) & (1<<l - 1)
				if c >= firstCode[l] && c-firstCode[l] < uint32(countAt[l]) {
					e = uint16(sorted[firstIndex[l]+int(c-firstCode[l])])
					break
				}
			}
		}
		if l > nb {
			return nil, fmt.Errorf("compress: huffman stream truncated at %d/%d symbols", i, n)
		}
		out[i] = byte(e)
		nb -= l
	}
	return out, nil
}
