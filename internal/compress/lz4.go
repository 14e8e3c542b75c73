// Package compress provides the two codecs the storage engine uses: an LZ4
// block-format compressor for pages (chosen in the paper for its fast
// decompression) and a canonical Huffman coder used to pack the column pages
// of PAX page sets that have no typed layout (high-cardinality strings).
//
// Both are implemented from scratch against the published formats; the LZ4
// encoder is a greedy single-pass hash-chain matcher, which trades a little
// ratio for speed exactly as the reference fast compressor does.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

const (
	minMatch     = 4  // LZ4 minimum match length
	lastLiterals = 5  // last 5 bytes of a block must be literals
	mfLimit      = 12 // a match must not start within 12 bytes of the end
	hashLog      = 16
	hashShift    = (minMatch * 8) - hashLog
)

// ErrCorrupt is returned when an LZ4 block cannot be decoded.
var ErrCorrupt = errors.New("compress: corrupt lz4 block")

func lz4Hash(u uint32) uint32 {
	return (u * 2654435761) >> hashShift
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// matchTables recycles the compressor's 256 KiB match table: declared in the
// function it is too large for the stack, and a page write-back then leaves
// sixteen times the page it wrote for the collector.
var matchTables = sync.Pool{New: func() any { return new([1 << hashLog]int32) }}

// CompressLZ4 compresses src into LZ4 block format. The returned slice is
// freshly allocated. Incompressible input grows by at most
// len(src)/255 + 16 bytes.
func CompressLZ4(src []byte) []byte {
	dst := make([]byte, 0, len(src)+len(src)/255+16)
	if len(src) < mfLimit+lastLiterals {
		// Too small to find matches: emit a single literal run.
		return appendLiteralRun(dst, src)
	}

	table := matchTables.Get().(*[1 << hashLog]int32) // position+1 of last occurrence of each hash
	defer matchTables.Put(table)
	clear(table[:])
	anchor := 0 // start of pending literals
	pos := 0
	limit := len(src) - mfLimit

	for pos <= limit {
		h := lz4Hash(load32(src, pos))
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand < 0 || pos-cand > 65535 || load32(src, cand) != load32(src, pos) {
			pos++
			continue
		}
		// Extend the match forward.
		matchLen := minMatch
		maxLen := len(src) - lastLiterals - pos
		for matchLen < maxLen && src[cand+matchLen] == src[pos+matchLen] {
			matchLen++
		}
		// Extend backward into pending literals.
		for pos > anchor && cand > 0 && src[cand-1] == src[pos-1] {
			pos--
			cand--
			matchLen++
		}
		dst = appendSequence(dst, src[anchor:pos], pos-cand, matchLen)
		pos += matchLen
		anchor = pos
		if pos <= limit {
			table[lz4Hash(load32(src, pos-2))] = int32(pos - 1)
		}
	}
	return appendLiteralRun(dst, src[anchor:])
}

// appendSequence emits one LZ4 sequence: token, literal length extension,
// literals, offset, match length extension.
func appendSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	ml := matchLen - minMatch
	token := byte(0)
	if litLen >= 15 {
		token = 0xF0
	} else {
		token = byte(litLen) << 4
	}
	if ml >= 15 {
		token |= 0x0F
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = appendLenExt(dst, ml-15)
	}
	return dst
}

// appendLiteralRun emits a final literals-only sequence (no match part).
func appendLiteralRun(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen == 0 {
		return dst
	}
	if litLen >= 15 {
		dst = append(dst, 0xF0)
		dst = appendLenExt(dst, litLen-15)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func appendLenExt(dst []byte, rem int) []byte {
	for rem >= 255 {
		dst = append(dst, 255)
		rem -= 255
	}
	return append(dst, byte(rem))
}

// DecompressLZ4 decodes an LZ4 block into a fresh buffer of exactly dstSize
// bytes; see DecompressLZ4Into.
func DecompressLZ4(src []byte, dstSize int) ([]byte, error) {
	if dstSize < 0 {
		return nil, fmt.Errorf("%w: negative size %d", ErrCorrupt, dstSize)
	}
	dst := make([]byte, dstSize)
	if err := DecompressLZ4Into(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecompressLZ4Into decodes an LZ4 block into dst, which it must fill
// exactly: on success every byte of dst has been written, so a recycled
// buffer needs no zeroing first. A literal run or match that would pass
// len(dst) is refused at the sequence where it happens, so a corrupt block
// costs no more memory than a good one. On error dst holds a partial decode.
func DecompressLZ4Into(dst, src []byte) error {
	dstSize := len(dst)
	d := 0 // bytes of dst decoded so far
	pos := 0
	for pos < len(src) {
		token := src[pos]
		pos++
		// Literals.
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, pos, err = readLenExt(src, pos, litLen)
			if err != nil {
				return err
			}
		}
		if litLen > len(src)-pos {
			return fmt.Errorf("%w: literal run past end", ErrCorrupt)
		}
		if litLen > dstSize-d {
			return fmt.Errorf("%w: literal run past %d bytes", ErrCorrupt, dstSize)
		}
		d += copy(dst[d:], src[pos:pos+litLen])
		pos += litLen
		if pos == len(src) {
			break // final literals-only sequence
		}
		// Match.
		if pos+2 > len(src) {
			return fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[pos]) | int(src[pos+1])<<8
		pos += 2
		if offset == 0 || offset > d {
			return fmt.Errorf("%w: bad offset %d (have %d)", ErrCorrupt, offset, d)
		}
		matchLen := int(token & 0x0F)
		if matchLen == 15 {
			var err error
			matchLen, pos, err = readLenExt(src, pos, matchLen)
			if err != nil {
				return err
			}
		}
		matchLen += minMatch
		if matchLen > dstSize-d {
			return fmt.Errorf("%w: match past %d bytes", ErrCorrupt, dstSize)
		}
		// A match may overlap its own output (offset < matchLen): it then
		// repeats the offset bytes before it. Each copy reads only bytes
		// already written and doubles the span the next one can read, so a
		// long run of one byte costs a handful of copies, not one per byte.
		start, end := d-offset, d+matchLen
		for d < end {
			d += copy(dst[d:end], dst[start:d])
		}
	}
	if d != dstSize {
		return fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, d, dstSize)
	}
	return nil
}

func readLenExt(src []byte, pos, base int) (int, int, error) {
	for {
		if pos >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length", ErrCorrupt)
		}
		b := src[pos]
		pos++
		base += int(b)
		if b != 255 {
			return base, pos, nil
		}
	}
}
