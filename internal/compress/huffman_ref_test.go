package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// decompressHuffmanRef is the bit-serial canonical Huffman decoder that
// DecompressHuffman used before it became table-driven, kept as the
// reference the table-driven one is fuzzed against: per symbol it tries the
// code lengths 1…32 one at a time, reading the stream a byte at a time. (Its
// range test is done in 64 bits; in 32, a complete code with 32-bit codewords
// wrapped the upper bound to zero.)
func decompressHuffmanRef(src []byte) ([]byte, error) {
	if len(src) < 256 {
		return nil, fmt.Errorf("huffman header too short (%d bytes)", len(src))
	}
	var lengths [256]uint8
	copy(lengths[:], src[:256])
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, fmt.Errorf("huffman code length %d too large", l)
		}
	}
	n, consumed := binary.Uvarint(src[256:])
	if consumed <= 0 {
		return nil, fmt.Errorf("bad huffman size header")
	}
	data := src[256+consumed:]
	if n == 0 {
		return []byte{}, nil
	}
	if n > uint64(len(data))*8 {
		return nil, fmt.Errorf("huffman size %d exceeds stream capacity (%d bytes)", n, len(data))
	}
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
	if len(syms) == 0 {
		return nil, fmt.Errorf("huffman stream with no symbols but size %d", n)
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].len != syms[j].len {
			return syms[i].len < syms[j].len
		}
		return syms[i].sym < syms[j].sym
	})
	var firstCode [maxCodeLen + 2]uint32
	var firstIndex [maxCodeLen + 2]int
	var countAt [maxCodeLen + 1]int
	for _, s := range syms {
		countAt[s.len]++
	}
	code := uint32(0)
	idx := 0
	for l := 1; l <= maxCodeLen; l++ {
		firstCode[l] = code
		firstIndex[l] = idx
		code = (code + uint32(countAt[l])) << 1
		idx += countAt[l]
	}
	out := make([]byte, 0, n)
	var acc uint64
	var accLen uint8
	pos := 0
	for uint64(len(out)) < n {
		var matched bool
		for l := uint8(1); l <= maxCodeLen; l++ {
			for accLen < l {
				if pos >= len(data) {
					return nil, fmt.Errorf("huffman stream truncated at %d/%d symbols", len(out), n)
				}
				acc = (acc << 8) | uint64(data[pos])
				accLen += 8
				pos++
			}
			if countAt[l] == 0 {
				continue
			}
			c := (acc >> (accLen - l)) & ((uint64(1) << l) - 1)
			if c >= uint64(firstCode[l]) && c < uint64(firstCode[l])+uint64(countAt[l]) {
				out = append(out, byte(syms[firstIndex[l]+int(c-uint64(firstCode[l]))].sym))
				accLen -= l
				acc &= (uint64(1) << accLen) - 1
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("invalid huffman code in stream")
		}
	}
	return out, nil
}

// floatPagePayload and stringPagePayload build what a 16 KiB column page of
// that kind holds before it is sealed: one kind tag byte per value, then the
// value (page.ColumnPage.Append, types.AppendValue).
func floatPagePayload(rng *rand.Rand) []byte {
	var pay []byte
	for len(pay)+9 <= 16<<10 {
		price := math.Round((900+rng.Float64()*104000)*100) / 100
		pay = append(pay, 2) // types.KindFloat
		pay = binary.LittleEndian.AppendUint64(pay, math.Float64bits(price))
	}
	return pay
}

func stringPagePayload(rng *rand.Rand) []byte {
	words := []string{"furiously", "carefully", "pending", "deposits", "requests", "accounts",
		"blithely", "ironic", "packages", "sleep", "quickly", "final", "express", "the", "above", "slyly"}
	var pay []byte
	for {
		var s []byte
		for w := 3 + rng.Intn(6); w > 0; w-- {
			s = append(append(s, words[rng.Intn(len(words))]...), ' ')
		}
		if len(pay)+2+len(s) > 16<<10 {
			return pay
		}
		pay = append(pay, 3) // types.KindString
		pay = binary.AppendUvarint(pay, uint64(len(s)))
		pay = append(pay, s...)
	}
}

// TestHuffmanDecodeMatchesReference: both decoders agree, byte for byte, on
// sealed page payloads and on every code shape the table treats specially
// (codes longer than the primary table, one symbol, all 256).
func TestHuffmanDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := map[string][]byte{
		"float-page":  floatPagePayload(rng),
		"string-page": stringPagePayload(rng),
		"one-symbol":  bytes.Repeat([]byte{'x'}, 999),
	}
	// Fibonacci-like frequencies give one code of every length up to 20.
	var skew []byte
	for sym, f := 0, 1; sym < 21; sym, f = sym+1, f+f/2+1 {
		skew = append(skew, bytes.Repeat([]byte{byte(sym)}, f)...)
	}
	rng.Shuffle(len(skew), func(i, j int) { skew[i], skew[j] = skew[j], skew[i] })
	inputs["long-codes"] = skew
	all := make([]byte, 4096)
	rng.Read(all)
	inputs["all-symbols"] = all
	for name, src := range inputs {
		c := CompressHuffman(src)
		got, err := DecompressHuffman(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := decompressHuffmanRef(c)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got, src) || !bytes.Equal(ref, src) {
			t.Errorf("%s: round trip mismatch (table %v, reference %v)", name, bytes.Equal(got, src), bytes.Equal(ref, src))
		}
		// Every proper prefix of the stream is a truncation both must reject
		// or, if the cut only removed padding, decode identically.
		for cut := len(c) - 1; cut > len(c)-40 && cut >= 256; cut-- {
			got, err := DecompressHuffman(c[:cut])
			ref, rerr := decompressHuffmanRef(c[:cut])
			if (err == nil) != (rerr == nil) || !bytes.Equal(got, ref) {
				t.Fatalf("%s cut at %d: table (%d bytes, %v), reference (%d bytes, %v)", name, cut, len(got), err, len(ref), rerr)
			}
		}
		// A flipped byte in the bit stream leaves the length table valid, so
		// the two must agree exactly: same bytes out, or both refuse.
		for k := 0; k < 200; k++ {
			bad := append([]byte(nil), c...)
			bad[260+rng.Intn(len(bad)-260)] ^= byte(1 + rng.Intn(255))
			got, err := DecompressHuffman(bad)
			ref, rerr := decompressHuffmanRef(bad)
			if (err == nil) != (rerr == nil) || !bytes.Equal(got, ref) {
				t.Fatalf("%s corrupted: table (%d bytes, %v), reference (%d bytes, %v)", name, len(got), err, len(ref), rerr)
			}
		}
	}
	if maxLen := maxLength(CompressHuffman(skew)); maxLen <= huffTableBits {
		t.Errorf("long-codes input has no code longer than the primary table (max %d)", maxLen)
	}
}

func maxLength(stream []byte) int {
	m := 0
	for _, l := range stream[:256] {
		if int(l) > m {
			m = int(l)
		}
	}
	return m
}

// TestHuffmanRejectsOversubscribed: a length table whose codes cannot all
// exist (three codes of length 1) is refused, whatever the stream says.
func TestHuffmanRejectsOversubscribed(t *testing.T) {
	bad := make([]byte, 256)
	bad['a'], bad['b'], bad['c'] = 1, 1, 1
	bad = append(bad, 8) // size
	bad = append(bad, 0x55)
	if _, err := DecompressHuffman(bad); err == nil {
		t.Fatal("over-subscribed length table was accepted")
	}
	// A complete table that uses the full 32-bit code length is legal.
	full := make([]byte, 256)
	for l := 1; l <= 32; l++ {
		full[l] = byte(l)
	}
	full[33] = 32
	full = append(full, 3)             // three symbols:
	full = append(full, 0b0_10_110_00) // codes 0, 10, 110 → symbols 1, 2, 3
	got, err := DecompressHuffman(full)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("complete 32-bit code: got %v, %v", got, err)
	}
	ref, err := decompressHuffmanRef(full)
	if err != nil || !bytes.Equal(ref, got) {
		t.Fatalf("complete 32-bit code, reference: got %v, %v", ref, err)
	}
}

// FuzzHuffmanDecode: DecompressHuffman never panics on arbitrary bytes, and
// whatever it accepts it decodes exactly as the bit-serial reference does.
// (The reference accepts some streams the table-driven decoder refuses:
// those under an over-subscribed length table, where it returns whichever
// of the overlapping codes it tries first.)
func FuzzHuffmanDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	f.Add(CompressHuffman([]byte("the quick brown fox jumps over the lazy dog")))
	f.Add(CompressHuffman(stringPagePayload(rng)[:2048]))
	f.Add(CompressHuffman(floatPagePayload(rng)[:2048]))
	f.Add(CompressHuffman(bytes.Repeat([]byte{7}, 100)))
	f.Add(make([]byte, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecompressHuffman(data)
		if err != nil {
			return
		}
		ref, rerr := decompressHuffmanRef(data)
		if rerr != nil {
			t.Fatalf("accepted a stream the reference rejects: %v", rerr)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("decoded %d bytes that differ from the reference's %d", len(got), len(ref))
		}
	})
}

// BenchmarkHuffmanDecode unpacks a sealed 16 KiB column page's payload, the
// per-page cost the columnar scan pays for every Huffman-packed page it
// reads. MB/s is of the unpacked payload.
func BenchmarkHuffmanDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, pg := range []struct {
		name string
		pay  []byte
	}{{"float-page", floatPagePayload(rng)}, {"string-page", stringPagePayload(rng)}} {
		packed := CompressHuffman(pg.pay)
		if len(packed) >= len(pg.pay) {
			b.Fatalf("%s: packing does not shrink the page (%d → %d); Seal would leave it raw", pg.name, len(pg.pay), len(packed))
		}
		for _, dec := range []struct {
			name string
			fn   func([]byte) ([]byte, error)
		}{{"table", DecompressHuffman}, {"bit-serial", decompressHuffmanRef}} {
			b.Run(pg.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(pg.pay)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := dec.fn(packed)
					if err != nil || len(out) != len(pg.pay) {
						b.Fatal(len(out), err)
					}
				}
			})
		}
	}
}
