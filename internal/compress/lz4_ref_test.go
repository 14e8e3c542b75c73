package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// decompressLZ4Ref is the byte-at-a-time LZ4 block decoder DecompressLZ4 was
// before it copied blocks, kept as the reference the block-copy one is fuzzed
// against: it grows the output one append per match byte and checks the size
// only once the whole block is decoded.
func decompressLZ4Ref(src []byte, dstSize int) ([]byte, error) {
	dst := make([]byte, 0, dstSize)
	pos := 0
	for pos < len(src) {
		token := src[pos]
		pos++
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, pos, err = readLenExt(src, pos, litLen)
			if err != nil {
				return nil, err
			}
		}
		if pos+litLen > len(src) {
			return nil, fmt.Errorf("%w: literal run past end", ErrCorrupt)
		}
		dst = append(dst, src[pos:pos+litLen]...)
		pos += litLen
		if pos == len(src) {
			break
		}
		if pos+2 > len(src) {
			return nil, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[pos]) | int(src[pos+1])<<8
		pos += 2
		if offset == 0 || offset > len(dst) {
			return nil, fmt.Errorf("%w: bad offset %d (have %d)", ErrCorrupt, offset, len(dst))
		}
		matchLen := int(token & 0x0F)
		if matchLen == 15 {
			var err error
			matchLen, pos, err = readLenExt(src, pos, matchLen)
			if err != nil {
				return nil, err
			}
		}
		matchLen += minMatch
		start := len(dst) - offset
		for i := 0; i < matchLen; i++ {
			dst = append(dst, dst[start+i])
		}
	}
	if len(dst) != dstSize {
		return nil, fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, len(dst), dstSize)
	}
	return dst, nil
}

// sealedFloatPage builds what the page file stores for a sealed FLOAT column
// page of a 441-row page set: a header, 441 eight-byte cells, and the zero
// tail that fills the 16 KiB slot.
func sealedFloatPage(rng *rand.Rand) []byte {
	pg := make([]byte, 16<<10)
	for i := 0; i < 441; i++ {
		price := math.Round((900+rng.Float64()*104000)*100) / 100
		binary.LittleEndian.PutUint64(pg[33+8*i:], math.Float64bits(price))
	}
	return pg
}

// lineitemRows builds row-encoded lineitem-like bytes, what the exchange
// codec and row pages carry.
func lineitemRows(rng *rand.Rand) []byte {
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	var out []byte
	for i := 0; i < 2000; i++ {
		out = binary.AppendVarint(out, int64(i/4))
		out = binary.AppendVarint(out, rng.Int63n(200000))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(rng.Intn(5000))/100))
		out = append(out, modes[rng.Intn(len(modes))]...)
		out = append(out, "1995-0"...)
		out = append(out, byte('1'+rng.Intn(9)), '-', byte('1'+rng.Intn(2)), byte('0'+rng.Intn(9)))
		out = append(out, " carefully final deposits sleep "...)
	}
	return out
}

// TestLZ4DecodeMatchesReference: both decoders agree byte for byte on page
// and row data and on the match shapes the block copy treats specially
// (overlapping matches of every small offset, a match ending the block).
func TestLZ4DecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := map[string][]byte{
		"float-page":    sealedFloatPage(rng),
		"lineitem-rows": lineitemRows(rng),
		"zeros":         make([]byte, 70000),
	}
	for period := 1; period <= 9; period++ {
		inputs[fmt.Sprintf("period-%d", period)] = bytes.Repeat([]byte("abcdefghi")[:period], 500)
	}
	for name, src := range inputs {
		packed := CompressLZ4(src)
		got, err := DecompressLZ4(packed, len(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := decompressLZ4Ref(packed, len(src))
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got, src) || !bytes.Equal(ref, src) {
			t.Fatalf("%s: round trip differs (block copy ok=%v, reference ok=%v)", name, bytes.Equal(got, src), bytes.Equal(ref, src))
		}
	}
}

// TestLZ4RejectsOverrunAtTheSequence: a block whose first match claims far
// more than dstSize is refused there — the decoder's output never grows past
// dstSize, however long the block says the match is.
func TestLZ4RejectsOverrunAtTheSequence(t *testing.T) {
	// One literal, then a match of offset 1 whose length extension is 16 KiB
	// of 0xFF: about 4 MiB claimed for a 16 KiB page.
	crafted := append([]byte{0x1F, 'x', 1, 0}, bytes.Repeat([]byte{0xFF}, 16<<10)...)
	crafted = append(crafted, 0)
	// Bytes allocated per call, not allocations: the count depends on the
	// runtime (the race detector's adds its own), the bytes are the output.
	const dstSize, runs = 16 << 10, 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := DecompressLZ4(crafted, dstSize); err == nil {
			t.Fatal("oversized match accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 2*dstSize {
		t.Fatalf("%d bytes allocated refusing a crafted block of a %d-byte page: the output is growing", perCall, dstSize)
	}
	if _, err := DecompressLZ4([]byte{0xF0, 255, 255, 0}, 8); err == nil {
		t.Fatal("literal run past dstSize and past the block accepted")
	}
	if _, err := DecompressLZ4([]byte{0x50, 'a', 'b', 'c', 'd', 'e'}, 4); err == nil {
		t.Fatal("literal run past dstSize accepted")
	}
}

// FuzzLZ4Decode: DecompressLZ4 never panics on arbitrary bytes, never returns
// more than dstSize bytes, accepts exactly the blocks the byte-at-a-time
// reference accepts and decodes them identically, and round-trips whatever
// CompressLZ4 makes of the same bytes.
func FuzzLZ4Decode(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	page := sealedFloatPage(rng)
	f.Add(CompressLZ4(page), uint32(len(page)))
	rows := lineitemRows(rng)[:4096]
	f.Add(CompressLZ4(rows), uint32(len(rows)))
	f.Add(CompressLZ4(bytes.Repeat([]byte("ab"), 300)), uint32(600))
	f.Add([]byte{0x1F, 'x', 1, 0, 255, 255, 0}, uint32(64))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, size uint32) {
		dstSize := int(size % (1 << 17))
		got, err := DecompressLZ4(data, dstSize)
		ref, rerr := decompressLZ4Ref(data, dstSize)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("block copy err=%v, reference err=%v", err, rerr)
		}
		if err == nil && (len(got) != dstSize || !bytes.Equal(got, ref)) {
			t.Fatalf("decoded %d bytes (want %d) or differs from the reference", len(got), dstSize)
		}
		back, err := DecompressLZ4(CompressLZ4(data), len(data))
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("round trip of %d bytes: %v", len(data), err)
		}
	})
}

// BenchmarkLZ4Decode decompresses what File.ReadPage decompresses on every
// buffer miss — a sealed 16 KiB float page, most of it the slot's zero tail —
// and row-encoded lineitem, through the block-copy decoder and the
// byte-at-a-time reference. MB/s is of the decompressed bytes.
func BenchmarkLZ4Decode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, in := range []struct {
		name string
		src  []byte
	}{{"float-page", sealedFloatPage(rng)}, {"lineitem-rows", lineitemRows(rng)}} {
		packed := CompressLZ4(in.src)
		for _, dec := range []struct {
			name string
			fn   func([]byte, int) ([]byte, error)
		}{{"block", DecompressLZ4}, {"bytewise", decompressLZ4Ref}} {
			b.Run(in.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(in.src)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if out, err := dec.fn(packed, len(in.src)); err != nil || len(out) != len(in.src) {
						b.Fatal(len(out), err)
					}
				}
			})
		}
	}
}
