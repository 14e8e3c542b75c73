package compress

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripLZ4(t *testing.T, src []byte) {
	t.Helper()
	c := CompressLZ4(src)
	got, err := DecompressLZ4(c, len(src))
	if err != nil {
		t.Fatalf("DecompressLZ4(len=%d): %v", len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("LZ4 round trip mismatch for len=%d", len(src))
	}
}

func TestLZ4Empty(t *testing.T)     { roundTripLZ4(t, nil) }
func TestLZ4Tiny(t *testing.T)      { roundTripLZ4(t, []byte("ab")) }
func TestLZ4Short(t *testing.T)     { roundTripLZ4(t, []byte("hello")) }
func TestLZ4AllZero(t *testing.T)   { roundTripLZ4(t, make([]byte, 100000)) }
func TestLZ4Alphabet(t *testing.T)  { roundTripLZ4(t, []byte("abcdefghijklmnopqrstuvwxyz0123456789")) }
func TestLZ4Repeating(t *testing.T) { roundTripLZ4(t, bytes.Repeat([]byte("abcdefg"), 5000)) }

func TestLZ4TextLike(t *testing.T) {
	var sb strings.Builder
	words := []string{"shipment", "pending", "delivered", "urgent", "customer", "order"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	src := []byte(sb.String())
	c := CompressLZ4(src)
	if len(c) > len(src)/2 {
		t.Errorf("LZ4 on redundant text: got ratio %d/%d, expected < 0.5", len(c), len(src))
	}
	roundTripLZ4(t, src)
}

func TestLZ4Random(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 13, 64, 1000, 70000} {
		src := make([]byte, n)
		rng.Read(src)
		roundTripLZ4(t, src)
	}
}

func TestLZ4RandomLowEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(rng.Intn(4)) // many matches
		}
		roundTripLZ4(t, src)
	}
}

func TestLZ4QuickProperty(t *testing.T) {
	f := func(data []byte) bool {
		c := CompressLZ4(data)
		got, err := DecompressLZ4(c, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLZ4CorruptInput(t *testing.T) {
	// Bad offset: token says match, offset 0.
	if _, err := DecompressLZ4([]byte{0x10, 'a', 0, 0}, 10); err == nil {
		t.Error("offset 0 should fail")
	}
	// Truncated literal run.
	if _, err := DecompressLZ4([]byte{0x50, 'a'}, 5); err == nil {
		t.Error("truncated literals should fail")
	}
	// Size mismatch.
	c := CompressLZ4([]byte("hello world, hello world"))
	if _, err := DecompressLZ4(c, 3); err == nil {
		t.Error("wrong dstSize should fail")
	}
}

func TestLZ4IncompressibleBound(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	src := make([]byte, 10000)
	rng.Read(src)
	c := CompressLZ4(src)
	if len(c) > len(src)+len(src)/255+16 {
		t.Errorf("compressed size %d exceeds worst-case bound for %d input", len(c), len(src))
	}
}

func roundTripHuffman(t *testing.T, src []byte) {
	t.Helper()
	c := CompressHuffman(src)
	got, err := DecompressHuffman(c)
	if err != nil {
		t.Fatalf("DecompressHuffman(len=%d): %v", len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("Huffman round trip mismatch for len=%d", len(src))
	}
}

func TestHuffmanEmpty(t *testing.T)      { roundTripHuffman(t, nil) }
func TestHuffmanSingleByte(t *testing.T) { roundTripHuffman(t, []byte{7}) }
func TestHuffmanOneSymbol(t *testing.T)  { roundTripHuffman(t, bytes.Repeat([]byte{'x'}, 1000)) }
func TestHuffmanText(t *testing.T) {
	roundTripHuffman(t, []byte("the quick brown fox jumps over the lazy dog"))
}

func TestHuffmanAllSymbols(t *testing.T) {
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	roundTripHuffman(t, src)
}

func TestHuffmanSkewed(t *testing.T) {
	var src []byte
	src = append(src, bytes.Repeat([]byte{'a'}, 10000)...)
	src = append(src, bytes.Repeat([]byte{'b'}, 100)...)
	src = append(src, []byte("cdefg")...)
	c := CompressHuffman(src)
	// ~10105 symbols dominated by 1-bit codes: should compress well below
	// the input size even with the 256-byte header.
	if len(c) > len(src)/2 {
		t.Errorf("skewed input: compressed %d of %d", len(c), len(src))
	}
	roundTripHuffman(t, src)
}

func TestHuffmanQuickProperty(t *testing.T) {
	f := func(data []byte) bool {
		c := CompressHuffman(data)
		got, err := DecompressHuffman(c)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanCorrupt(t *testing.T) {
	if _, err := DecompressHuffman([]byte{1, 2, 3}); err == nil {
		t.Error("short header should fail")
	}
	c := CompressHuffman([]byte("hello hello hello"))
	if _, err := DecompressHuffman(c[:len(c)-1]); err == nil {
		t.Error("truncated stream should fail")
	}
	// No symbols declared but nonzero size.
	bad := make([]byte, 256)
	bad = append(bad, 5) // size=5
	if _, err := DecompressHuffman(bad); err == nil {
		t.Error("empty code table with nonzero size should fail")
	}
}

// TestLZ4MatchTableIsRecycled: the output depends on src alone, whatever the
// recycled table last saw, and a call does not leave a fresh 256 KiB table
// behind (a page write-back once did, sixteen times the page it wrote).
func TestLZ4MatchTableIsRecycled(t *testing.T) {
	page := bytes.Repeat([]byte("lineitem|1992-04-01|PENDING|4921.22|"), 455)
	want := CompressLZ4(page)
	noise := make([]byte, len(page))
	rand.New(rand.NewSource(44)).Read(noise)
	CompressLZ4(noise)
	if got := CompressLZ4(page); !bytes.Equal(got, want) {
		t.Fatal("output depends on the previous call's input")
	}
	const runs = 200
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		CompressLZ4(page)
	}
	runtime.ReadMemStats(&ms1)
	// Half a table, not zero: under -race sync.Pool drops a quarter of its Puts.
	if perCall := (ms1.TotalAlloc - ms0.TotalAlloc) / runs; perCall > (4<<hashLog)/2 {
		t.Errorf("a call allocates %d bytes for a %d-byte page", perCall, len(page))
	}
}

func BenchmarkLZ4Compress(b *testing.B) {
	src := bytes.Repeat([]byte("lineitem|1992-04-01|PENDING|4921.22|"), 2000)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompressLZ4(src)
	}
}

func BenchmarkLZ4Decompress(b *testing.B) {
	src := bytes.Repeat([]byte("lineitem|1992-04-01|PENDING|4921.22|"), 2000)
	c := CompressLZ4(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressLZ4(c, len(src)); err != nil {
			b.Fatal(err)
		}
	}
}
