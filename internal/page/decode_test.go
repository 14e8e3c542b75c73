package page

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// buildColPage appends vals into a fresh column page, failing the test if
// they don't fit. seal seals it (a no-op unless some layout is smaller).
func buildColPage(t *testing.T, size int, vals []types.Value, seal bool) ColumnPage {
	t.Helper()
	p := InitColumnPage(make([]byte, size))
	for i, v := range vals {
		if !p.Append(v) {
			t.Fatalf("value %d of %d does not fit a %d-byte page", i, len(vals), size)
		}
	}
	if seal {
		p.Seal()
	}
	return p
}

// boxedDecode is the golden reference: the boxed DecodeInto path.
func boxedDecode(t *testing.T, p ColumnPage) []types.Value {
	t.Helper()
	var out []types.Value
	if err := p.DecodeInto(func(v types.Value) bool {
		out = append(out, v)
		return true
	}); err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	return out
}

// intPageValues builds kind-homogeneous int-family values with NULL runs.
func intPageValues(kind types.Kind, n int, rng *rand.Rand) []types.Value {
	vals := make([]types.Value, n)
	for i := range vals {
		switch {
		case i%7 == 3, i%11 == 10: // NULL runs and stragglers
			vals[i] = types.Null
		case kind == types.KindBool:
			vals[i] = types.NewBool(rng.Intn(2) == 0)
		case kind == types.KindDate:
			vals[i] = types.NewDate(rng.Int63n(40000) - 10000)
		default:
			vals[i] = types.NewInt(rng.Int63() - rng.Int63()) // negatives too
		}
	}
	return vals
}

func TestDecodeInt64sParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []types.Kind{types.KindInt, types.KindDate, types.KindBool} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			vals := intPageValues(kind, 300, rng)
			p := buildColPage(t, 8192, vals, false)
			want := boxedDecode(t, p)
			var bm vec.Bitmap
			got, err := p.DecodeInt64s(kind, nil, &bm)
			if err != nil {
				t.Fatalf("DecodeInt64s: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d values, want %d", len(got), len(want))
			}
			for i, w := range want {
				if w.K == types.KindNull {
					if !vec.GetBit(bm.Words, i) {
						t.Fatalf("value %d: want NULL bit", i)
					}
					continue
				}
				if vec.GetBit(bm.Words, i) {
					t.Fatalf("value %d: unexpected NULL bit", i)
				}
				if got[i] != w.I {
					t.Fatalf("value %d: got %d want %d", i, got[i], w.I)
				}
			}
		})
	}
}

func TestDecodeFloat64sParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]types.Value, 300)
	for i := range vals {
		if i%9 == 4 {
			vals[i] = types.Null
		} else {
			vals[i] = types.NewFloat(rng.NormFloat64() * 1e6)
		}
	}
	p := buildColPage(t, 8192, vals, false)
	want := boxedDecode(t, p)
	var bm vec.Bitmap
	got, err := p.DecodeFloat64s(nil, &bm)
	if err != nil {
		t.Fatalf("DecodeFloat64s: %v", err)
	}
	for i, w := range want {
		if w.K == types.KindNull {
			if !vec.GetBit(bm.Words, i) {
				t.Fatalf("value %d: want NULL bit", i)
			}
			continue
		}
		if vec.GetBit(bm.Words, i) || got[i] != w.F {
			t.Fatalf("value %d: got %v null=%v want %v", i, got[i], vec.GetBit(bm.Words, i), w.F)
		}
	}
}

func TestDecodeStringsParity(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seal      bool
		distinct  int
		wantFlags byte
	}{
		{"sealed=false", false, 4, 0},
		{"sealed=true", true, 4, layoutDict << 1},
		// More distinct strings than a page dictionary holds: the page stays
		// tagged, and being repetitive it Huffman-packs.
		{"sealed=huffman", true, 300, flagPacked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals := make([]types.Value, 800)
			for i := range vals {
				switch {
				case i%13 == 5:
					vals[i] = types.Null
				default:
					vals[i] = types.NewString(fmt.Sprintf("STATUS-%d", i%tc.distinct))
				}
			}
			p := buildColPage(t, 16384, vals, false)
			plain := p.payloadLen()
			if tc.seal && (!p.Seal() || p.payloadLen() >= plain) {
				t.Fatalf("test page did not seal smaller (%d → %d bytes); pick more repetitive data", plain, p.payloadLen())
			}
			if got := p.Buf[colOffFlags]; got != tc.wantFlags {
				t.Fatalf("flags %#x, want %#x", got, tc.wantFlags)
			}
			want := boxedDecode(t, p)
			dict := vec.NewDict()
			var bm vec.Bitmap
			got, err := p.DecodeStringsSel(dict, nil, &bm, nil)
			if err != nil {
				t.Fatalf("DecodeStringsSel: %v", err)
			}
			for i, w := range want {
				if w.K == types.KindNull {
					if !vec.GetBit(bm.Words, i) {
						t.Fatalf("value %d: want NULL bit", i)
					}
					continue
				}
				if vec.GetBit(bm.Words, i) || dict.Str(got[i]) != w.S {
					t.Fatalf("value %d: got %q want %q", i, dict.Str(got[i]), w.S)
				}
				// Codes are dense: one at or past distinct means a string was
				// interned twice.
				if int(got[i]) >= tc.distinct {
					t.Fatalf("value %d: code %d in a dictionary that should hold %d entries", i, got[i], tc.distinct)
				}
			}
		})
	}
}

// TestDecodeEmptyPage: a tagged page of no cells decodes to nothing, whatever
// the selection, but a fixed or dict page of no cells still has its header
// checked — one shorter than its header is corrupt, whatever the selection.
func TestDecodeEmptyPage(t *testing.T) {
	type result struct {
		n, nulls int
		err      error
	}
	decodeAll := func(p ColumnPage, sel []int32) []result {
		var ib, fb, sb vec.Bitmap
		ints, ierr := p.DecodeInt64sSel(types.KindInt, nil, &ib, sel)
		floats, ferr := p.DecodeFloat64sSel(nil, &fb, sel)
		codes, serr := p.DecodeStringsSel(vec.NewDict(), nil, &sb, sel)
		return []result{{len(ints), len(ib.Words), ierr}, {len(floats), len(fb.Words), ferr}, {len(codes), len(sb.Words), serr}}
	}
	p := InitColumnPage(make([]byte, 4096))
	for _, sel := range [][]int32{nil, {}} {
		for i, r := range decodeAll(p, sel) {
			if r.err != nil || r.n != 0 || r.nulls != 0 {
				t.Fatalf("empty tagged page, decoder %d, sel %v: %d values, %d null words, err %v; want nothing", i, sel, r.n, r.nulls, r.err)
			}
		}
	}
	for _, layout := range []int{layoutFixed, layoutDict} {
		p := InitColumnPage(make([]byte, 4096))
		p.Buf[colOffFlags] = byte(layout << 1)
		for i, r := range decodeAll(p, nil) {
			if r.err == nil {
				t.Fatalf("layout %d page with no header: decoder %d succeeded", layout, i)
			}
		}
	}
}

// TestDecodeForeignKindIsAnError: a cell of another kind than the column's
// is one storage never writes, so a typed decoder that reads one reports the
// page corrupt — when a cell of the wrong kind is selected.
func TestDecodeForeignKindIsAnError(t *testing.T) {
	p := InitColumnPage(make([]byte, 4096))
	for _, v := range []types.Value{
		types.NewInt(1), types.Null, types.NewInt(2), types.NewString("oops"), types.NewInt(3),
	} {
		if !p.Append(v) {
			t.Fatal("append failed")
		}
	}
	if _, err := p.DecodeInt64s(types.KindInt, nil, &vec.Bitmap{}); err == nil || !strings.Contains(err.Error(), "column value 3: VARCHAR in a column of INT") {
		t.Fatalf("err = %v, want the string at position 3 named", err)
	}
	// A DATE tag is int64-shaped but a different kind.
	if _, err := p.DecodeInt64s(types.KindDate, nil, &vec.Bitmap{}); err == nil {
		t.Fatal("INT cells decoded into a DATE column")
	}
	// Only selected cells are kind-checked: a selection that steps over the
	// string decodes, one that takes it does not.
	if got, err := p.DecodeInt64sSel(types.KindInt, nil, &vec.Bitmap{}, []int32{0, 2, 4}); err != nil || !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("selection around the string: %v, %v", got, err)
	}
	if _, err := p.DecodeInt64sSel(types.KindInt, nil, &vec.Bitmap{}, []int32{2, 3}); err == nil {
		t.Fatal("selection of the string decoded")
	}
}

// randomSel returns a random ascending subset of [0, n).
func randomSel(n int, rng *rand.Rand) []int32 {
	var sel []int32
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

func TestDecodeSelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t.Run("int64", func(t *testing.T) {
		vals := intPageValues(types.KindInt, 250, rng)
		p := buildColPage(t, 8192, vals, false)
		sel := randomSel(len(vals), rng)
		var bm vec.Bitmap
		got, err := p.DecodeInt64sSel(types.KindInt, nil, &bm, sel)
		if err != nil {
			t.Fatalf("DecodeInt64sSel: %v", err)
		}
		if len(got) != len(sel) {
			t.Fatalf("decoded %d, want %d", len(got), len(sel))
		}
		for k, i := range sel {
			if vals[i].K == types.KindNull {
				if !vec.GetBit(bm.Words, k) {
					t.Fatalf("sel %d (pos %d): want NULL", k, i)
				}
				continue
			}
			if vec.GetBit(bm.Words, k) || got[k] != vals[i].I {
				t.Fatalf("sel %d (pos %d): got %d want %d", k, i, got[k], vals[i].I)
			}
		}
	})
	t.Run("float64", func(t *testing.T) {
		vals := make([]types.Value, 250)
		for i := range vals {
			if i%8 == 6 {
				vals[i] = types.Null
			} else {
				vals[i] = types.NewFloat(rng.Float64())
			}
		}
		p := buildColPage(t, 8192, vals, false)
		sel := randomSel(len(vals), rng)
		var bm vec.Bitmap
		got, err := p.DecodeFloat64sSel(nil, &bm, sel)
		if err != nil {
			t.Fatalf("DecodeFloat64sSel: %v", err)
		}
		for k, i := range sel {
			if vals[i].K == types.KindNull {
				if !vec.GetBit(bm.Words, k) {
					t.Fatalf("sel %d: want NULL", k)
				}
			} else if vec.GetBit(bm.Words, k) || got[k] != vals[i].F {
				t.Fatalf("sel %d: got %v want %v", k, got[k], vals[i].F)
			}
		}
	})
	t.Run("strings-sealed", func(t *testing.T) {
		vals := make([]types.Value, 300)
		for i := range vals {
			if i%10 == 7 {
				vals[i] = types.Null
			} else {
				vals[i] = types.NewString(fmt.Sprintf("FLAG-%d", i%3))
			}
		}
		p := buildColPage(t, 16384, vals, true)
		sel := randomSel(len(vals), rng)
		dict := vec.NewDict()
		var bm vec.Bitmap
		got, err := p.DecodeStringsSel(dict, nil, &bm, sel)
		if err != nil {
			t.Fatalf("DecodeStringsSel: %v", err)
		}
		for k, i := range sel {
			if vals[i].K == types.KindNull {
				if !vec.GetBit(bm.Words, k) {
					t.Fatalf("sel %d: want NULL", k)
				}
			} else if vec.GetBit(bm.Words, k) || dict.Str(got[k]) != vals[i].S {
				t.Fatalf("sel %d: got %q want %q", k, dict.Str(got[k]), vals[i].S)
			} else if got[k] >= 3 {
				// Codes are dense and there are 3 distinct strings.
				t.Fatalf("sel %d: code %d in a dictionary that should hold at most 3 entries", k, got[k])
			}
		}
	})
	t.Run("empty-sel", func(t *testing.T) {
		p := buildColPage(t, 4096, intPageValues(types.KindInt, 50, rng), false)
		var bm vec.Bitmap
		got, err := p.DecodeInt64sSel(types.KindInt, nil, &bm, []int32{})
		if err != nil || len(got) != 0 {
			t.Fatalf("empty sel: %v, %d values", err, len(got))
		}
	})
	t.Run("sel-beyond-page", func(t *testing.T) {
		p := buildColPage(t, 4096, intPageValues(types.KindInt, 20, rng), false)
		var bm vec.Bitmap
		if _, err := p.DecodeInt64sSel(types.KindInt, nil, &bm, []int32{5, 25}); err == nil {
			t.Fatal("selection beyond page count must error")
		}
	})
}

// fuzzReadings is what the readers make of an arbitrary buffer, errors
// included.
type fuzzReadings struct {
	Boxed    []boxedBits
	BoxedErr string
	Typed    map[string]typedReading
}

// fuzzRead runs DecodeInto, Values, and each typed decoder over every cell
// and over sel, on p, and fails the test on anything but an error or a
// result that agrees with the boxed DecodeInto reading.
func fuzzRead(t *testing.T, p ColumnPage, sel []int32) fuzzReadings {
	t.Helper()
	var r fuzzReadings
	r.Typed = map[string]typedReading{}
	var boxed []types.Value
	boxedErr := p.DecodeInto(func(v types.Value) bool {
		boxed = append(boxed, v)
		return true
	})
	vals, valsErr := p.Values()
	if (boxedErr == nil) != (valsErr == nil) || (boxedErr == nil && !reflect.DeepEqual(bitsOf(vals), bitsOf(boxed))) {
		t.Fatalf("Values (%d values, err %v) and DecodeInto (%d values, err %v) disagree", len(vals), valsErr, len(boxed), boxedErr)
	}
	if boxedErr != nil {
		r.BoxedErr = boxedErr.Error()
	} else {
		r.Boxed = bitsOf(boxed)
	}
	sels := map[string][]int32{"full": nil, "sel": sel}
	for _, kind := range []types.Kind{types.KindInt, types.KindDate, types.KindBool, types.KindFloat, types.KindString} {
		for name, sel := range sels {
			name = fmt.Sprintf("%v/%s", kind, name)
			got, err := typedRead(p, kind, sel)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r.Typed[name] = got
			if got.Err != "" {
				continue // corruption, a cell of another kind or a bad position detected: fine
			}
			if boxedErr != nil {
				if sel != nil {
					continue // a Sel reader stops at its last position; the damage lies past it
				}
				t.Fatalf("%s succeeded but DecodeInto failed: %v", name, boxedErr)
			}
			if sel == nil {
				sel = selections(len(boxed))["all"]
			}
			if len(got.Nulls)-prefix != len(sel) {
				t.Fatalf("%s decoded %d cells for %d positions", name, len(got.Nulls)-prefix, len(sel))
			}
			for k, pos := range sel {
				if int(pos) >= len(boxed) {
					t.Fatalf("%s accepted position %d of a %d-cell page", name, pos, len(boxed))
				}
				if !cellIs(got, k, kind, boxed[pos]) {
					t.Fatalf("%s: position %d differs from the boxed value %v", name, pos, boxed[pos])
				}
			}
		}
		// The code-space accessor: a code of the entry count or more, which
		// it leaves to its caller, is a page DecodeInto refuses; any other
		// names the entry that is its cell's boxed value.
		name := fmt.Sprintf("%v/dict", kind)
		got, err := dictRead(p, kind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.Typed[name] = got
		if got.Err != "" || got.Codes == nil {
			continue
		}
		d := len(got.Nulls) - prefix
		if slices.ContainsFunc(got.Codes, func(c byte) bool { return int(c) >= d }) {
			if boxedErr == nil {
				t.Fatalf("%s: a code of %d entries or more, yet DecodeInto read the page", name, d)
			}
			continue
		}
		if boxedErr != nil {
			t.Fatalf("%s succeeded but DecodeInto failed: %v", name, boxedErr)
		}
		if len(got.Codes) != len(boxed) {
			t.Fatalf("%s returned %d codes for %d cells", name, len(got.Codes), len(boxed))
		}
		for i, c := range got.Codes {
			if !cellIs(got, int(c), kind, boxed[i]) {
				t.Fatalf("%s: cell %d's entry %d differs from the boxed value %v", name, i, c, boxed[i])
			}
		}
	}
	return r
}

// cellIs reports whether the k-th cell a typed reading appended is want.
func cellIs(got typedReading, k int, kind types.Kind, want types.Value) bool {
	if want.K == types.KindNull || got.Nulls[prefix+k] {
		return want.K == types.KindNull && got.Nulls[prefix+k]
	}
	switch {
	case want.K != kind:
		return false
	case kind == types.KindString:
		return got.Strs[k] == want.S
	case kind == types.KindFloat:
		return got.Cells[k] == math.Float64bits(want.F)
	default:
		return got.Cells[k] == uint64(want.I)
	}
}

const fuzzOvfPages = 1000 // the overflow file a fuzzed chain head is checked against

// fuzzChain: a chain head either names a run of at most MaxChainPages pages
// inside the overflow file, no more than one per row, or is an error — and
// no cell reader accepts it as a page of cells.
func fuzzChain(t *testing.T, p ColumnPage) {
	t.Helper()
	if !p.ChainHead() {
		return
	}
	start, count, err := p.Chain(fuzzOvfPages)
	if err == nil && (count == 0 || count > MaxChainPages || int(count) > p.NumValues() || uint64(start)+uint64(count) > fuzzOvfPages) {
		t.Fatalf("chain [%d, +%d) of a %d-row set accepted against a %d-page file", start, count, p.NumValues(), fuzzOvfPages)
	}
	if _, err := p.Values(); err == nil {
		t.Fatal("a chain head decoded as a page of cells")
	}
}

// FuzzTypedDecode feeds arbitrary bytes — seeded with well-formed pages of
// every layout, flags byte included — to the three typed decoders of a
// column page and to its code-space accessor (DictEntries), the decoders
// over every cell and over a selection the fuzzer picks
// (gaps: each byte is the distance to the next position, less one; an empty
// gaps is the empty selection): each must error on corruption, a cell of
// another kind or a position past the page, never panic, agree with the
// boxed DecodeInto path when it succeeds, and never consult a byte past the
// declared payload (the page cut off there reads the same).
func FuzzTypedDecode(f *testing.F) {
	// The selections every seed page is added with: positions 0 and 2, 1 and
	// 3, 0 and 64 (one past a seed page's 64 cells), and none.
	seedSels := [][]byte{{0, 1}, {1, 1}, {0, 63}, {}}
	add := func(buf []byte) {
		for _, gaps := range seedSels {
			f.Add(buf, gaps)
		}
	}
	seed := func(size int, seal bool, gen func(i int) types.Value) {
		p := InitColumnPage(make([]byte, size))
		for i := 0; i < 64; i++ {
			p.Append(gen(i))
		}
		if seal {
			p.Seal()
		}
		add(p.Buf)
	}
	nullOr := func(i int, v types.Value) types.Value {
		if i%5 == 3 {
			return types.Null
		}
		return v
	}
	gens := []func(i int) types.Value{
		func(i int) types.Value { return nullOr(i, types.NewInt(int64(i)*1000003-7)) },           // fixed, width 4
		func(i int) types.Value { return types.NewInt(int64(i%3) + 1<<40) },                      // dict
		func(i int) types.Value { return nullOr(i, types.NewFloat(3.14*float64(i))) },            // fixed
		func(i int) types.Value { return nullOr(i, types.NewFloat(float64(i%4))) },               // dict
		func(i int) types.Value { return types.NewBool(i%3 == 0) },                               // fixed, width 1
		func(i int) types.Value { return nullOr(i, types.NewDate(19000+int64(i))) },              // fixed, width 1
		func(i int) types.Value { return nullOr(i, types.NewString(fmt.Sprintf("AA-%d", i%2))) }, // dict
		func(i int) types.Value { // mixed kinds, an error to every typed reader: tagged, Huffman-packed when sealed
			if i%2 == 0 {
				return types.NewString("mixed with an integer")
			}
			return types.NewInt(int64(i % 2))
		},
		func(i int) types.Value { return nullOr(i, types.NewInt(int64(i%3)+1<<40)) }, // dict, a NULL entry
	}
	for _, gen := range gens {
		seed(2048, false, gen)
		seed(2048, true, gen)
	}
	// A dictionary page whose last cell carries a code its dictionary lacks.
	bad := InitColumnPage(make([]byte, 2048))
	for i := 0; i < 64; i++ {
		bad.Append(gens[6](i))
	}
	bad.Seal()
	bad.Buf[colHeaderSize+bad.payloadLen()-1] = 0xff
	add(bad.Buf)
	// And one whose first cell's code is the entry count, one past the last.
	edge := ColumnPage{Buf: slices.Clone(bad.Buf)}
	end := colHeaderSize + edge.payloadLen()
	edge.Buf[end-1] = 0
	edge.Buf[end-64] = byte(binary.LittleEndian.Uint16(edge.Buf[colHeaderSize:]))
	add(edge.Buf)
	// Chain heads: a good one, and ones whose (start, count) name no chain the
	// overflow file could hold.
	for _, c := range [][3]uint32{{64, 7, 3}, {64, 7, 0}, {64, 1 << 31, 2}, {2, 0, 3}, {64, fuzzOvfPages - 1, 2}, {64, 0, MaxChainPages + 1}} {
		head := InitColumnPage(make([]byte, 64))
		head.setChain(int(c[0]), c[1], c[2])
		add(head.Buf)
	}

	f.Fuzz(func(t *testing.T, buf, gaps []byte) {
		sel, pos := []int32{}, -1
		for _, g := range gaps {
			pos += 1 + int(g)
			sel = append(sel, int32(pos))
		}
		fuzzChain(t, ColumnPage{Buf: buf})
		whole := fuzzRead(t, ColumnPage{Buf: buf}, sel)
		if len(buf) < colHeaderSize {
			return
		}
		end := colHeaderSize + ColumnPage{Buf: buf}.payloadLen()
		if end > len(buf) {
			return
		}
		if cut := fuzzRead(t, ColumnPage{Buf: slices.Clone(buf[:end])}, sel); !reflect.DeepEqual(whole, cut) {
			t.Fatalf("the page reads differently without the %d bytes past its payload", len(buf)-end)
		}
	})
}
