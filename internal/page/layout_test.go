package page

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"reflect"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// boxedBits is a types.Value with its float compared by bits, so NaN payloads
// and −0.0 compare exactly.
type boxedBits struct {
	K types.Kind
	I int64
	F uint64
	S string
}

func bitsOf(vals []types.Value) []boxedBits {
	out := make([]boxedBits, len(vals))
	for i, v := range vals {
		out[i] = boxedBits{v.K, v.I, math.Float64bits(v.F), v.S}
	}
	return out
}

// readings is everything the readers of a column page yield for one kind —
// the boxed ones, and the typed decoder over every cell and over each of
// selections' positions: compared before and after Seal with
// reflect.DeepEqual.
type readings struct {
	Values, Into []boxedBits
	Full         typedReading
	Sel          map[string]typedReading
}

// typedReading is one typed decoder call: the slab past its pre-filled
// prefix, as bits or strings, and the null bits over the whole slab.
type typedReading struct {
	Cells []uint64
	Strs  []string
	Nulls []bool
	Codes []byte // DictEntries' codes
	Err   string
}

// prefix is what every destination slab holds before a decoder appends to
// it, so a decoder that forgets the append offset is caught.
const prefix = 3

// typedRead runs the typed decoder for kind over sel (nil: every cell) into
// a slab pre-filled with prefix cells, the second of them NULL.
func typedRead(p ColumnPage, kind types.Kind, sel []int32) (r typedReading, err error) {
	var bm vec.Bitmap
	bm.Set(1)
	n := 0
	switch vec.FormFor(kind) {
	case vec.FormInt:
		dst := []int64{-1, -2, -3}
		dst, err = p.DecodeInt64sSel(kind, dst, &bm, sel)
		for _, v := range dst[prefix:] {
			r.Cells = append(r.Cells, uint64(v))
		}
		n = len(dst)
		if !reflect.DeepEqual(dst[:prefix], []int64{-1, -2, -3}) {
			return r, fmt.Errorf("slab prefix overwritten: %v", dst[:prefix])
		}
	case vec.FormFloat:
		dst := []float64{-1, -2, -3}
		dst, err = p.DecodeFloat64sSel(dst, &bm, sel)
		for _, v := range dst[prefix:] {
			r.Cells = append(r.Cells, math.Float64bits(v))
		}
		n = len(dst)
		if !reflect.DeepEqual(dst[:prefix], []float64{-1, -2, -3}) {
			return r, fmt.Errorf("slab prefix overwritten: %v", dst[:prefix])
		}
	default:
		dict := vec.NewDict()
		dict.Code("already interned")
		dst := []int32{0, 0, 0}
		dst, err = p.DecodeStringsSel(dict, dst, &bm, sel)
		for _, c := range dst[prefix:] {
			r.Strs = append(r.Strs, dict.Str(c))
		}
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		r.Nulls = append(r.Nulls, vec.GetBit(bm.Words, i))
	}
	if !vec.GetBit(bm.Words, 1) || vec.GetBit(bm.Words, 0) || vec.GetBit(bm.Words, 2) {
		return r, errors.New("null bits under the slab prefix changed")
	}
	for i := n; i < n+70; i++ {
		if vec.GetBit(bm.Words, i) {
			return r, fmt.Errorf("null bit %d set beyond the slab (%d cells)", i, n)
		}
	}
	if err != nil {
		r.Err = err.Error()
		if n != prefix {
			return r, fmt.Errorf("decoder failed (%v) but left %d cells appended", err, n-prefix)
		}
	}
	return r, nil
}

// dictRead runs DictEntries for a column of kind into a column pre-filled
// with prefix cells, the second of them NULL: the reading holds the entries
// appended, and the codes.
func dictRead(p ColumnPage, kind types.Kind) (r typedReading, err error) {
	c := vec.Col{Kind: kind, Form: vec.FormFor(kind), Nulls: vec.SetBit(nil, 1)}
	switch c.Form {
	case vec.FormInt:
		c.I = []int64{-1, -2, -3}
	case vec.FormFloat:
		c.F = []float64{-1, -2, -3}
	default:
		c.Dict = vec.NewDict()
		c.Dict.Code("already interned")
		c.Codes = []int32{0, 0, 0}
	}
	codes, derr := p.DictEntries(&c)
	n := c.Len()
	for i := prefix; i < n; i++ {
		switch c.Form {
		case vec.FormInt:
			r.Cells = append(r.Cells, uint64(c.I[i]))
		case vec.FormFloat:
			r.Cells = append(r.Cells, math.Float64bits(c.F[i]))
		default:
			r.Strs = append(r.Strs, c.Dict.Str(c.Codes[i]))
		}
	}
	for i := 0; i < n; i++ {
		r.Nulls = append(r.Nulls, vec.GetBit(c.Nulls, i))
	}
	if !vec.GetBit(c.Nulls, 1) || vec.GetBit(c.Nulls, 0) || vec.GetBit(c.Nulls, 2) {
		return r, errors.New("null bits under the slab prefix changed")
	}
	for i := n; i < n+70; i++ {
		if vec.GetBit(c.Nulls, i) {
			return r, fmt.Errorf("null bit %d set beyond the slab (%d cells)", i, n)
		}
	}
	r.Codes = codes
	if derr != nil {
		r.Err = derr.Error()
		if n != prefix || codes != nil {
			return r, fmt.Errorf("DictEntries failed (%v) but left %d entries appended, or codes", derr, n-prefix)
		}
	}
	if codes == nil && n != prefix {
		return r, fmt.Errorf("DictEntries returned no codes but appended %d entries", n-prefix)
	}
	return r, nil
}

func selections(n int) map[string][]int32 {
	sels := map[string][]int32{"empty": {}, "first": {0}, "last": {int32(n - 1)}, "every-other": nil, "all": nil}
	for i := 0; i < n; i++ {
		sels["all"] = append(sels["all"], int32(i))
		if i%2 == 0 {
			sels["every-other"] = append(sels["every-other"], int32(i))
		}
	}
	return sels
}

func readEverything(t *testing.T, p ColumnPage, kind types.Kind) readings {
	t.Helper()
	vals, err := p.Values()
	if err != nil {
		t.Fatalf("Values: %v", err)
	}
	r := readings{Values: bitsOf(vals), Into: bitsOf(boxedDecode(t, p)), Sel: map[string]typedReading{}}
	if r.Full, err = typedRead(p, kind, nil); err != nil {
		t.Fatalf("full typed decode: %v", err)
	}
	for name, sel := range selections(p.NumValues()) {
		if r.Sel[name], err = typedRead(p, kind, sel); err != nil {
			t.Fatalf("Sel decode (%s): %v", name, err)
		}
	}
	// A nil selection is every cell; an empty one, none.
	if !reflect.DeepEqual(r.Full, r.Sel["all"]) {
		t.Fatalf("a nil selection reads %+v, a selection of every cell %+v", r.Full, r.Sel["all"])
	}
	if e := r.Sel["empty"]; e.Err != "" || len(e.Nulls) != prefix {
		t.Fatalf("an empty selection appended %d cells (err %q)", len(e.Nulls)-prefix, e.Err)
	}
	return r
}

// wantLayout computes, from the values alone, the layout Seal must choose:
// the smaller of the fixed and dict candidates (fixed on a tie) when it is
// smaller than the tagged stream and the non-NULL cells share one kind.
func wantLayout(vals []types.Value) int {
	tagged, nNull := 0, 0
	distinct := map[string]bool{}
	entries := 0
	kind := types.KindNull
	var lo, hi int64
	for _, v := range vals {
		tagged += types.EncodedSize(v)
		enc := string(types.AppendValue(nil, v))
		if !distinct[enc] {
			distinct[enc] = true
			entries += len(enc)
		}
		if v.K == types.KindNull {
			nNull++
			continue
		}
		switch {
		case kind == types.KindNull:
			kind, lo, hi = v.K, v.I, v.I
		case v.K != kind:
			return layoutTagged
		}
		lo, hi = min(lo, v.I), max(hi, v.I)
	}
	if kind == types.KindNull {
		return layoutTagged
	}
	best, size := layoutTagged, tagged
	if w := fixedWidth(kind, lo, hi); w != 0 {
		fixed := fixedHeaderSize + len(vals)*w
		if nNull > 0 {
			fixed += (len(vals) + 7) / 8
		}
		if fixed < size {
			best, size = layoutFixed, fixed
		}
	}
	if len(distinct) <= maxDictEntries && 2+entries+len(vals) < size {
		best = layoutDict
	}
	return best
}

// TestSealRoundTrip: over kinds × NULL densities × value shapes, a sealed
// page yields through every reader exactly what it yielded before Seal, sits
// in the smallest layout, refuses appends, and answers a decoder of the wrong
// kind with ErrKindMismatch and nothing appended.
func TestSealRoundTrip(t *testing.T) {
	type shape struct {
		name  string
		n     int
		width int // nonzero: the page must seal fixed, at this cell width
		gen   map[types.Kind]func(i int) types.Value
	}
	ints := func(f func(i int) int64) map[types.Kind]func(int) types.Value {
		return map[types.Kind]func(int) types.Value{
			types.KindInt:  func(i int) types.Value { return types.NewInt(f(i)) },
			types.KindDate: func(i int) types.Value { return types.NewDate(f(i)) },
		}
	}
	// spread steps evenly from lo to lo+span, both on the page: min(n, span+1)
	// distinct values, too many for the dict layout to be the smaller one.
	const n = 600
	spread := func(lo int64, span uint64) map[types.Kind]func(int) types.Value {
		return ints(func(i int) int64 {
			hi, low := bits.Mul64(span, uint64(i%n))
			step, _ := bits.Div64(hi, low, n-1)
			return int64(uint64(lo) + step)
		})
	}
	all := func(f func(k types.Kind, i int) types.Value) map[types.Kind]func(int) types.Value {
		m := map[types.Kind]func(int) types.Value{}
		for _, k := range []types.Kind{types.KindInt, types.KindDate, types.KindBool, types.KindFloat, types.KindString} {
			k := k
			m[k] = func(i int) types.Value { return f(k, i) }
		}
		return m
	}
	// nth is a value of kind k that is distinct for each i below mod.
	nth := func(mod int) func(k types.Kind, i int) types.Value {
		return func(k types.Kind, i int) types.Value {
			j := int64(i % mod)
			switch k {
			case types.KindInt:
				return types.NewInt(j*j*7919 - 1000)
			case types.KindDate:
				return types.NewDate(9000 + j)
			case types.KindBool:
				return types.NewBool(j%2 == 0)
			case types.KindFloat:
				return types.NewFloat(float64(j) * 0.01)
			default:
				return types.NewString(fmt.Sprintf("v%d", j))
			}
		}
	}
	nan := func(payload uint64) types.Value {
		return types.NewFloat(math.Float64frombits(0x7FF8000000000000 | payload))
	}
	shapes := []shape{
		{"constant", n, 0, all(nth(1))},
		{"100-distinct", n, 0, all(nth(100))},
		{"256-distinct", n, 0, all(nth(256))},
		{"300-distinct", n, 0, all(nth(300))},
		{"one-value", 1, 0, all(nth(1))},
		{"int64-min-and-max", n, 0, ints(func(i int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}[i%5]
		})},
		{"range-255", n, 1, spread(-100, 255)},
		{"range-256", n, 2, spread(-100, 256)},
		{"range-65535", n, 2, spread(1<<40, 65535)},
		{"range-65536", n, 4, spread(1<<40, 65536)},
		{"range-2^32-1", n, 4, spread(-1<<62, 1<<32-1)},
		{"range-2^32", n, 8, spread(-1<<62, 1<<32)},
		{"range-all-of-int64", n, 8, spread(math.MinInt64, math.MaxUint64)},
		{"signed-zeros", n, 0, map[types.Kind]func(int) types.Value{types.KindFloat: func(i int) types.Value {
			return types.NewFloat([]float64{0, math.Copysign(0, -1), 1.5}[i%3])
		}}},
		{"nan-payloads", n, 0, map[types.Kind]func(int) types.Value{types.KindFloat: func(i int) types.Value {
			return []types.Value{nan(0), nan(1), nan(0xBEEF), types.NewFloat(math.Inf(-1)), types.NewFloat(2)}[i%5]
		}}},
		{"nan-payloads-wide", n, 0, map[types.Kind]func(int) types.Value{types.KindFloat: func(i int) types.Value {
			return nan(uint64(i))
		}}},
		{"empty-strings", n, 0, map[types.Kind]func(int) types.Value{types.KindString: func(i int) types.Value {
			return types.NewString([]string{"", "", "x", ""}[i%4])
		}}},
	}
	wrongKind := map[types.Kind]types.Kind{
		types.KindInt: types.KindDate, types.KindDate: types.KindBool, types.KindBool: types.KindInt,
		types.KindFloat: types.KindString, types.KindString: types.KindFloat,
	}
	layouts := map[int]int{}
	for _, sh := range shapes {
		for kind, gen := range sh.gen {
			for _, density := range []string{"none", "some", "all"} {
				t.Run(fmt.Sprintf("%s/%v/nulls=%s", sh.name, kind, density), func(t *testing.T) {
					vals := make([]types.Value, sh.n)
					for i := range vals {
						switch {
						case density == "all", density == "some" && (i%7 == 3 || i%64 == 63):
							vals[i] = types.Null
						default:
							vals[i] = gen(i)
						}
					}
					p := buildColPage(t, 16<<10, vals, false)
					before := readEverything(t, p, kind)
					if !reflect.DeepEqual(before.Values, bitsOf(vals)) {
						t.Fatal("the unsealed page does not hold what was appended")
					}
					tagged := p.payloadLen()
					sealed := p.Seal()
					layout := int(p.Buf[colOffFlags] >> 1)
					layouts[layout]++
					if want := wantLayout(vals); layout != want {
						t.Fatalf("sealed into layout %d, want %d (the smallest candidate)", layout, want)
					}
					if sh.width != 0 && density != "all" && (layout != layoutFixed || int(p.Buf[colHeaderSize+1]) != sh.width) {
						t.Fatalf("sealed into layout %d, cell width %d; want fixed at width %d", layout, p.Buf[colHeaderSize+1], sh.width)
					}
					if layout != layoutTagged && (!sealed || p.payloadLen() >= tagged) {
						t.Fatalf("typed layout %d: Seal reported %v, payload %d → %d", layout, sealed, tagged, p.payloadLen())
					}
					if sealed && p.Append(types.NewInt(1)) {
						t.Fatal("sealed page accepted an append")
					}
					for i, b := range p.Buf[colHeaderSize+p.payloadLen():] {
						if b != 0 {
							t.Fatalf("byte %d past the sealed payload is %#x, want the freed bytes zeroed", i, b)
						}
					}
					if after := readEverything(t, p, kind); !reflect.DeepEqual(before, after) {
						t.Fatalf("sealed page (layout %d) reads differently:\nbefore %+v\nafter  %+v", layout, before, after)
					}
					if density == "all" {
						return // a page of NULLs fits every kind
					}
					for _, sel := range [][]int32{nil, {0}} {
						r, err := typedRead(p, wrongKind[kind], sel)
						if err != nil {
							t.Fatalf("decoder of the wrong kind (sel=%v): %v", sel, err)
						}
						if r.Err != ErrKindMismatch.Error() {
							t.Fatalf("decoder of the wrong kind (sel=%v): err %q, want ErrKindMismatch", sel, r.Err)
						}
					}
				})
			}
		}
	}
	if layouts[layoutFixed] == 0 || layouts[layoutDict] == 0 || layouts[layoutTagged] == 0 {
		t.Fatalf("the shapes did not reach every layout: %v", layouts)
	}
}

// TestSealKeepsMixedKindsTagged: a page whose cells mix kinds has no typed
// layout; it stays tagged (Huffman-packed here, being repetitive) and still
// reads back value for value.
func TestSealKeepsMixedKindsTagged(t *testing.T) {
	var vals []types.Value
	for i := 0; i < 300; i++ {
		vals = append(vals, types.NewInt(int64(i%3)), types.NewString("mixed"), types.Null)
	}
	p := buildColPage(t, 16<<10, vals, true)
	if p.Buf[colOffFlags] != flagPacked {
		t.Fatalf("flags %#x, want a Huffman-packed tagged page", p.Buf[colOffFlags])
	}
	if got := boxedDecode(t, p); !reflect.DeepEqual(bitsOf(got), bitsOf(vals)) {
		t.Fatal("mixed-kind page reads differently after Seal")
	}
	if _, err := p.DecodeInt64s(types.KindInt, nil, &vec.Bitmap{}); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("typed decode of a mixed page: %v, want ErrKindMismatch", err)
	}
}

// parentFixtureValues are the values of the pages under testdata/, which the
// commit before the typed layouts wrote (InitColumnPage on 4096 bytes, these
// appended in order, then Seal): parent_strings.page and parent_floats.page
// came out Huffman-packed (flags 1), parent_ints.page did not shrink and
// stayed plain (flags 0).
func parentFixtureValues(name string) []types.Value {
	var vals []types.Value
	for i := 0; i < 120; i++ {
		switch {
		case i%11 == 7:
			vals = append(vals, types.Null)
		case name == "strings":
			vals = append(vals, types.NewString(fmt.Sprintf("DELIVER IN PERSON %d", i%5)))
		case name == "floats":
			vals = append(vals, types.NewFloat(float64(i%9)/100))
		default:
			vals = append(vals, types.NewInt(int64(uint64(i+1)*0x9E3779B97F4A7C15)))
		}
	}
	return vals
}

// TestParentWrittenPagesStillDecode: pages in the two forms the parent commit
// wrote — byte-for-byte fixtures of its output, and the same pages rebuilt by
// the retained tagged + Huffman path — decode unchanged through the boxed and
// the typed readers.
func TestParentWrittenPagesStillDecode(t *testing.T) {
	for name, tc := range map[string]struct {
		kind  types.Kind
		flags byte
	}{"strings": {types.KindString, flagPacked}, "floats": {types.KindFloat, flagPacked}, "ints": {types.KindInt, 0}} {
		t.Run(name, func(t *testing.T) {
			buf, err := os.ReadFile("testdata/parent_" + name + ".page")
			if err != nil {
				t.Fatal(err)
			}
			fixture, err := AsColumnPage(buf)
			if err != nil {
				t.Fatal(err)
			}
			if fixture.Buf[colOffFlags] != tc.flags {
				t.Fatalf("fixture flags %#x, want %#x", fixture.Buf[colOffFlags], tc.flags)
			}
			vals := parentFixtureValues(name)
			plain := buildColPage(t, 4096, vals, false)
			want := readEverything(t, plain, tc.kind)
			if !reflect.DeepEqual(want.Values, bitsOf(vals)) {
				t.Fatal("plain page does not hold the fixture's values")
			}
			if got := readEverything(t, fixture, tc.kind); !reflect.DeepEqual(got, want) {
				t.Fatalf("fixture reads differently from the values it was written with:\ngot  %+v\nwant %+v", got, want)
			}
			if tc.flags == flagPacked {
				// The retained path, driven directly: what Seal still does to
				// a page that has no typed layout.
				packed := buildColPage(t, 4096, vals, false)
				if !packHuffman(packed) || packed.Buf[colOffFlags] != flagPacked {
					t.Fatal("the tagged stream did not Huffman-pack")
				}
				if got := readEverything(t, packed, tc.kind); !reflect.DeepEqual(got, want) {
					t.Fatal("Huffman-packed tagged page reads differently")
				}
			}
			if fixture.Append(types.Null) != (tc.flags == 0) {
				t.Fatal("only the unsealed fixture may accept appends")
			}
		})
	}
}

// TestAnyAtLeast checks the word-at-a-time code check against a byte loop:
// for every entry count and every byte value, one byte at each offset of a
// 17-byte run (two words and a tail) among fillers of 0 or of the largest
// good code.
func TestAnyAtLeast(t *testing.T) {
	b := make([]byte, 17)
	for d := 1; d < 256; d++ {
		for _, fill := range []byte{0, byte(d - 1)} {
			for v := 0; v < 256; v++ {
				for at := range b {
					for i := range b {
						b[i] = fill
					}
					b[at] = byte(v)
					if got, want := anyAtLeast(b, d), v >= d; got != want {
						t.Fatalf("d=%d: byte %d at %d among %ds: %v, want %v", d, v, at, fill, got, want)
					}
				}
			}
		}
	}
}
