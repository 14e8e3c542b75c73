package types

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "VARCHAR", KindDate: "DATE", KindBool: "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"int", KindInt}, {"INTEGER", KindInt}, {"BigInt", KindInt},
		{"decimal", KindFloat}, {"DOUBLE", KindFloat},
		{"varchar", KindString}, {"char", KindString},
		{"date", KindDate}, {"bool", KindBool},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestCompareOrdering(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("abc"), NewString("abd"), -1},
		{NewString("abc"), NewString("abc"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{MustDate("2019-01-01"), MustDate("2019-06-01"), -1},
		// cross numeric kinds
		{NewInt(2), NewFloat(2.0), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(3.5), NewInt(3), 1},
	} {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashConsistency(t *testing.T) {
	if Hash(NewInt(3)) != Hash(NewFloat(3.0)) {
		t.Error("Hash(3) != Hash(3.0); numeric equality must imply hash equality")
	}
	if Hash(NewString("x")) == Hash(NewString("y")) {
		t.Error("distinct strings should (very likely) hash differently")
	}
	f := func(v int64) bool { return Hash(NewInt(v)) == Hash(NewInt(v)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashRow(t *testing.T) {
	r1 := Row{NewInt(1), NewString("a"), NewFloat(2.5)}
	r2 := Row{NewInt(1), NewString("a"), NewFloat(2.5)}
	if HashRow(r1, []int{0, 1, 2}) != HashRow(r2, []int{0, 1, 2}) {
		t.Error("equal rows must hash equal")
	}
	r3 := Row{NewInt(2), NewString("a"), NewFloat(2.5)}
	if HashRow(r1, []int{0}) == HashRow(r3, []int{0}) {
		t.Error("different keys should hash differently")
	}
	if HashRow(r1, []int{1, 2}) != HashRow(r3, []int{1, 2}) {
		t.Error("hash over identical projections must match")
	}
}

func TestDateRoundTrip(t *testing.T) {
	v := MustDate("2019-06-15")
	if got := v.String(); got != "2019-06-15" {
		t.Errorf("date round trip = %q", got)
	}
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Error("bad date should fail")
	}
}

func TestRowOps(t *testing.T) {
	r := Row{NewInt(1), NewInt(2), NewInt(3)}
	p := r.Project([]int{2, 0})
	if p[0].Int() != 3 || p[1].Int() != 1 {
		t.Errorf("Project = %v", p)
	}
	c := r.Concat(Row{NewInt(4)})
	if len(c) != 4 || c[3].Int() != 4 {
		t.Errorf("Concat = %v", c)
	}
	cl := r.Clone()
	cl[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone must not alias")
	}
}

// TestSchemaFind pins Find as an exact match: a name finds the column
// spelled exactly so, the first one when two are, and nothing else — no
// case fold and no qualifier dropped on either side. Column references are
// resolved to their schema names when a plan is built (plan's resolution
// table test covers how).
func TestSchemaFind(t *testing.T) {
	s := NewSchema(
		Column{Name: "l.l_orderkey", Kind: KindInt},
		Column{Name: "price", Kind: KindFloat},
		Column{Name: "o.price", Kind: KindFloat},
		Column{Name: "o.o_orderkey", Kind: KindInt},
		Column{Name: "straße", Kind: KindString},
		Column{Name: "price", Kind: KindFloat},
	)
	for _, tc := range []struct {
		name string
		want int
	}{
		{"l.l_orderkey", 0},
		{"price", 1}, // the first of two
		{"o.price", 2},
		{"o.o_orderkey", 3},
		{"straße", 4},
		{"L.L_ORDERKEY", -1}, // no case fold
		{"l_orderkey", -1},   // no bare name against a qualified column
		{"x.price", -1},      // no qualified name against a bare one
		{"o_orderkey", -1},
		{"strasse", -1},
		{"nope", -1},
		{"", -1},
	} {
		if got := s.Find(tc.name); got != tc.want {
			t.Errorf("Find(%q) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSchemaQualify(t *testing.T) {
	s := NewSchema(Column{Name: "a.x", Kind: KindInt}, Column{Name: "y", Kind: KindInt})
	q := s.Qualify("t")
	if q.Cols[0].Name != "t.x" || q.Cols[1].Name != "t.y" {
		t.Errorf("Qualify = %v", q)
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(KindInt, "42")
	if err != nil || v.Int() != 42 {
		t.Errorf("ParseValue int = %v, %v", v, err)
	}
	v, err = ParseValue(KindFloat, "3.25")
	if err != nil || v.Float() != 3.25 {
		t.Errorf("ParseValue float = %v, %v", v, err)
	}
	v, err = ParseValue(KindDate, "2020-02-29")
	if err != nil || v.String() != "2020-02-29" {
		t.Errorf("ParseValue date = %v, %v", v, err)
	}
	if v, _ := ParseValue(KindInt, "NULL"); !v.IsNull() {
		t.Error("NULL literal should parse as null")
	}
	if _, err := ParseValue(KindInt, "abc"); err == nil {
		t.Error("bad int should fail")
	}
}

func TestEncodeDecodeValue(t *testing.T) {
	vals := []Value{
		Null,
		NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(-2.75), NewFloat(math.Inf(1)),
		NewString(""), NewString("hello world"), NewString(string(make([]byte, 300))),
		NewBool(true), NewBool(false),
		MustDate("1992-01-02"), MustDate("2026-07-06"),
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		if len(buf) != EncodedSize(v) {
			t.Errorf("EncodedSize(%v) = %d, actual %d", v, EncodedSize(v), len(buf))
		}
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeValue(%v) consumed %d of %d", v, n, len(buf))
		}
		if Compare(got, v) != 0 {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestEncodeDecodeRow(t *testing.T) {
	r := Row{NewInt(7), NewString("abc"), Null, NewFloat(1.5), NewBool(true)}
	buf := AppendRow(nil, r)
	if len(buf) != RowEncodedSize(r) {
		t.Errorf("RowEncodedSize = %d, actual %d", RowEncodedSize(r), len(buf))
	}
	got, n, err := DecodeRow(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeRow: %v (n=%d, len=%d)", err, n, len(buf))
	}
	for i := range r {
		if Compare(got[i], r[i]) != 0 {
			t.Errorf("col %d: %v != %v", i, got[i], r[i])
		}
	}
}

func TestEncodeDecodeRowQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		r := Row{NewInt(i), NewFloat(fl), NewString(s), NewBool(b), Null}
		buf := AppendRow(nil, r)
		got, n, err := DecodeRow(buf)
		if err != nil || n != len(buf) || len(got) != len(r) {
			return false
		}
		for j := range r {
			if Compare(got[j], r[j]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeRowInto: on any input, DecodeRowInto under any mask succeeds
// exactly when DecodeRow does, and then fills the marked columns with
// DecodeRow's values, leaves the others as dst held them, and consumes the
// same bytes. So does the typed decode, DecodeRowCells: each marked cell
// boxes to DecodeRowInto's value, and an unmarked one stays as dst held it.
// Neither ever panics. The seeds are TestEncodeDecodeRowQuick's rows
// and a few truncations and corruptions of one.
func FuzzDecodeRowInto(f *testing.F) {
	for _, r := range []Row{
		{NewInt(7), NewFloat(-1.5), NewString("abc"), NewBool(true), Null},
		{NewInt(math.MinInt64), NewFloat(math.Inf(1)), NewString(""), NewBool(false), Null},
		{NewInt(1 << 40), NewFloat(0), NewString(strings.Repeat("x", 200)), NewBool(true), Null},
		{NewDate(9000), NewString("carefully final deposits")},
		{},
	} {
		enc := AppendRow(nil, r)
		f.Add(enc, uint64(0b10101))
		f.Add(enc, ^uint64(0))
		f.Add(enc[:len(enc)/2], uint64(0b01010))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint64(1)) // an arity of 2^32-1 over no bytes
	f.Add([]byte{2, byte(KindString), 0x80}, uint64(0))    // a string length cut short
	f.Fuzz(func(t *testing.T, b []byte, bits uint64) {
		mask := make([]bool, bits%67)
		for i := range mask {
			mask[i] = bits>>(i%64)&1 == 1
		}
		sentinel := NewString("untouched")
		dst := make(Row, bits%7)
		for i := range dst {
			dst[i] = sentinel
		}
		want, wantN, wantErr := DecodeRow(b)
		got, n, err := DecodeRowInto(b, mask, dst)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeRow err %v, DecodeRowInto err %v", wantErr, err)
		}
		if err != nil {
			if _, _, cerr := DecodeRowCells(b, mask, nil); cerr == nil {
				t.Fatalf("DecodeRow err %v, DecodeRowCells none", wantErr)
			}
			return
		}
		if n != wantN || len(got) != len(want) {
			t.Fatalf("consumed %d bytes into %d columns, DecodeRow %d into %d", n, len(got), wantN, len(want))
		}
		same := func(a, b Value) bool {
			return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
		}
		for i := range want {
			switch marked := i < len(mask) && mask[i]; {
			case marked && !same(got[i], want[i]):
				t.Fatalf("col %d: %v, DecodeRow %v", i, got[i], want[i])
			case !marked && len(want) <= len(dst) && !same(got[i], sentinel):
				t.Fatalf("unmarked col %d overwritten with %v", i, got[i])
			}
		}
		untouched := Cell{K: KindString, S: []byte("untouched")}
		cellDst := make([]Cell, len(dst))
		for i := range cellDst {
			cellDst[i] = untouched
		}
		cells, cn, err := DecodeRowCells(b, mask, cellDst)
		if err != nil || cn != wantN || len(cells) != len(want) {
			t.Fatalf("DecodeRowCells: %d bytes into %d cells, err %v; DecodeRowInto %d into %d", cn, len(cells), err, wantN, len(want))
		}
		for i := range want {
			switch marked := i < len(mask) && mask[i]; {
			case marked && !same(cells[i].Value(), got[i]):
				t.Fatalf("cell %d: %v, DecodeRowInto %v", i, cells[i].Value(), got[i])
			case !marked && len(want) <= len(cellDst) && !same(cells[i].Value(), sentinel):
				t.Fatalf("unmarked cell %d overwritten with %v", i, cells[i].Value())
			}
		}
	})
}

func TestDecodeValueErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty buffer should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindFloat), 1, 2}); err == nil {
		t.Error("short float should fail")
	}
	if _, _, err := DecodeValue([]byte{200}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 10, 'a'}); err == nil {
		t.Error("short string should fail")
	}
}
