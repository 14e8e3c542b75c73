package vec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/types"
)

// keyHashCols appends each value to a column of every form that can hold
// it — its kind's typed form, and a boxed column — and returns the columns.
func keyHashCols(vals []types.Value) []*Col {
	var cols []*Col
	for _, k := range []types.Kind{types.KindInt, types.KindDate, types.KindBool, types.KindFloat, types.KindString} {
		typed := New(types.Schema{Cols: []types.Column{{Name: "c", Kind: k}}}).Cols[0]
		boxed := &Col{Kind: k, Form: FormBoxed}
		for _, v := range vals {
			if v.K == k || v.IsNull() {
				typed.Append(v)
				boxed.Append(v)
			}
		}
		cols = append(cols, &typed, boxed)
	}
	return cols
}

// checkKeyHash fails unless HashCol of every position of every column is
// types.Hash of the value there.
func checkKeyHash(t *testing.T, cols []*Col) {
	t.Helper()
	for _, c := range cols {
		for i := 0; i < c.Len(); i++ {
			if got, want := HashCol(c, i), types.Hash(c.Value(i)); got != want {
				t.Fatalf("form %d kind %v: HashCol of %v = %x, types.Hash = %x", c.Form, c.Kind, c.Value(i), got, want)
			}
		}
	}
}

// TestKeyHashContract pins what every module that hashes a key relies on:
// the per-column hash is the boxed one in every form and for NULL, values
// that compare equal across kinds hash alike, and where a row is placed.
func TestKeyHashContract(t *testing.T) {
	vals := []types.Value{
		types.Null,
		types.NewInt(0), types.NewInt(3), types.NewInt(-1), types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.MustDate("1995-03-15"),
		types.NewBool(false), types.NewBool(true), {K: types.KindBool, I: 7},
		types.NewFloat(3), types.NewFloat(2.5), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1.5 + 1e-7),
		types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(0x1p63),
		types.NewString(""), types.NewString("FRANCE"), types.NewString("12345678"),
		types.NewString(strings.Repeat("lineitem", 3) + "xyz"),
	}
	checkKeyHash(t, keyHashCols(vals))

	for _, c := range []struct {
		name string
		a, b types.Value
	}{
		{"INT 3 and FLOAT 3.0", types.NewInt(3), types.NewFloat(3)},
		{"INT 0 and FLOAT -0.0", types.NewInt(0), types.NewFloat(math.Copysign(0, -1))},
		{"INT and DATE of one payload", types.NewInt(9204), types.Value{K: types.KindDate, I: 9204}},
		{"BOOL payloads 1 and 7", types.NewBool(true), types.Value{K: types.KindBool, I: 7}},
		{"two NULLs", types.Null, types.Value{}},
	} {
		if types.Hash(c.a) != types.Hash(c.b) {
			t.Errorf("%s hash apart", c.name)
		}
	}
	for _, c := range []struct {
		name string
		a, b types.Value
	}{
		{"FLOATs apart below the sixth decimal", types.NewFloat(0.5000001), types.NewFloat(0.5000002)},
		{"strings that differ in the last word", types.NewString("abcdefgh1"), types.NewString("abcdefgh2")},
		{"a string and its zero-padded self", types.NewString("ab"), types.NewString("ab\x00")},
	} {
		if types.Hash(c.a) == types.Hash(c.b) {
			t.Errorf("%s share a hash", c.name)
		}
	}

	// Placement: the worker of four a hash-partitioned row lands on. A change
	// here moves stored rows, so it must be made on purpose.
	for _, c := range []struct {
		row  types.Row
		cols []int
		want uint64
	}{
		{types.Row{types.NewInt(1)}, []int{0}, 0},
		{types.Row{types.NewInt(2)}, []int{0}, 3},
		{types.Row{types.NewInt(3)}, []int{0}, 2},
		{types.Row{types.NewInt(4)}, []int{0}, 1},
		{types.Row{types.NewInt(5)}, []int{0}, 1},
		{types.Row{types.NewInt(7)}, []int{0}, 1},
		{types.Row{types.NewInt(32)}, []int{0}, 1},
		{types.Row{types.NewString("FRANCE")}, []int{0}, 1},
		{types.Row{types.NewInt(7), types.NewInt(42)}, []int{0, 1}, 0},
		{types.Row{types.NewString("x"), types.MustDate("1995-03-15")}, []int{1, 0}, 0},
	} {
		if got := types.HashRow(c.row, c.cols) % 4; got != c.want {
			t.Errorf("HashRow(%v, %v) %% 4 = %d, want %d", c.row, c.cols, got, c.want)
		}
	}
}

// FuzzKeyHash checks the key hash's two equalities on any input: HashCol is
// types.Hash of the boxed value in every form, and an INT and a FLOAT of one
// integral value hash alike.
func FuzzKeyHash(f *testing.F) {
	f.Add(int64(3), 3.0, "FRANCE", int64(7))
	f.Add(int64(-1), 0.5000001, "", int64(0))
	f.Add(int64(math.MinInt64), 0x1p63, "lineitemlineitem!", int64(1))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, b int64) {
		checkKeyHash(t, keyHashCols([]types.Value{
			types.NewInt(i), {K: types.KindDate, I: i}, {K: types.KindBool, I: b},
			types.NewFloat(fl), types.NewString(s), types.Null,
		}))
		if x := float64(i); x < 0x1p63 && int64(x) == i && types.Hash(types.NewInt(i)) != types.Hash(types.NewFloat(x)) {
			t.Errorf("INT %d and FLOAT %v hash apart", i, x)
		}
		if fl >= -0x1p63 && fl < 0x1p63 && float64(int64(fl)) == fl && types.Hash(types.NewFloat(fl)) != types.Hash(types.NewInt(int64(fl))) {
			t.Errorf("FLOAT %v and INT %d hash apart", fl, int64(fl))
		}
		if (b != 0) != (types.Hash(types.Value{K: types.KindBool, I: b}) == types.Hash(types.NewBool(true))) {
			t.Errorf("BOOL payload %d: hashes as true = %v", b, b != 0)
		}
	})
}
