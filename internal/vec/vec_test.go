package vec

import (
	"testing"

	"repro/internal/types"
)

func testSchema() types.Schema {
	return types.Schema{Cols: []types.Column{
		{Name: "i", Kind: types.KindInt},
		{Name: "f", Kind: types.KindFloat},
		{Name: "s", Kind: types.KindString},
		{Name: "d", Kind: types.KindDate},
	}}
}

func testRows(n int) []types.Row {
	words := []string{"alpha", "beta", "gamma"}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		r := types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(i) / 4),
			types.NewString(words[i%len(words)]),
			types.NewDate(int64(10000 + i)),
		}
		switch i % 5 {
		case 1:
			r[0] = types.Null
		case 2:
			r[2] = types.Null
		case 3:
			r[1] = types.Null
		}
		rows[i] = r
	}
	return rows
}

// TestFromRowsMaterializeRoundTrip checks that boxing a row set into typed
// slabs and flattening it back is lossless, including NULLs and the
// dictionary-coded string column.
func TestFromRowsMaterializeRoundTrip(t *testing.T) {
	rows := testRows(137)
	b := FromRows(testSchema(), rows)
	if b.N != len(rows) || b.Rows() != len(rows) {
		t.Fatalf("batch rows = %d/%d, want %d", b.N, b.Rows(), len(rows))
	}
	for c, form := range []Form{FormInt, FormFloat, FormStr, FormInt} {
		if b.Cols[c].Form != form {
			t.Fatalf("col %d form = %d, want %d (typed columns must not demote)", c, b.Cols[c].Form, form)
		}
	}
	if len(b.Cols[2].Dict.strs) != 3 {
		t.Fatalf("dict size = %d, want 3", len(b.Cols[2].Dict.strs))
	}
	out := b.Materialize(nil)
	if len(out) != len(rows) {
		t.Fatalf("materialized %d rows, want %d", len(out), len(rows))
	}
	for i := range rows {
		if out[i].String() != rows[i].String() {
			t.Fatalf("row %d: got %v, want %v", i, out[i], rows[i])
		}
	}
}

// TestSelectionSemantics: with Sel set, Rows/Index/ReadRow/Materialize see
// only the selected rows, in selection order.
func TestSelectionSemantics(t *testing.T) {
	rows := testRows(20)
	b := FromRows(testSchema(), rows)
	b.Sel = []int32{3, 3, 17, 0}
	if b.Rows() != 4 {
		t.Fatalf("selected rows = %d, want 4", b.Rows())
	}
	out := b.Materialize(nil)
	for k, want := range []int{3, 3, 17, 0} {
		if out[k].String() != rows[want].String() {
			t.Fatalf("selected row %d: got %v, want %v", k, out[k], rows[want])
		}
	}
}

// TestAppendDemotes: appending a kind-mismatched value demotes the column
// to boxed form without losing the already-appended typed values.
func TestAppendDemotes(t *testing.T) {
	var c Col
	c.Kind = types.KindInt
	c.Form = FormInt
	c.Append(types.NewInt(7))
	c.Append(types.Null)
	c.Append(types.NewString("oops"))
	if c.Form != FormBoxed {
		t.Fatalf("form = %d, want FormBoxed after kind mismatch", c.Form)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	want := []types.Value{types.NewInt(7), types.Null, types.NewString("oops")}
	for i, w := range want {
		if got := c.Value(i); got.String() != w.String() {
			t.Fatalf("value %d = %v, want %v", i, got, w)
		}
	}
}

// TestWireRoundTrip: EncodeRows→DecodeRows and EncodeBatch→DecodeRows are
// lossless, including NULL bitmaps, dictionary strings, and selections.
func TestWireRoundTrip(t *testing.T) {
	rows := testRows(67)
	t.Run("rows", func(t *testing.T) {
		got, err := DecodeRows(EncodeRows(nil, rows))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
		}
		for i := range rows {
			if got[i].String() != rows[i].String() {
				t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
			}
		}
	})
	t.Run("batch-window", func(t *testing.T) {
		b := FromRows(testSchema(), rows)
		got, err := DecodeRows(EncodeBatch(nil, b, 10, 30))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 20 {
			t.Fatalf("decoded %d rows, want 20", len(got))
		}
		for i := range got {
			if got[i].String() != rows[10+i].String() {
				t.Fatalf("row %d: got %v, want %v", i, got[i], rows[10+i])
			}
		}
	})
	t.Run("batch-selection", func(t *testing.T) {
		b := FromRows(testSchema(), rows)
		b.Sel = []int32{5, 1, 66, 5}
		got, err := DecodeRows(EncodeBatch(nil, b, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("decoded %d rows, want 2", len(got))
		}
		for k, want := range []int{1, 66} {
			if got[k].String() != rows[want].String() {
				t.Fatalf("selected row %d: got %v, want %v", k, got[k], rows[want])
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		got, err := DecodeRows(EncodeRows(nil, nil))
		if err != nil || got != nil {
			t.Fatalf("empty roundtrip = %v, %v", got, err)
		}
	})
}

// TestWireColumnarSmaller: the columnar encoding of a repetitive string
// column must beat the row codec's per-value strings — the dictionary is
// the point of sending columns.
func TestWireColumnarSmaller(t *testing.T) {
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString([]string{"DELIVER IN PERSON", "COLLECT COD", "TAKE BACK RETURN"}[i%3]),
		})
	}
	colBytes := len(EncodeRows(nil, rows))
	rowBytes := 0
	for _, r := range rows {
		rowBytes += len(types.AppendRow(nil, r))
	}
	if colBytes >= rowBytes/2 {
		t.Fatalf("columnar wire = %d bytes, row wire = %d: expected <1/2", colBytes, rowBytes)
	}
}

// TestDecodeRejectsCorrupt: truncated or garbage payloads must error, not
// panic or fabricate rows.
func TestDecodeRejectsCorrupt(t *testing.T) {
	good := EncodeRows(nil, testRows(10))
	for cut := 1; cut < len(good); cut += 7 {
		if _, err := DecodeRows(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := DecodeRows([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("garbage header decoded without error")
	}
}
