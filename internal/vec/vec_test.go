package vec

import (
	"bytes"
	"encoding/binary"
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

// TestDecodeRefusesOversizedHeader: a header whose row and column counts
// claim more cells than the message has bytes is refused before anything is
// sized by it — neither a makeslice panic nor an out-of-memory crash.
func TestDecodeRefusesOversizedHeader(t *testing.T) {
	header := func(rows, cols uint64, pad int) []byte {
		b := binary.AppendUvarint(nil, rows)
		b = binary.AppendUvarint(b, cols)
		return append(b, make([]byte, pad)...)
	}
	str := func(ndict, slen uint64) []byte {
		b := append(header(1, 1, 0), byte(FormStr), byte(types.KindString), 0)
		b = binary.AppendUvarint(b, ndict)
		return binary.AppendUvarint(b, slen)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"rows 2^62 x 2 cols", header(1<<62, 2, 10-len(header(1<<62, 2, 0)))},
		{"rows 2^40 x 2^30 cols", header(1<<40, 1<<30, 16)},
		{"rows x cols overflows", header(1<<33, 1<<33, 16)},
		{"zero-width rows 2^62", header(1<<62, 0, 0)},
		{"dictionary of 2^60 entries", str(1<<60, 1)},
		{"string of 2^63 bytes", str(1, 1<<63)},
	} {
		if rows, err := DecodeRows(c.data); err == nil {
			t.Errorf("%s: decoded %d rows without error", c.name, len(rows))
		}
	}
}

// fuzzRows derives a slab from seed bytes: the first byte picks the width,
// each column's first cell its usual kind, and every later byte one cell —
// mostly of the column's kind, sometimes NULL or another kind, so that every
// wire form (typed, with and without NULLs, dictionary, boxed) is reached.
func fuzzRows(seed []byte) []types.Row {
	if len(seed) == 0 {
		return nil
	}
	ncols := int(seed[0]%4) + 1
	nrows := min((len(seed)-1)/ncols, 64)
	words := []string{"", "FRANCE", "GERMANY", "lineitem!"}
	kinds := make([]byte, ncols)
	rows := make([]types.Row, nrows)
	for i := range rows {
		rows[i] = make(types.Row, ncols)
		for j := range rows[i] {
			b := seed[1+i*ncols+j]
			if i == 0 {
				kinds[j] = b % 5
			}
			kind := kinds[j]
			switch {
			case b&0xe0 == 0xe0:
				continue // NULL
			case b&0xe0 == 0xc0:
				kind = (kind + b) % 5
			}
			x := int64(int8(b)) << (b % 40)
			switch kind {
			case 0:
				rows[i][j] = types.NewInt(x)
			case 1:
				rows[i][j] = types.NewFloat(float64(x) / 7)
			case 2:
				rows[i][j] = types.NewString(words[b%4] + string(rune('a'+b%26)))
			case 3:
				rows[i][j] = types.NewDate(x)
			default:
				rows[i][j] = types.NewBool(b&1 == 1)
			}
		}
	}
	return rows
}

// FuzzDecodeRows checks the wire decoder on any input: it never panics, and
// whatever EncodeRows or EncodeBatch writes it decodes back to the same rows.
func FuzzDecodeRows(f *testing.F) {
	f.Add(EncodeRows(nil, testRows(9)))
	f.Add([]byte{3, 1, 2, 0xe1, 0xc7, 40, 0x91, 17, 255, 9})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeRows(data)
		rows := fuzzRows(data)
		same := func(form string, got []types.Row, err error) {
			if err != nil {
				t.Fatalf("%s: decode: %v", form, err)
			}
			if len(got) != len(rows) {
				t.Fatalf("%s: decoded %d rows, want %d", form, len(got), len(rows))
			}
			for i := range rows {
				if g, w := types.AppendRow(nil, got[i]), types.AppendRow(nil, rows[i]); !bytes.Equal(g, w) {
					t.Fatalf("%s: row %d = %v, want %v", form, i, got[i], rows[i])
				}
			}
		}
		got, err := DecodeRows(EncodeRows(nil, rows))
		same("EncodeRows", got, err)
		if len(rows) == 0 {
			return
		}
		sch := types.Schema{Cols: make([]types.Column, len(rows[0]))}
		for j := range sch.Cols {
			sch.Cols[j] = types.Column{Name: "c", Kind: types.KindNull}
			for _, r := range rows {
				if !r[j].IsNull() {
					sch.Cols[j].Kind = r[j].K
					break
				}
			}
		}
		got, err = DecodeRows(EncodeBatch(nil, FromRows(sch, rows), 0, len(rows)))
		same("EncodeBatch", got, err)
	})
}
