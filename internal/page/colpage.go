package page

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// ColumnPage stores the values of one column for a run of rows, PAX-style.
// A page set for a table with n columns is n consecutive column pages, each
// holding the same number of values, so row k of the set is reconstructed by
// reading value k from each page (Section III, "Row and Column Storage").
//
// Values are appended as their standard binary encoding (the tagged
// stream). Seal rewrites a full page into the smallest of three layouts and
// records the choice in the flags byte after the common header: a page whose
// non-NULL cells share one kind becomes fixed-width or dictionary-coded
// (layout.go) when that is smaller than the tagged stream; any other page —
// high-cardinality strings, mixed kinds, all NULL — stays tagged and is
// Huffman-packed when that shrinks it. Every reader dispatches on the flags
// byte, so a page written before the typed layouts existed (layout bits
// zero) reads back unchanged.
type ColumnPage struct {
	Buf []byte
}

const (
	colOffFlags   = headerSize     // 1 byte: bit 0 = Huffman-packed (tagged layout only), bits 1–2 = layout
	colOffPayLen  = headerSize + 1 // uint32 payload byte length
	colHeaderSize = headerSize + 5
)

// Column-page layouts, bits 1–2 of the flags byte.
const (
	layoutTagged = 0 // types.AppendValue cells back to back
	layoutFixed  = 1 // frame-of-reference fixed width (layout.go)
	layoutDict   = 2 // page dictionary + one-byte codes (layout.go)

	flagPacked = 1 // bit 0: the tagged stream is Huffman-packed
)

// InitColumnPage formats buf as an empty column page.
func InitColumnPage(buf []byte) ColumnPage {
	for i := range buf[:colHeaderSize] {
		buf[i] = 0
	}
	setType(buf, TypeColumn)
	setCount(buf, 0)
	return ColumnPage{Buf: buf}
}

// AsColumnPage wraps an existing formatted buffer.
func AsColumnPage(buf []byte) (ColumnPage, error) {
	if TypeOf(buf) != TypeColumn {
		return ColumnPage{}, fmt.Errorf("page: not a column page (type %d)", TypeOf(buf))
	}
	return ColumnPage{Buf: buf}, nil
}

// NumValues returns the number of values stored.
func (p ColumnPage) NumValues() int { return int(countOf(p.Buf)) }

func (p ColumnPage) payloadLen() int {
	return int(binary.LittleEndian.Uint32(p.Buf[colOffPayLen:]))
}

func (p ColumnPage) setPayloadLen(n int) {
	binary.LittleEndian.PutUint32(p.Buf[colOffPayLen:], uint32(n))
}

// sealed reports whether Seal rewrote the page (any layout or packing):
// sealed pages are read-only.
func (p ColumnPage) sealed() bool { return p.Buf[colOffFlags] != 0 }

// FreeSpace returns the bytes available for appending values.
func (p ColumnPage) FreeSpace() int {
	return len(p.Buf) - colHeaderSize - p.payloadLen()
}

// Append adds a value. Returns false if the page is full or sealed.
func (p ColumnPage) Append(v types.Value) bool {
	if p.sealed() {
		return false
	}
	sz := types.EncodedSize(v)
	if sz > p.FreeSpace() {
		return false
	}
	off := colHeaderSize + p.payloadLen()
	types.AppendValue(p.Buf[off:off], v)
	p.setPayloadLen(p.payloadLen() + sz)
	setCount(p.Buf, countOf(p.Buf)+1)
	return true
}

// Values decodes every value on the page.
func (p ColumnPage) Values() ([]types.Value, error) {
	var vals []types.Value
	err := p.DecodeInto(func(v types.Value) bool {
		vals = append(vals, v)
		return true
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// DecodeInto streams every value on the page through fn without building
// an intermediate slice — the boxed fallback of the vectorized scan appends
// them into column slabs. Decoding stops early when fn returns false.
func (p ColumnPage) DecodeInto(fn func(types.Value) bool) error {
	layout, pay, err := p.body()
	if err != nil {
		return err
	}
	n := p.NumValues()
	switch layout {
	case layoutFixed:
		return fixedBoxed(pay, n, fn)
	case layoutDict:
		return dictBoxed(pay, n, fn)
	}
	pos := 0
	for i := 0; i < n; i++ {
		v, m, err := types.DecodeValue(pay[pos:])
		if err != nil {
			return fmt.Errorf("page: column value %d: %w", i, err)
		}
		if !fn(v) {
			return nil
		}
		pos += m
	}
	return nil
}

// Seal rewrites the page in place into its smallest layout (see the type
// comment; the choice is a function of the page's values alone) and zeroes
// the bytes that frees. Sealed pages are read-only. Reports whether the page
// was rewritten: false leaves it tagged, unpacked and appendable.
func (p ColumnPage) Seal() bool {
	var s sealer
	return s.seal(p)
}

// PageSet groups n in-memory column pages that are filled together so every
// page keeps the same value count. A scan that reads some of a table's
// columns holds a set with only those pages populated; the others are the
// zero ColumnPage.
type PageSet struct {
	Pages []ColumnPage
}

// NewPageSet formats a page set over the provided buffers, one per column.
func NewPageSet(bufs [][]byte) PageSet {
	ps := PageSet{Pages: make([]ColumnPage, len(bufs))}
	for i, b := range bufs {
		ps.Pages[i] = InitColumnPage(b)
	}
	return ps
}

// AppendRow adds one row across the set; all columns succeed or none do.
func (ps PageSet) AppendRow(r types.Row) bool {
	if len(r) != len(ps.Pages) {
		return false
	}
	for i, v := range r {
		if types.EncodedSize(v) > ps.Pages[i].FreeSpace() {
			return false
		}
	}
	for i, v := range r {
		if !ps.Pages[i].Append(v) {
			// Cannot happen given the space check above; guard anyway.
			panic("page: page set append lost space between check and write")
		}
	}
	return true
}

// NumRows returns the common value count.
func (ps PageSet) NumRows() int {
	for _, p := range ps.Pages {
		if p.Buf != nil {
			return p.NumValues()
		}
	}
	return 0
}

// Rows materializes all rows in the set.
func (ps PageSet) Rows() ([]types.Row, error) {
	cols := make([][]types.Value, len(ps.Pages))
	for i, p := range ps.Pages {
		vals, err := p.Values()
		if err != nil {
			return nil, err
		}
		cols[i] = vals
	}
	n := ps.NumRows()
	rows := make([]types.Row, n)
	for r := 0; r < n; r++ {
		row := make(types.Row, len(cols))
		for c := range cols {
			row[c] = cols[c][r]
		}
		rows[r] = row
	}
	return rows, nil
}

// Seal seals every page in the set.
func (ps PageSet) Seal() {
	var s sealer // one scratch for the whole set
	for _, p := range ps.Pages {
		s.seal(p)
	}
}
