package page

import (
	"encoding/binary"
	"errors"
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
//
// A fourth flags value marks a chain head (openset.go): a column with no
// typed layout whose tagged stream outgrew the page keeps its cells in a run
// of overflow pages, each a self-contained column page, and its own page of
// the set holds only the set's row count and the run's (start, count).
type ColumnPage struct {
	Buf []byte
}

const (
	colOffFlags   = headerSize     // 1 byte: bit 0 = Huffman-packed (tagged layout only), bits 1–2 = layout
	colOffPayLen  = headerSize + 1 // uint32 payload byte length
	colHeaderSize = headerSize + 5

	chainPayload = 8 // a chain head's payload: start, count (uint32 each)
)

// MaxChainPages bounds a chain, and with it what a scan pins to read one
// column of one set.
const MaxChainPages = 16

// Column-page layouts, bits 1–2 of the flags byte.
const (
	layoutTagged = 0 // types.AppendValue cells back to back
	layoutFixed  = 1 // frame-of-reference fixed width (layout.go)
	layoutDict   = 2 // page dictionary + one-byte codes (layout.go)
	layoutChain  = 3 // no cells here: (start, count) of the overflow pages that hold them

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
// an intermediate slice: the boxed reader Values and the tests' reference
// decode are built on it. Decoding stops early when fn returns false.
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

// ChainHead reports whether the page is a chain head.
func (p ColumnPage) ChainHead() bool {
	return len(p.Buf) >= colHeaderSize && p.Buf[colOffFlags] == layoutChain<<1
}

// setChain makes a freshly initialised page the head of the chain of count
// overflow pages from start, for a set of rows rows.
func (p ColumnPage) setChain(rows int, start, count uint32) {
	setCount(p.Buf, uint32(rows))
	p.Buf[colOffFlags] = layoutChain << 1
	p.setPayloadLen(chainPayload)
	binary.LittleEndian.PutUint32(p.Buf[colHeaderSize:], start)
	binary.LittleEndian.PutUint32(p.Buf[colHeaderSize+4:], count)
}

// Chain returns a chain head's run of overflow pages, checked against the
// overflow file's page count: a corrupt head is an error, never a fetch past
// the file or of more than MaxChainPages pages.
func (p ColumnPage) Chain(filePages uint32) (start, count uint32, err error) {
	if !p.ChainHead() || len(p.Buf) < colHeaderSize+chainPayload || p.payloadLen() != chainPayload {
		return 0, 0, errors.New("page: malformed chain head")
	}
	start = binary.LittleEndian.Uint32(p.Buf[colHeaderSize:])
	count = binary.LittleEndian.Uint32(p.Buf[colHeaderSize+4:])
	switch {
	case count == 0 || count > MaxChainPages || uint64(count) > uint64(p.NumValues()):
		return 0, 0, fmt.Errorf("page: chain of %d pages for %d values (at most %d)", count, p.NumValues(), MaxChainPages)
	case uint64(start)+uint64(count) > uint64(filePages):
		return 0, 0, fmt.Errorf("page: chain pages [%d, %d) beyond the overflow file's %d", start, uint64(start)+uint64(count), filePages)
	}
	return start, count, nil
}

// PageSet groups the n column pages of one run of rows, every page holding
// the same value count. A scan that reads some of a table's columns holds a
// set with only those pages populated; the others are the zero ColumnPage.
// Chains, when non-nil, is indexed like Pages: the chain pages, in order, of
// each column whose page is a chain head.
type PageSet struct {
	Pages  []ColumnPage
	Chains [][]ColumnPage
}

// Chunks returns the pages that hold column ci's cells, in row order: its
// chain, or its one page.
func (ps PageSet) Chunks(ci int) []ColumnPage {
	if ps.Chains != nil && ps.Chains[ci] != nil {
		return ps.Chains[ci]
	}
	return ps.Pages[ci : ci+1 : ci+1]
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
	n := ps.NumRows()
	cols := make([][]types.Value, len(ps.Pages))
	for ci := range ps.Pages {
		for _, p := range ps.Chunks(ci) {
			vals, err := p.Values()
			if err != nil {
				return nil, err
			}
			cols[ci] = append(cols[ci], vals...)
		}
		if len(cols[ci]) != n {
			return nil, fmt.Errorf("page: column %d holds %d values in a set of %d rows", ci, len(cols[ci]), n)
		}
	}
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
