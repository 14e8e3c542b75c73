package page

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress"
	"repro/internal/types"
)

// ColumnPage stores the values of one column for a run of rows, PAX-style.
// A page set for a table with n columns is n consecutive column pages, each
// holding the same number of values, so row k of the set is reconstructed by
// reading value k from each page (Section III, "Row and Column Storage").
//
// Values are appended as their standard binary encoding. String pages can be
// packed with Huffman coding when sealed; the flag byte after the header
// records whether the payload is Huffman-packed.
type ColumnPage struct {
	Buf []byte
}

const (
	colOffFlags   = headerSize     // 1 byte: bit0 = huffman packed
	colOffPayLen  = headerSize + 1 // uint32 payload byte length
	colHeaderSize = headerSize + 5
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

func (p ColumnPage) packed() bool { return p.Buf[colOffFlags]&1 != 0 }

// FreeSpace returns the bytes available for appending values.
func (p ColumnPage) FreeSpace() int {
	return len(p.Buf) - colHeaderSize - p.payloadLen()
}

// Append adds a value. Returns false if the page is full or sealed.
func (p ColumnPage) Append(v types.Value) bool {
	if p.packed() {
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
	payload, err := p.payload()
	if err != nil {
		return nil, err
	}
	n := p.NumValues()
	vals := make([]types.Value, 0, n)
	pos := 0
	for i := 0; i < n; i++ {
		v, m, err := types.DecodeValue(payload[pos:])
		if err != nil {
			return nil, fmt.Errorf("page: column value %d: %w", i, err)
		}
		vals = append(vals, v)
		pos += m
	}
	return vals, nil
}

// DecodeInto streams every value on the page through fn without building
// an intermediate slice — the vectorized scan path appends payloads
// straight into typed column slabs. Decoding stops early when fn returns
// false.
func (p ColumnPage) DecodeInto(fn func(types.Value) bool) error {
	payload, err := p.payload()
	if err != nil {
		return err
	}
	n := p.NumValues()
	pos := 0
	for i := 0; i < n; i++ {
		v, m, err := types.DecodeValue(payload[pos:])
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

// Seal Huffman-packs the payload in place if that shrinks it. Sealed pages
// are read-only. Reports whether packing was applied.
func (p ColumnPage) Seal() bool {
	if p.packed() || p.NumValues() == 0 {
		return false
	}
	payload := p.Buf[colHeaderSize : colHeaderSize+p.payloadLen()]
	packedPayload := compress.CompressHuffman(payload)
	if len(packedPayload) >= len(payload) {
		return false
	}
	copy(p.Buf[colHeaderSize:], packedPayload)
	p.setPayloadLen(len(packedPayload))
	p.Buf[colOffFlags] |= 1
	return true
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
	for _, p := range ps.Pages {
		p.Seal()
	}
}
