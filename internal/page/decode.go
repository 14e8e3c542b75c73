package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/types"
	"repro/internal/vec"
)

// Typed batch decode: these decoders append a column page's cells — those
// at the positions of a selection, or every one for a nil selection —
// straight into vec slabs: no types.Value boxing, no per-cell closure. Each
// dispatches on the page's layout: a fixed or dict page goes to the
// position-addressed readers in layout.go; a tagged page (the appended
// stream of an open set, or a sealed page with no typed layout,
// Huffman-unpacked first) is walked here, cell by cell, stepping over
// unselected cells by their lengths. They are strict about kinds: a selected
// cell — or a typed page — whose kind is not the expected one (or NULL)
// returns ErrKindMismatch with the destination rolled back, and the caller
// reruns the page through the boxed DecodeInto path, which preserves the
// mixed-kind demotion semantics of Col.Append.
//
// All decoders validate the payload length against the page buffer and
// every cell against the payload before reading, so a corrupted page
// yields an error — never a panic or an over-read (fuzzed in
// decode_test.go).

// ErrKindMismatch reports that a typed decoder met a cell whose kind has
// no place in the requested slab. The destination slab and null bitmap are
// rolled back to their input state, so the caller can fall back to the
// boxed DecodeInto path.
var ErrKindMismatch = errors.New("page: value kind does not match typed decoder")

// body returns the page's layout and its stored payload, with the flags
// byte and the declared byte length validated against the buffer. A tagged
// payload is Huffman-unpacked when the page is sealed packed, so tagged
// readers always see the plain cell stream.
func (p ColumnPage) body() (layout int, pay []byte, err error) {
	if len(p.Buf) < colHeaderSize {
		return 0, nil, fmt.Errorf("page: column page shorter than header (%d bytes)", len(p.Buf))
	}
	n := p.payloadLen()
	if n < 0 || n > len(p.Buf)-colHeaderSize {
		return 0, nil, fmt.Errorf("page: column payload length %d exceeds page size %d", n, len(p.Buf))
	}
	pay = p.Buf[colHeaderSize : colHeaderSize+n]
	switch flags := p.Buf[colOffFlags]; flags {
	case layoutTagged << 1:
		return layoutTagged, pay, nil
	case layoutTagged<<1 | flagPacked:
		raw, err := compress.DecompressHuffman(pay)
		if err != nil {
			return 0, nil, fmt.Errorf("page: unpack column page: %w", err)
		}
		return layoutTagged, raw, nil
	case layoutFixed << 1:
		return layoutFixed, pay, nil
	case layoutDict << 1:
		return layoutDict, pay, nil
	case layoutChain << 1:
		return 0, nil, errors.New("page: a chain head holds no cells; read its chain pages")
	default:
		return 0, nil, fmt.Errorf("page: unknown column page flags %#x", flags)
	}
}

// DecodeInt64s is DecodeInt64sSel over every cell.
func (p ColumnPage) DecodeInt64s(kind types.Kind, dst []int64, nulls *vec.Bitmap) ([]int64, error) {
	return p.DecodeInt64sSel(kind, dst, nulls, nil)
}

// DecodeFloat64s is DecodeFloat64sSel over every cell.
func (p ColumnPage) DecodeFloat64s(dst []float64, nulls *vec.Bitmap) ([]float64, error) {
	return p.DecodeFloat64sSel(dst, nulls, nil)
}

// wanted returns how many cells a decode over sel appends: every one of the
// page's n cells for a nil sel.
func wanted(sel []int32, n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// selRun returns the run of consecutive positions [from, to) that starts at
// sel[k].
func selRun(sel []int32, k int) (from, to int) {
	from = int(sel[k])
	to = from + 1
	for k++; k < len(sel) && int(sel[k]) == to; k++ {
		to++
	}
	return from, to
}

// DecodeInt64sSel appends the cells of a fixed-width integer column page
// (kind Int, Date, or Bool — whichever the column's schema declares) at the
// ascending page-relative positions in sel to dst — every cell for a nil
// sel, none for an empty one — marking NULL positions (which hold 0) in
// nulls at their absolute slab offsets. Only selected cells are read (late
// materialization): a fixed or dict page reads just those cells; the tagged
// walk steps over the others by their lengths and stops at the last selected
// one, so the tail of the page is never touched. A position beyond the
// page's value count is an error. Returns the grown slab; on any error, dst
// and nulls are rolled back to their input state.
func (p ColumnPage) DecodeInt64sSel(kind types.Kind, dst []int64, nulls *vec.Bitmap, sel []int32) ([]int64, error) {
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	n := p.NumValues()
	if layout != layoutTagged {
		return typedInt64s(layout, pay, n, kind, dst, nulls, sel)
	}
	start, want, pos, i := len(dst), wanted(sel, n), 0, 0
	for k := 0; k < want; {
		to := n
		if sel != nil {
			var from int
			if from, to = selRun(sel, k); from < i || to > n {
				return undo(dst, nulls, start), fmt.Errorf("page: selection positions %d to %d out of order or beyond page (%d values)", from, to-1, n)
			}
			if pos, err = skipCells(pay, pos, from-i); err != nil {
				return undo(dst, nulls, start), fmt.Errorf("page: column values %d to %d: %w", i, from-1, err)
			}
			i = from
		}
		k += to - i
		for ; i < to; i++ {
			if pos >= len(pay) {
				return undo(dst, nulls, start), fmt.Errorf("page: column value %d: payload truncated", i)
			}
			tag := types.Kind(pay[pos])
			pos++
			switch {
			case tag == types.KindNull:
				nulls.Set(len(dst))
				dst = append(dst, 0)
			case tag != kind:
				return undo(dst, nulls, start), ErrKindMismatch
			case kind == types.KindBool:
				if pos >= len(pay) {
					return undo(dst, nulls, start), fmt.Errorf("page: column value %d: short bool", i)
				}
				dst = append(dst, int64(pay[pos]))
				pos++
			default: // KindInt, KindDate
				v, m := binary.Varint(pay[pos:])
				if m <= 0 {
					return undo(dst, nulls, start), fmt.Errorf("page: column value %d: bad varint", i)
				}
				dst = append(dst, v)
				pos += m
			}
		}
	}
	return dst, nil
}

// DecodeFloat64sSel is DecodeInt64sSel for a FLOAT column page.
func (p ColumnPage) DecodeFloat64sSel(dst []float64, nulls *vec.Bitmap, sel []int32) ([]float64, error) {
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	n := p.NumValues()
	if layout != layoutTagged {
		return typedFloat64s(layout, pay, n, dst, nulls, sel)
	}
	start, want, pos, i := len(dst), wanted(sel, n), 0, 0
	for k := 0; k < want; {
		to := n
		if sel != nil {
			var from int
			if from, to = selRun(sel, k); from < i || to > n {
				return undo(dst, nulls, start), fmt.Errorf("page: selection positions %d to %d out of order or beyond page (%d values)", from, to-1, n)
			}
			if pos, err = skipCells(pay, pos, from-i); err != nil {
				return undo(dst, nulls, start), fmt.Errorf("page: column values %d to %d: %w", i, from-1, err)
			}
			i = from
		}
		k += to - i
		for ; i < to; i++ {
			if pos >= len(pay) {
				return undo(dst, nulls, start), fmt.Errorf("page: column value %d: payload truncated", i)
			}
			tag := types.Kind(pay[pos])
			pos++
			switch tag {
			case types.KindNull:
				nulls.Set(len(dst))
				dst = append(dst, 0)
			case types.KindFloat:
				if len(pay)-pos < 8 {
					return undo(dst, nulls, start), fmt.Errorf("page: column value %d: short float", i)
				}
				dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(pay[pos:])))
				pos += 8
			default:
				return undo(dst, nulls, start), ErrKindMismatch
			}
		}
	}
	return dst, nil
}

// DecodeStringsSel is DecodeInt64sSel for a STRING column page, whose cells
// append as codes interned into dict (NULLs hold code 0). Unselected strings
// are skipped without interning — with a selective predicate this is where
// late materialization pays: the dictionary probe per dropped cell
// disappears (and on a dict page, the probe per selected cell too: one per
// entry used). On an error, strings interned before it stay in dict, which
// is harmless (dictionaries are append-only).
func (p ColumnPage) DecodeStringsSel(dict *vec.Dict, dst []int32, nulls *vec.Bitmap, sel []int32) ([]int32, error) {
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	n := p.NumValues()
	if layout != layoutTagged {
		return typedStrings(layout, pay, n, dict, dst, nulls, sel)
	}
	start, want, pos, i := len(dst), wanted(sel, n), 0, 0
	for k := 0; k < want; {
		to := n
		if sel != nil {
			var from int
			if from, to = selRun(sel, k); from < i || to > n {
				return undo(dst, nulls, start), fmt.Errorf("page: selection positions %d to %d out of order or beyond page (%d values)", from, to-1, n)
			}
			if pos, err = skipCells(pay, pos, from-i); err != nil {
				return undo(dst, nulls, start), fmt.Errorf("page: column values %d to %d: %w", i, from-1, err)
			}
			i = from
		}
		k += to - i
		for ; i < to; i++ {
			if pos >= len(pay) {
				return undo(dst, nulls, start), fmt.Errorf("page: column value %d: payload truncated", i)
			}
			tag := types.Kind(pay[pos])
			pos++
			switch tag {
			case types.KindNull:
				nulls.Set(len(dst))
				dst = append(dst, 0)
			case types.KindString:
				l, m := binary.Uvarint(pay[pos:])
				if m <= 0 {
					return undo(dst, nulls, start), fmt.Errorf("page: column value %d: bad string length", i)
				}
				pos += m
				if uint64(len(pay)-pos) < l {
					return undo(dst, nulls, start), fmt.Errorf("page: column value %d: short string (%d < %d)", i, len(pay)-pos, l)
				}
				dst = append(dst, dict.CodeBytes(pay[pos:pos+int(l)]))
				pos += int(l)
			default:
				return undo(dst, nulls, start), ErrKindMismatch
			}
		}
	}
	return dst, nil
}

// DictEntries opens a dictionary-layout page for a test in code space: it
// appends the page's d entries to c as d cells, typed by c's form as the
// Decode*Sel readers would append cells holding them (a NULL entry marked
// NULL), and returns the page's codes, one byte per cell in row order. A
// code is not checked against d here: as Decode*Sel checks only the cells it
// reads, the caller checks each code it reads, and a code of d or more is a
// corrupt page. A page of another layout returns nil codes and no error, c
// untouched. An entry of a kind c has no place for is ErrKindMismatch, and a
// corrupt dictionary an error, both with c untouched. The codes alias the
// page buffer.
func (p ColumnPage) DictEntries(c *vec.Col) ([]byte, error) {
	layout, pay, err := p.body()
	if err != nil || layout != layoutDict {
		return nil, err
	}
	var v dictView
	if err := v.parse(pay, p.NumValues()); err != nil {
		return nil, err
	}
	var null [maxDictEntries]bool
	bm := vec.Bitmap{Words: c.Nulls}
	switch c.Form {
	case vec.FormInt:
		var val [maxDictEntries]int64
		if _, err := intEntries(&v, c.Kind, &val, &null); err != nil {
			return nil, err
		}
		c.I = appendEntries(c.I, val[:v.d], null[:v.d], &bm)
	case vec.FormFloat:
		var val [maxDictEntries]float64
		if _, err := floatEntries(&v, &val, &null); err != nil {
			return nil, err
		}
		c.F = appendEntries(c.F, val[:v.d], null[:v.d], &bm)
	case vec.FormStr:
		if _, err := stringEntries(&v, &null); err != nil {
			return nil, err
		}
		var code [maxDictEntries]int32
		v.internAll(c.Dict, &null, &code)
		c.Codes = appendEntries(c.Codes, code[:v.d], null[:v.d], &bm)
	default:
		return nil, ErrKindMismatch
	}
	c.Nulls = bm.Words
	return v.codes, nil
}

// appendEntries appends a dictionary's entries to a slab, marking the NULL
// ones at their slab offsets.
func appendEntries[T int64 | float64 | int32](dst, val []T, null []bool, nulls *vec.Bitmap) []T {
	for e, isNull := range null {
		if isNull {
			nulls.Set(len(dst) + e)
		}
	}
	return append(dst, val...)
}
