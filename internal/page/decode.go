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

// Typed batch decode: these decoders append a column page's cells straight
// into vec slabs — no types.Value boxing, no per-cell closure. Each dispatches
// on the page's layout: a fixed or dict page goes to the position-addressed
// readers in layout.go; a tagged page (the appended stream of an open set, or
// a sealed page with no typed layout, Huffman-unpacked first) is walked once
// here, cell by cell. They are strict about kinds: a cell — or a typed page —
// whose kind is not the expected one (or NULL) returns ErrKindMismatch with
// the destination rolled back, and the caller reruns the page through the
// boxed DecodeInto path, which preserves the mixed-kind demotion semantics of
// Col.Append.
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

// DecodeInt64s appends every value of a fixed-width integer column page
// (kind Int, Date, or Bool — whichever the column's schema declares) to
// dst, marking NULL positions (which hold 0) in nulls at their absolute
// slab offsets. Returns the grown slab. On any error, dst and nulls are
// rolled back to their input state.
func (p ColumnPage) DecodeInt64s(kind types.Kind, dst []int64, nulls *vec.Bitmap) ([]int64, error) {
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	n := p.NumValues()
	if layout != layoutTagged {
		return typedInt64s(layout, pay, n, kind, dst, nulls, nil)
	}
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(pay) {
			nulls.Truncate(base)
			return dst[:base], fmt.Errorf("page: column value %d: payload truncated", i)
		}
		tag := types.Kind(pay[pos])
		pos++
		switch {
		case tag == types.KindNull:
			nulls.Set(len(dst))
			dst = append(dst, 0)
		case tag != kind:
			nulls.Truncate(base)
			return dst[:base], ErrKindMismatch
		case kind == types.KindBool:
			if pos >= len(pay) {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: short bool", i)
			}
			dst = append(dst, int64(pay[pos]))
			pos++
		default: // KindInt, KindDate
			v, m := binary.Varint(pay[pos:])
			if m <= 0 {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: bad varint", i)
			}
			dst = append(dst, v)
			pos += m
		}
	}
	return dst, nil
}

// DecodeFloat64s appends every value of a FLOAT column page to dst,
// marking NULLs (which hold 0) in nulls. On any error, dst and nulls are
// rolled back to their input state.
func (p ColumnPage) DecodeFloat64s(dst []float64, nulls *vec.Bitmap) ([]float64, error) {
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	n := p.NumValues()
	if layout != layoutTagged {
		return typedFloat64s(layout, pay, n, dst, nulls, nil)
	}
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(pay) {
			nulls.Truncate(base)
			return dst[:base], fmt.Errorf("page: column value %d: payload truncated", i)
		}
		tag := types.Kind(pay[pos])
		pos++
		switch tag {
		case types.KindNull:
			nulls.Set(len(dst))
			dst = append(dst, 0)
		case types.KindFloat:
			if len(pay)-pos < 8 {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: short float", i)
			}
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(pay[pos:])))
			pos += 8
		default:
			nulls.Truncate(base)
			return dst[:base], ErrKindMismatch
		}
	}
	return dst, nil
}

// DecodeStrings appends every value of a STRING column page to dst as
// codes interned into dict, marking NULLs (which hold code 0) in nulls. On
// any error, dst and nulls are rolled back; strings interned before the
// error stay in dict, which is harmless (dictionaries are append-only).
func (p ColumnPage) DecodeStrings(dict *vec.Dict, dst []int32, nulls *vec.Bitmap) ([]int32, error) {
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	n := p.NumValues()
	if layout != layoutTagged {
		return typedStrings(layout, pay, n, dict, dst, nulls, nil)
	}
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(pay) {
			nulls.Truncate(base)
			return dst[:base], fmt.Errorf("page: column value %d: payload truncated", i)
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
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: bad string length", i)
			}
			pos += m
			if uint64(len(pay)-pos) < l {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: short string (%d < %d)", i, len(pay)-pos, l)
			}
			dst = append(dst, dict.CodeBytes(pay[pos:pos+int(l)]))
			pos += int(l)
		default:
			nulls.Truncate(base)
			return dst[:base], ErrKindMismatch
		}
	}
	return dst, nil
}

// DecodeInt64sSel is DecodeInt64s restricted to the ascending page-relative
// positions in sel: only selected cells append to dst (late
// materialization). A fixed or dict page reads just those cells; the tagged
// walk parses every cell up to the last selected one and stops there, so the
// tail of the page is never touched. sel positions beyond the page's value
// count are an error.
func (p ColumnPage) DecodeInt64sSel(kind types.Kind, dst []int64, nulls *vec.Bitmap, sel []int32) ([]int64, error) {
	if len(sel) == 0 {
		return dst, nil
	}
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	n := p.NumValues()
	if layout != layoutTagged {
		return typedInt64s(layout, pay, n, kind, dst, nulls, sel)
	}
	pos, si := 0, 0
	for i := 0; i < n && si < len(sel); i++ {
		if pos >= len(pay) {
			nulls.Truncate(base)
			return dst[:base], fmt.Errorf("page: column value %d: payload truncated", i)
		}
		want := int(sel[si]) == i
		tag := types.Kind(pay[pos])
		pos++
		switch {
		case tag == types.KindNull:
			if want {
				nulls.Set(len(dst))
				dst = append(dst, 0)
			}
		case tag != kind:
			nulls.Truncate(base)
			return dst[:base], ErrKindMismatch
		case kind == types.KindBool:
			if pos >= len(pay) {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: short bool", i)
			}
			if want {
				dst = append(dst, int64(pay[pos]))
			}
			pos++
		default: // KindInt, KindDate
			v, m := binary.Varint(pay[pos:])
			if m <= 0 {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: bad varint", i)
			}
			if want {
				dst = append(dst, v)
			}
			pos += m
		}
		if want {
			si++
		}
	}
	if si < len(sel) {
		nulls.Truncate(base)
		return dst[:base], errSelBeyond(sel[si], n)
	}
	return dst, nil
}

// DecodeFloat64sSel is DecodeFloat64s restricted to the ascending
// page-relative positions in sel.
func (p ColumnPage) DecodeFloat64sSel(dst []float64, nulls *vec.Bitmap, sel []int32) ([]float64, error) {
	if len(sel) == 0 {
		return dst, nil
	}
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	n := p.NumValues()
	if layout != layoutTagged {
		return typedFloat64s(layout, pay, n, dst, nulls, sel)
	}
	pos, si := 0, 0
	for i := 0; i < n && si < len(sel); i++ {
		if pos >= len(pay) {
			nulls.Truncate(base)
			return dst[:base], fmt.Errorf("page: column value %d: payload truncated", i)
		}
		want := int(sel[si]) == i
		tag := types.Kind(pay[pos])
		pos++
		switch tag {
		case types.KindNull:
			if want {
				nulls.Set(len(dst))
				dst = append(dst, 0)
			}
		case types.KindFloat:
			if len(pay)-pos < 8 {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: short float", i)
			}
			if want {
				dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(pay[pos:])))
			}
			pos += 8
		default:
			nulls.Truncate(base)
			return dst[:base], ErrKindMismatch
		}
		if want {
			si++
		}
	}
	if si < len(sel) {
		nulls.Truncate(base)
		return dst[:base], errSelBeyond(sel[si], n)
	}
	return dst, nil
}

// DecodeStringsSel is DecodeStrings restricted to the ascending
// page-relative positions in sel. Unselected strings are skipped without
// interning — with a selective predicate this is where late
// materialization pays: the dictionary probe per dropped cell disappears
// (and on a dict page, the probe per selected cell too: one per entry used).
func (p ColumnPage) DecodeStringsSel(dict *vec.Dict, dst []int32, nulls *vec.Bitmap, sel []int32) ([]int32, error) {
	if len(sel) == 0 {
		return dst, nil
	}
	layout, pay, err := p.body()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	n := p.NumValues()
	if layout != layoutTagged {
		return typedStrings(layout, pay, n, dict, dst, nulls, sel)
	}
	pos, si := 0, 0
	for i := 0; i < n && si < len(sel); i++ {
		if pos >= len(pay) {
			nulls.Truncate(base)
			return dst[:base], fmt.Errorf("page: column value %d: payload truncated", i)
		}
		want := int(sel[si]) == i
		tag := types.Kind(pay[pos])
		pos++
		switch tag {
		case types.KindNull:
			if want {
				nulls.Set(len(dst))
				dst = append(dst, 0)
			}
		case types.KindString:
			l, m := binary.Uvarint(pay[pos:])
			if m <= 0 {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: bad string length", i)
			}
			pos += m
			if uint64(len(pay)-pos) < l {
				nulls.Truncate(base)
				return dst[:base], fmt.Errorf("page: column value %d: short string (%d < %d)", i, len(pay)-pos, l)
			}
			if want {
				dst = append(dst, dict.CodeBytes(pay[pos:pos+int(l)]))
			}
			pos += int(l)
		default:
			nulls.Truncate(base)
			return dst[:base], ErrKindMismatch
		}
		if want {
			si++
		}
	}
	if si < len(sel) {
		nulls.Truncate(base)
		return dst[:base], errSelBeyond(sel[si], n)
	}
	return dst, nil
}
