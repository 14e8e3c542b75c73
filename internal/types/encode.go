package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of values and rows, shared by the page layer (row pages),
// the WAL (logical records), and the network transport (shuffled batches).
//
// A value encodes as a 1-byte kind tag followed by a kind-specific payload:
// Int/Date as varint, Float as 8-byte IEEE, Bool as 1 byte, String as a
// uvarint length followed by the bytes. NULL is just the tag.

// AppendValue appends the binary encoding of v to dst and returns dst.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt, KindDate:
		dst = binary.AppendVarint(dst, v.I)
	case KindBool:
		if v.I != 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	}
	return dst
}

// Cell is one encoded value, unboxed: its kind and payload — I for INT,
// DATE and BOOLEAN, F for FLOAT, S a string's bytes, aliasing the encoding
// it was decoded from (nil for the other kinds).
type Cell struct {
	K Kind
	I int64
	F float64
	S []byte
}

// Value boxes the cell, copying a string's bytes.
func (c Cell) Value() Value {
	if c.K == KindString {
		return Value{K: KindString, S: string(c.S)}
	}
	return Value{K: c.K, I: c.I, F: c.F}
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	var c Cell
	n, err := decodeCell(b, &c)
	if err != nil {
		return Null, 0, err
	}
	return c.Value(), n, nil
}

// decodeCell decodes one value from b into c without boxing it, returning
// the bytes it took. Only the fields the kind uses are written, and S is cleared for a
// kind that is not a string, so a reused cell writes no pointer for a
// column that holds none.
func decodeCell(b []byte, c *Cell) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("types: decode value: empty buffer")
	}
	k := Kind(b[0])
	n := 1
	var i int64
	var f float64
	switch k {
	case KindNull:
	case KindInt, KindDate:
		var m int
		if i, m = binary.Varint(b[1:]); m <= 0 {
			return 0, fmt.Errorf("types: decode value: bad varint")
		}
		n += m
	case KindBool:
		if len(b) < 2 {
			return 0, fmt.Errorf("types: decode value: short bool")
		}
		i, n = int64(b[1]), 2
	case KindFloat:
		if len(b) < 9 {
			return 0, fmt.Errorf("types: decode value: short float")
		}
		f, n = math.Float64frombits(binary.LittleEndian.Uint64(b[1:])), 9
	case KindString:
		l, m := binary.Uvarint(b[1:])
		if m <= 0 {
			return 0, fmt.Errorf("types: decode value: bad string length")
		}
		n += m
		if uint64(len(b)-n) < l {
			return 0, fmt.Errorf("types: decode value: short string (%d < %d)", len(b)-n, l)
		}
		c.K, c.I, c.F, c.S = KindString, 0, 0, b[n:n+int(l):n+int(l)]
		return n + int(l), nil
	default:
		return 0, fmt.Errorf("types: decode value: unknown kind %d", b[0])
	}
	c.K, c.I, c.F = k, i, f
	if c.S != nil {
		c.S = nil
	}
	return n, nil
}

// AppendRow appends the binary encoding of r (a uvarint arity followed by
// the encoded values) to dst and returns dst.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// skipValue returns the number of bytes the value at the start of b
// encodes, without decoding it. It fails exactly where DecodeValue fails.
func skipValue(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("types: decode value: empty buffer")
	}
	switch Kind(b[0]) {
	case KindNull:
		return 1, nil
	case KindInt, KindDate:
		if _, n := binary.Varint(b[1:]); n > 0 {
			return 1 + n, nil
		}
		return 0, fmt.Errorf("types: decode value: bad varint")
	case KindBool:
		if len(b) < 2 {
			return 0, fmt.Errorf("types: decode value: short bool")
		}
		return 2, nil
	case KindFloat:
		if len(b) < 9 {
			return 0, fmt.Errorf("types: decode value: short float")
		}
		return 9, nil
	case KindString:
		l, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return 0, fmt.Errorf("types: decode value: bad string length")
		}
		if uint64(len(b)-1-n) < l {
			return 0, fmt.Errorf("types: decode value: short string (%d < %d)", len(b)-1-n, l)
		}
		return 1 + n + int(l), nil
	default:
		return 0, fmt.Errorf("types: decode value: unknown kind %d", b[0])
	}
}

// DecodeRow decodes one row from b, returning the row and bytes consumed.
func DecodeRow(b []byte) (Row, int, error) { return decodeRow(b, nil, true, nil) }

// DecodeRowInto decodes one row from b into dst, the caller's row, filling
// only the columns mask marks (column i is marked when i < len(mask) and
// mask[i]). The bytes of an unmarked column are checked and skipped without
// allocating, and dst keeps whatever it held there. dst is resliced to the
// row's arity, reusing its backing array when that is large enough; the row
// is returned. It rejects exactly the encodings DecodeRow rejects and
// consumes the same bytes.
func DecodeRowInto(b []byte, mask []bool, dst Row) (Row, int, error) {
	return decodeRow(b, mask, false, dst)
}

// DecodeRowCells is DecodeRowInto without boxing: the marked columns of
// the row in b are decoded into dst's cells, a string's bytes aliasing b,
// so nothing is allocated once dst is as wide as the row. It rejects
// exactly the encodings DecodeRow rejects and consumes the same bytes.
func DecodeRowCells(b []byte, mask []bool, dst []Cell) ([]Cell, int, error) {
	arity, pos, err := rowArity(b)
	if err != nil {
		return nil, 0, err
	}
	if uint64(cap(dst)) < arity {
		dst = make([]Cell, arity)
	}
	cells := dst[:arity]
	for i := range cells {
		var m int
		if i < len(mask) && mask[i] {
			m, err = decodeCell(b[pos:], &cells[i])
		} else {
			m, err = skipValue(b[pos:])
		}
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode row col %d: %w", i, err)
		}
		pos += m
	}
	return cells, pos, nil
}

// rowArity reads a row's arity, returning it and the bytes it took.
func rowArity(b []byte) (uint64, int, error) {
	arity, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("types: decode row: bad arity")
	}
	// Every value takes at least its tag byte, so a longer arity cannot
	// decode; refusing it here keeps a corrupt arity from sizing the row.
	if arity > uint64(len(b)-n) {
		return 0, 0, fmt.Errorf("types: decode row: arity %d exceeds the %d bytes left", arity, len(b)-n)
	}
	return arity, n, nil
}

// decodeRow is DecodeRow (all set) and DecodeRowInto.
func decodeRow(b []byte, mask []bool, all bool, dst Row) (Row, int, error) {
	arity, pos, err := rowArity(b)
	if err != nil {
		return nil, 0, err
	}
	if uint64(cap(dst)) < arity {
		dst = make(Row, arity)
	}
	row := dst[:arity]
	for i := range row {
		var m int
		if all || i < len(mask) && mask[i] {
			row[i], m, err = DecodeValue(b[pos:])
		} else {
			m, err = skipValue(b[pos:])
		}
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode row col %d: %w", i, err)
		}
		pos += m
	}
	return row, pos, nil
}

// EncodedSize returns the number of bytes AppendValue would emit for v.
func EncodedSize(v Value) int {
	switch v.K {
	case KindNull:
		return 1
	case KindInt, KindDate:
		return 1 + varintLen(v.I)
	case KindBool:
		return 2
	case KindFloat:
		return 9
	case KindString:
		return 1 + uvarintLen(uint64(len(v.S))) + len(v.S)
	default:
		return 1
	}
}

// RowEncodedSize returns the number of bytes AppendRow would emit for r.
func RowEncodedSize(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n += EncodedSize(v)
	}
	return n
}

func varintLen(v int64) int {
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	return uvarintLen(u)
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}
