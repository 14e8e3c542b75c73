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

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("types: decode value: empty buffer")
	}
	k := Kind(b[0])
	pos := 1
	switch k {
	case KindNull:
		return Null, pos, nil
	case KindInt, KindDate:
		i, n := binary.Varint(b[pos:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("types: decode value: bad varint")
		}
		return Value{K: k, I: i}, pos + n, nil
	case KindBool:
		if len(b) < pos+1 {
			return Null, 0, fmt.Errorf("types: decode value: short bool")
		}
		return Value{K: KindBool, I: int64(b[pos])}, pos + 1, nil
	case KindFloat:
		if len(b) < pos+8 {
			return Null, 0, fmt.Errorf("types: decode value: short float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
		return Value{K: KindFloat, F: f}, pos + 8, nil
	case KindString:
		l, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("types: decode value: bad string length")
		}
		pos += n
		if uint64(len(b)-pos) < l {
			return Null, 0, fmt.Errorf("types: decode value: short string (%d < %d)", len(b)-pos, l)
		}
		return Value{K: KindString, S: string(b[pos : pos+int(l)])}, pos + int(l), nil
	default:
		return Null, 0, fmt.Errorf("types: decode value: unknown kind %d", b[0])
	}
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

// decodeRow is DecodeRow (all set) and DecodeRowInto.
func decodeRow(b []byte, mask []bool, all bool, dst Row) (Row, int, error) {
	arity, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("types: decode row: bad arity")
	}
	pos := n
	// Every value takes at least its tag byte, so a longer arity cannot
	// decode; refusing it here keeps a corrupt arity from sizing the row.
	if arity > uint64(len(b)-pos) {
		return nil, 0, fmt.Errorf("types: decode row: arity %d exceeds the %d bytes left", arity, len(b)-pos)
	}
	if uint64(cap(dst)) < arity {
		dst = make(Row, arity)
	}
	row := dst[:arity]
	for i := range row {
		var (
			m   int
			err error
		)
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
