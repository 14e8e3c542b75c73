package vec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/types"
)

// Wire format: batches travel column-wise. Compared with the row encoding
// (types.AppendRow: one kind tag byte per value), the columnar layout drops
// the per-value tag, stores floats as raw 8-byte words instead of
// tag+word, packs nulls into a bitmap, and dictionary-codes strings so each
// distinct string is sent once per message. The blob is self-describing —
// the decoder needs no schema:
//
//	uvarint nrows, uvarint ncols
//	per column:
//	  1 byte form, 1 byte kind, 1 byte hasNulls
//	  if hasNulls: ceil(nrows/8) bytes bitmap (bit i of byte i/8 = row i NULL)
//	  payload:
//	    FormInt   nrows × varint (0 at nulls)
//	    FormFloat nrows × 8-byte LE float64 (0 at nulls)
//	    FormStr   uvarint ndict, ndict × (uvarint len + bytes), nrows × uvarint code
//	    FormBoxed nrows × types.AppendValue
//
// LZ4 framing in the network layer composes on top: same-typed adjacent
// bytes compress better than interleaved tagged rows.

// EncodeRows appends the columnar encoding of a row slab to dst. The
// per-column layout is inferred by scanning the slab: a column whose
// non-null values all share one typed-representable kind travels typed,
// anything mixed travels boxed. Every row must have the same width.
func EncodeRows(dst []byte, rows []types.Row) []byte {
	nrows := len(rows)
	ncols := 0
	if nrows > 0 {
		ncols = len(rows[0])
	}
	dst = binary.AppendUvarint(dst, uint64(nrows))
	dst = binary.AppendUvarint(dst, uint64(ncols))
	for j := 0; j < ncols; j++ {
		kind := types.KindNull
		mixed := false
		hasNulls := false
		for _, r := range rows {
			v := r[j]
			if v.K == types.KindNull {
				hasNulls = true
				continue
			}
			if kind == types.KindNull {
				kind = v.K
			} else if v.K != kind {
				mixed = true
				break
			}
		}
		form := FormFor(kind)
		if mixed {
			form = FormBoxed
		}
		if form == FormBoxed {
			dst = append(dst, byte(FormBoxed), byte(kind), 0)
			for _, r := range rows {
				dst = types.AppendValue(dst, r[j])
			}
			continue
		}
		dst = append(dst, byte(form), byte(kind))
		if hasNulls {
			dst = append(dst, 1)
			dst = appendRowNullBitmap(dst, rows, j)
		} else {
			dst = append(dst, 0)
		}
		switch form {
		case FormInt:
			for _, r := range rows {
				dst = binary.AppendVarint(dst, r[j].I)
			}
		case FormFloat:
			for _, r := range rows {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r[j].F))
			}
		case FormStr:
			// Per-message dictionary: codes are local to this blob.
			codes := make([]uint64, nrows)
			index := map[string]uint64{}
			var strs []string
			for i, r := range rows {
				if r[j].K == types.KindNull {
					continue
				}
				c, ok := index[r[j].S]
				if !ok {
					c = uint64(len(strs))
					strs = append(strs, r[j].S)
					index[r[j].S] = c
				}
				codes[i] = c
			}
			dst = binary.AppendUvarint(dst, uint64(len(strs)))
			for _, s := range strs {
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
			for _, c := range codes {
				dst = binary.AppendUvarint(dst, c)
			}
		}
	}
	return dst
}

func appendRowNullBitmap(dst []byte, rows []types.Row, j int) []byte {
	nb := (len(rows) + 7) / 8
	at := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i, r := range rows {
		if r[j].K == types.KindNull {
			dst[at+i/8] |= 1 << (uint(i) & 7)
		}
	}
	return dst
}

// EncodeBatch appends the columnar encoding of the batch's active rows
// [from, to) (selection-aware positions) to dst, producing the same format
// as EncodeRows. Typed columns are encoded without boxing.
func EncodeBatch(dst []byte, b *Batch, from, to int) []byte {
	nrows := to - from
	ncols := len(b.Cols)
	dst = binary.AppendUvarint(dst, uint64(nrows))
	dst = binary.AppendUvarint(dst, uint64(ncols))
	for j := 0; j < ncols; j++ {
		c := &b.Cols[j]
		if c.Form == FormBoxed {
			dst = append(dst, byte(FormBoxed), byte(c.Kind), 0)
			for x := from; x < to; x++ {
				dst = types.AppendValue(dst, c.Vals[b.Index(x)])
			}
			continue
		}
		dst = append(dst, byte(c.Form), byte(c.Kind))
		hasNulls := false
		for x := from; x < to; x++ {
			if GetBit(c.Nulls, b.Index(x)) {
				hasNulls = true
				break
			}
		}
		if hasNulls {
			dst = append(dst, 1)
			nb := (nrows + 7) / 8
			at := len(dst)
			for i := 0; i < nb; i++ {
				dst = append(dst, 0)
			}
			for x := from; x < to; x++ {
				if GetBit(c.Nulls, b.Index(x)) {
					i := x - from
					dst[at+i/8] |= 1 << (uint(i) & 7)
				}
			}
		} else {
			dst = append(dst, 0)
		}
		switch c.Form {
		case FormInt:
			for x := from; x < to; x++ {
				dst = binary.AppendVarint(dst, c.I[b.Index(x)])
			}
		case FormFloat:
			for x := from; x < to; x++ {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.F[b.Index(x)]))
			}
		case FormStr:
			// Remap the producer dictionary (which spans the whole stream)
			// to a message-local dictionary covering only the rows sent.
			local := map[int32]uint64{}
			var strs []string
			codes := make([]uint64, 0, nrows)
			for x := from; x < to; x++ {
				i := b.Index(x)
				if GetBit(c.Nulls, i) {
					codes = append(codes, 0)
					continue
				}
				lc, ok := local[c.Codes[i]]
				if !ok {
					lc = uint64(len(strs))
					strs = append(strs, c.Dict.Str(c.Codes[i]))
					local[c.Codes[i]] = lc
				}
				codes = append(codes, lc)
			}
			dst = binary.AppendUvarint(dst, uint64(len(strs)))
			for _, s := range strs {
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
			for _, cc := range codes {
				dst = binary.AppendUvarint(dst, cc)
			}
		}
	}
	return dst
}

// maxZeroWidthRows bounds the row count of a message whose rows have no
// columns, the one header no byte count bounds. A sender puts at most one
// batch (Ctx.BatchRows, default 128 on the wire) in a message.
const maxZeroWidthRows = 1 << 20

// DecodeRows decodes one columnar blob back into boxed rows. Row values are
// allocated in one flat array, so the rows satisfy the retainable-value
// half of the slab contract.
func DecodeRows(data []byte) ([]types.Row, error) {
	pos := 0
	nrows64, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("vec: truncated batch header")
	}
	pos += n
	ncols64, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("vec: truncated batch header")
	}
	pos += n
	// Every column form spends at least one byte per row, so a header that
	// claims more cells than there are bytes left is refused before anything
	// is sized by it (as a quotient, so no product can overflow). A
	// zero-width row spends no byte at all: its count is bounded by
	// maxZeroWidthRows instead.
	left := uint64(len(data) - pos)
	if nrows64 == 0 {
		return nil, nil
	}
	if ncols64 == 0 && nrows64 > maxZeroWidthRows ||
		ncols64 > 0 && nrows64 > left/ncols64 {
		return nil, fmt.Errorf("vec: batch header claims %d rows of %d columns in %d bytes", nrows64, ncols64, left)
	}
	nrows, ncols := int(nrows64), int(ncols64)
	vals := make([]types.Value, nrows*ncols)
	rows := make([]types.Row, nrows)
	for i := range rows {
		rows[i] = vals[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	for j := 0; j < ncols; j++ {
		if pos+3 > len(data) {
			return nil, fmt.Errorf("vec: truncated column header")
		}
		form, kind, hasNulls := Form(data[pos]), types.Kind(data[pos+1]), data[pos+2] != 0
		pos += 3
		var nulls []byte
		if hasNulls {
			nb := (nrows + 7) / 8
			if pos+nb > len(data) {
				return nil, fmt.Errorf("vec: truncated null bitmap")
			}
			nulls = data[pos : pos+nb]
			pos += nb
		}
		isNull := func(i int) bool {
			return nulls != nil && nulls[i/8]&(1<<(uint(i)&7)) != 0
		}
		switch form {
		case FormInt:
			for i := 0; i < nrows; i++ {
				x, n := binary.Varint(data[pos:])
				if n <= 0 {
					return nil, fmt.Errorf("vec: truncated int column")
				}
				pos += n
				if !isNull(i) {
					rows[i][j] = types.Value{K: kind, I: x}
				}
			}
		case FormFloat:
			for i := 0; i < nrows; i++ {
				if pos+8 > len(data) {
					return nil, fmt.Errorf("vec: truncated float column")
				}
				if !isNull(i) {
					rows[i][j] = types.Value{K: types.KindFloat, F: math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))}
				}
				pos += 8
			}
		case FormStr:
			ndict64, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("vec: truncated dictionary")
			}
			pos += n
			if ndict64 > uint64(len(data)-pos) {
				return nil, fmt.Errorf("vec: dictionary of %d entries in %d bytes", ndict64, len(data)-pos)
			}
			strs := make([]string, int(ndict64))
			for d := range strs {
				slen, n := binary.Uvarint(data[pos:])
				if n <= 0 || slen > uint64(len(data)-pos-n) {
					return nil, fmt.Errorf("vec: truncated dictionary entry")
				}
				pos += n
				strs[d] = string(data[pos : pos+int(slen)])
				pos += int(slen)
			}
			for i := 0; i < nrows; i++ {
				c, n := binary.Uvarint(data[pos:])
				if n <= 0 {
					return nil, fmt.Errorf("vec: truncated code column")
				}
				pos += n
				if !isNull(i) {
					if c >= uint64(len(strs)) {
						return nil, fmt.Errorf("vec: dictionary code %d out of range", c)
					}
					rows[i][j] = types.Value{K: types.KindString, S: strs[c]}
				}
			}
		case FormBoxed:
			for i := 0; i < nrows; i++ {
				v, n, err := types.DecodeValue(data[pos:])
				if err != nil {
					return nil, fmt.Errorf("vec: boxed column: %w", err)
				}
				pos += n
				rows[i][j] = v
			}
		default:
			return nil, fmt.Errorf("vec: unknown column form %d", form)
		}
	}
	return rows, nil
}
