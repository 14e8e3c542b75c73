// Package vec defines the typed columnar batch format of the vectorized
// execution path: per-column unboxed slabs ([]int64, []float64, dictionary
// codes for strings), a null bitmap, and a selection vector. Batches are
// produced straight from PAX column pages without materializing boxed
// types.Value structs, so kernels (filter, project, aggregate, join) run
// tight loops over flat arrays.
//
// # Ownership contract
//
// A *Batch returned by a producer's NextVec — including every column slab,
// the null bitmaps, the dictionaries and the selection vector — belongs to
// the caller until the caller calls its Release; the producer never touches
// a batch it has shipped. A producer builds its batches with Get, from
// process-wide pools, and Release hands one back, so after that call
// nothing may read the batch or anything reachable from it (pool.go).
// Callers may rewrite Sel in place (that is how filters work) but must
// treat column slabs as read-only. Boxed values copied out via Col.Value are
// immutable and may be retained; the slabs and Sel may not outlive Release.
// The vecown lint rule enforces the non-retention half of this.
package vec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/types"
)

// Form identifies the physical layout of one column.
type Form uint8

// Column layouts.
const (
	// FormBoxed stores boxed types.Value: a column whose schema kind is
	// unknown (KindNull), such as a $min/$max partial-aggregate column, or
	// a string column a producer keeps boxed.
	FormBoxed Form = iota
	// FormInt stores the int64 payload of INT, DATE, and BOOLEAN values.
	FormInt
	// FormFloat stores float64 payloads.
	FormFloat
	// FormStr stores int32 codes into a per-column dictionary.
	FormStr
)

// FormFor returns the natural layout for a schema kind.
func FormFor(k types.Kind) Form {
	switch k {
	case types.KindInt, types.KindDate, types.KindBool:
		return FormInt
	case types.KindFloat:
		return FormFloat
	case types.KindString:
		return FormStr
	default:
		return FormBoxed
	}
}

// Dict is an append-only string dictionary. A batch holds one per string
// column, until Release resets it; its codes are stable while it lasts, so
// consumers may compare by code whenever two columns share the same *Dict.
type Dict struct {
	strs  []string
	index map[string]int32
	id    uint64
}

// dictIDs numbers dictionary contents: a dictionary takes the next number
// when it is made and again at every Reset.
var dictIDs atomic.Uint64

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{index: make(map[string]int32), id: dictIDs.Add(1)} }

// ID names the dictionary's contents: no other dictionary has it, and
// Reset changes it, so per-code results kept under an ID are never stale —
// a code under it always names the string it named.
func (d *Dict) ID() uint64 { return d.id }

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.strs) }

// Code interns s, returning its stable code.
func (d *Dict) Code(s string) int32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := int32(len(d.strs))
	d.strs = append(d.strs, s)
	d.index[s] = c
	return c
}

// CodeBytes interns the bytes as a string, returning its stable code. The
// lookup of an already-interned entry does not allocate (the compiler
// elides the []byte→string conversion in a map index expression); only a
// first-seen entry copies the bytes. This is the typed page decoders' hot
// path: one map probe per cell, no boxing.
func (d *Dict) CodeBytes(b []byte) int32 {
	if c, ok := d.index[string(b)]; ok {
		return c
	}
	s := string(b)
	c := int32(len(d.strs))
	d.strs = append(d.strs, s)
	d.index[s] = c
	return c
}

// Reset empties the dictionary for reuse. Codes it handed out name nothing
// afterwards, so only a dictionary no batch shares may be reset.
func (d *Dict) Reset() {
	clear(d.index)
	clear(d.strs)
	d.strs = d.strs[:0]
	d.id = dictIDs.Add(1)
}

// Lookup returns the code of s without interning it.
func (d *Dict) Lookup(s string) (int32, bool) {
	c, ok := d.index[s]
	return c, ok
}

// Str returns the string for a code.
func (d *Dict) Str(c int32) string { return d.strs[c] }

// Col is one column of a batch. Exactly one payload slice is active,
// selected by Form; null positions hold the zero element there and are
// marked in the Nulls bitmap (nil bitmap = no nulls). FormBoxed columns
// carry NULL inside Vals and ignore the bitmap.
type Col struct {
	Kind  types.Kind
	Form  Form
	I     []int64
	F     []float64
	Codes []int32
	Dict  *Dict
	Vals  []types.Value
	Nulls []uint64
}

// SetBit sets bit i, growing the word slice as needed.
func SetBit(bm []uint64, i int) []uint64 {
	w := i >> 6
	for len(bm) <= w {
		bm = append(bm, 0)
	}
	bm[w] |= 1 << (uint(i) & 63)
	return bm
}

// GetBit reports bit i (false beyond the slice, matching "no nulls").
func GetBit(bm []uint64, i int) bool {
	w := i >> 6
	return w < len(bm) && bm[w]&(1<<(uint(i)&63)) != 0
}

// Len returns the number of values appended to the column.
func (c *Col) Len() int {
	switch c.Form {
	case FormInt:
		return len(c.I)
	case FormFloat:
		return len(c.F)
	case FormStr:
		return len(c.Codes)
	default:
		return len(c.Vals)
	}
}

// IsNull reports whether position i is SQL NULL.
func (c *Col) IsNull(i int) bool {
	if c.Form == FormBoxed {
		return c.Vals[i].K == types.KindNull
	}
	return GetBit(c.Nulls, i)
}

// Value boxes position i. The result is immutable and safe to retain.
func (c *Col) Value(i int) types.Value {
	if c.Form != FormBoxed && GetBit(c.Nulls, i) {
		return types.Null
	}
	switch c.Form {
	case FormInt:
		return types.Value{K: c.Kind, I: c.I[i]}
	case FormFloat:
		return types.Value{K: types.KindFloat, F: c.F[i]}
	case FormStr:
		return types.Value{K: types.KindString, S: c.Dict.Str(c.Codes[i])}
	default:
		return c.Vals[i]
	}
}

// HashCol is types.Hash of c.Value(i), computed without boxing it: the
// per-column twin of the key hash, which typed front ends fold over a key's
// columns with types.FoldHash.
func HashCol(c *Col, i int) uint64 {
	if c.Form != FormBoxed && GetBit(c.Nulls, i) {
		return types.Hash(types.Null)
	}
	switch c.Form {
	case FormInt:
		return types.HashInt(c.Kind, c.I[i])
	case FormFloat:
		return types.HashFloat(c.F[i])
	case FormStr:
		return types.HashString(c.Dict.Str(c.Codes[i]))
	default:
		return types.Hash(c.Vals[i])
	}
}

// Append appends one value: NULL or of the column's kind into a typed
// layout, any value into FormBoxed. A value of another kind in a typed
// layout is a bug of the caller's, and panics.
func (c *Col) Append(v types.Value) {
	i := c.Len()
	if v.K == types.KindNull {
		switch c.Form {
		case FormInt:
			c.Nulls = SetBit(c.Nulls, i)
			c.I = append(c.I, 0)
		case FormFloat:
			c.Nulls = SetBit(c.Nulls, i)
			c.F = append(c.F, 0)
		case FormStr:
			c.Nulls = SetBit(c.Nulls, i)
			c.Codes = append(c.Codes, 0)
		default:
			c.Vals = append(c.Vals, types.Null)
		}
		return
	}
	switch c.Form {
	case FormInt:
		if v.K == c.Kind {
			c.I = append(c.I, v.I)
			return
		}
	case FormFloat:
		if v.K == types.KindFloat {
			c.F = append(c.F, v.F)
			return
		}
	case FormStr:
		if v.K == types.KindString {
			c.Codes = append(c.Codes, c.Dict.Code(v.S))
			return
		}
	default:
		c.Vals = append(c.Vals, v)
		return
	}
	panic(fmt.Sprintf("vec: a %v value appended to a %v column", v.K, c.Kind))
}

// AppendInt appends a non-null fixed-width payload (Int/Date/Bool) without
// boxing. Callers must only use it on FormInt columns of the matching kind.
func (c *Col) AppendInt(x int64) { c.I = append(c.I, x) }

// AppendFloat appends a non-null float payload without boxing.
func (c *Col) AppendFloat(x float64) { c.F = append(c.F, x) }

// AppendCode appends a dictionary code minted from this column's Dict.
func (c *Col) AppendCode(code int32) { c.Codes = append(c.Codes, code) }

// AppendNull appends a NULL.
func (c *Col) AppendNull() { c.Append(types.Null) }

// Batch is one vectorized batch: N appended rows across Cols, with an
// optional selection vector. Sel == nil means all N rows are active;
// otherwise Sel lists the active row indices in order. Filters narrow a
// batch by rewriting Sel only — the column slabs are never compacted.
type Batch struct {
	Sch  types.Schema
	Cols []Col
	N    int
	Sel  []int32

	pooled bool // made by Get: Release hands it back
}

// New returns an empty batch laid out for the schema. String columns get a
// fresh dictionary owned by this batch's producer.
func New(sch types.Schema) *Batch {
	b := &Batch{Sch: sch, Cols: make([]Col, sch.Len())}
	for i, sc := range sch.Cols {
		b.Cols[i].Kind = sc.Kind
		b.Cols[i].Form = FormFor(sc.Kind)
		if b.Cols[i].Form == FormStr {
			b.Cols[i].Dict = NewDict()
		}
	}
	return b
}

// Rows returns the number of active rows (selection-aware).
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Index maps the k-th active row to its physical row index.
func (b *Batch) Index(k int) int {
	if b.Sel != nil {
		return int(b.Sel[k])
	}
	return k
}

// AppendRow appends one boxed row.
func (b *Batch) AppendRow(r types.Row) {
	for i := range b.Cols {
		b.Cols[i].Append(r[i])
	}
	b.N++
}

// FromRows builds a fresh batch, with no selection, from boxed rows.
func FromRows(sch types.Schema, rows []types.Row) *Batch {
	b := New(sch)
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// ReadRow boxes the physical row i into scratch (len == number of columns)
// and returns it. The scratch row must not outlive the batch unless its
// values are copied out (values themselves are immutable).
func (b *Batch) ReadRow(i int, scratch types.Row) types.Row {
	for c := range b.Cols {
		scratch[c] = b.Cols[c].Value(i)
	}
	return scratch
}

// Materialize boxes the active rows into slab (reusing its backing array),
// allocating one flat value array so rows stay retainable by callers under
// the row-slab contract.
func (b *Batch) Materialize(slab []types.Row) []types.Row {
	n := b.Rows()
	k := len(b.Cols)
	slab = slab[:0]
	if n == 0 {
		return slab
	}
	vals := make([]types.Value, n*k)
	for x := 0; x < n; x++ {
		i := b.Index(x)
		row := vals[x*k : (x+1)*k : (x+1)*k]
		for c := range b.Cols {
			row[c] = b.Cols[c].Value(i)
		}
		slab = append(slab, row)
	}
	return slab
}
