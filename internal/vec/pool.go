package vec

import (
	"math"
	"sync"

	"repro/internal/types"
)

// Batches and the scans' scratch columns are recycled through process-wide
// pools: a column slab per element type, dictionaries, and batch shells.
// Get builds a batch from them and Release hands it back; a scan's batch
// ships to its consumer, who releases it once it has read it, and the next
// scan — of this query or another — builds from what came back. A pooled
// slab keeps the capacity it grew to, so a steady stream of batches stops
// growing slabs and dictionary maps from empty.

// maxPooledLen bounds what the pools keep: a slab of more elements, or a
// dictionary of more entries, is dropped on return, not pooled, so the
// memory the pools hold between queries stays bounded. It is eight times
// the scans' default 1,024-row batch, which a batch overshoots by at most
// one page set.
const maxPooledLen = 8 << 10

// slabPool recycles slabs of one element type. Each slab travels in a
// *[]T holder, and the emptied holders are pooled as well, so neither Get
// nor a put allocates once the pools are warm.
type slabPool[T any] struct {
	slabs, holders sync.Pool
	// scrub: a returned slab is cleared over its whole capacity, because it
	// holds pointers (boxed values) or bits a later user might read (null
	// words). garbage is what an invariants build fills every returned slab
	// with instead.
	scrub   bool
	garbage T
}

func (p *slabPool[T]) get() []T {
	h, _ := p.slabs.Get().(*[]T)
	if h == nil {
		return nil
	}
	s := *h
	*h = nil
	p.holders.Put(h)
	return s[:0]
}

func (p *slabPool[T]) put(s []T) {
	if cap(s) == 0 || cap(s) > maxPooledLen {
		return
	}
	s = s[:cap(s)]
	switch {
	case poisonRecycled:
		for i := range s {
			s[i] = p.garbage
		}
	case p.scrub:
		clear(s)
	}
	h, _ := p.holders.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.slabs.Put(h)
}

var (
	int64Slabs   = slabPool[int64]{garbage: 0x5a5a5a5a5a5a5a5a}
	float64Slabs = slabPool[float64]{garbage: math.NaN()}
	codeSlabs    = slabPool[int32]{garbage: 0x5a5a5a5a} // beyond any dictionary
	nullSlabs    = slabPool[uint64]{scrub: true, garbage: math.MaxUint64}
	valueSlabs   = slabPool[types.Value]{scrub: true,
		garbage: types.Value{K: types.KindString, S: "\x5a a value of a released batch"}}
	dicts   sync.Pool // *Dict, reset
	batches sync.Pool // *Batch shells, Cols emptied
)

// GetDict returns an empty dictionary from the pools; PutDict hands it back.
func GetDict() *Dict {
	if d, _ := dicts.Get().(*Dict); d != nil {
		return d
	}
	return NewDict()
}

// PutDict resets d, which gives it a new ID, and pools it. Codes it handed
// out name nothing afterwards: only a dictionary no live batch holds may go
// back.
func PutDict(d *Dict) {
	if d == nil || d.Len() > maxPooledLen {
		return
	}
	d.Reset()
	dicts.Put(d)
}

// TakeSlabs gives c, for its layout, the payload slab and the null words it
// does not have yet, empty, from the pools. ReturnSlabs gives them back.
func (c *Col) TakeSlabs() {
	if c.Nulls == nil {
		c.Nulls = nullSlabs.get()
	}
	switch c.Form {
	case FormInt:
		if c.I == nil {
			c.I = int64Slabs.get()
		}
	case FormFloat:
		if c.F == nil {
			c.F = float64Slabs.get()
		}
	case FormStr:
		if c.Codes == nil {
			c.Codes = codeSlabs.get()
		}
	default:
		if c.Vals == nil {
			c.Vals = valueSlabs.get()
		}
	}
}

// ReturnSlabs hands every slab of c back to the pools and leaves c with
// none. Its dictionary stays: it may be another column's.
func (c *Col) ReturnSlabs() {
	int64Slabs.put(c.I)
	float64Slabs.put(c.F)
	codeSlabs.put(c.Codes)
	nullSlabs.put(c.Nulls)
	valueSlabs.put(c.Vals)
	c.I, c.F, c.Codes, c.Nulls, c.Vals = nil, nil, nil, nil, nil
}

// Get is New built from the pools: an empty batch laid out for sch whose
// slabs, dictionaries and shell are recycled. boxed, by column (nil: none),
// marks the string columns laid out boxed instead of dictionary-coded.
// Release hands the batch back.
func Get(sch types.Schema, boxed []bool) *Batch {
	b, _ := batches.Get().(*Batch)
	if b == nil {
		b = &Batch{}
	}
	n := sch.Len()
	if cap(b.Cols) < n {
		b.Cols = make([]Col, n)
	}
	b.Sch, b.Cols, b.N, b.Sel, b.pooled = sch, b.Cols[:n], 0, nil, true
	for i, sc := range sch.Cols {
		c := &b.Cols[i]
		c.Kind, c.Form = sc.Kind, FormFor(sc.Kind)
		if i < len(boxed) && boxed[i] {
			c.Form = FormBoxed
		}
		c.TakeSlabs()
		if c.Form == FormStr {
			c.Dict = GetDict()
		}
	}
	return b
}

// Release hands a batch from Get back to the pools; on any other batch it
// does nothing, so a batch built by New or by hand is never pooled. Its
// null words and boxed values are cleared over their whole capacity, its
// dictionaries reset (a new ID each: a memo kept under the old one goes
// stale visibly), and a slab or dictionary far larger than a batch is
// dropped. An invariants build overwrites every slab with garbage instead
// of clearing it. Release is the consumer's last touch: afterwards nothing
// reads the batch or anything reachable from it.
func (b *Batch) Release() {
	if b == nil || !b.pooled {
		return
	}
	for i := range b.Cols {
		c := &b.Cols[i]
		PutDict(c.Dict)
		c.ReturnSlabs()
		*c = Col{}
	}
	b.Sch, b.Cols, b.N, b.Sel, b.pooled = types.Schema{}, b.Cols[:0], 0, nil, false
	batches.Put(b)
}
