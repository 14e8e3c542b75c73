package exec

import (
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// Typed accumulation entry points for the vector aggregate. They fold an
// unboxed payload into the state with exactly the semantics of add():
// count++, integer kinds feed both sumI and sumF, floats set isFloat and
// feed sumF only, min/max ordered as types.Compare orders them. The
// same-kind fast compare is taken when the running extreme already has the
// value's kind (the common case on a fixed-kind column); mixed-kind states
// fall back to types.Compare so a demoted column stays correct.

// addInt folds a non-null fixed-width payload (Int/Date/Bool kind k).
func (s *aggState) addInt(k types.Kind, x int64) {
	s.seenAny = true
	s.count++
	s.sumI += x
	s.sumF += float64(x)
	if s.min.K == k {
		if x < s.min.I {
			s.min = types.Value{K: k, I: x}
		}
	} else {
		v := types.Value{K: k, I: x}
		if s.min.IsNull() || types.Compare(v, s.min) < 0 {
			s.min = v
		}
	}
	if s.max.K == k {
		if x > s.max.I {
			s.max = types.Value{K: k, I: x}
		}
	} else {
		v := types.Value{K: k, I: x}
		if s.max.IsNull() || types.Compare(v, s.max) > 0 {
			s.max = v
		}
	}
}

// addFloat folds a non-null float payload.
func (s *aggState) addFloat(x float64) {
	s.seenAny = true
	s.count++
	s.isFloat = true
	s.sumF += x
	if s.min.K == types.KindFloat {
		if x < s.min.F {
			s.min = types.NewFloat(x)
		}
	} else {
		v := types.NewFloat(x)
		if s.min.IsNull() || types.Compare(v, s.min) < 0 {
			s.min = v
		}
	}
	if s.max.K == types.KindFloat {
		if x > s.max.F {
			s.max = types.NewFloat(x)
		}
	} else {
		v := types.NewFloat(x)
		if s.max.IsNull() || types.Compare(v, s.max) > 0 {
			s.max = v
		}
	}
}

// vecAggKey is the comparable group key of the vector aggregate: up to two
// key columns packed as raw uint64 payloads (int64 bits, or a dictionary
// code minted from the aggregate's own dictionary so codes are stable
// across input batches). The flags byte disambiguates NULL slots and
// escape-coded slots, keeping the value→key mapping injective.
type vecAggKey struct {
	v0, v1 uint64
	flags  uint8
}

// vecAggKey flag bits.
const (
	vkNull0 uint8 = 1 << iota
	vkNull1
	vkEsc0
	vkEsc1
)

// vecKeyCol is one group-key column of the vector aggregate.
type vecKeyCol struct {
	idx  int
	kind types.Kind
	// dict is the aggregate-owned dictionary for a string key column.
	// Producer codes are remapped into it per batch, so key slots stay
	// stable even though scan batches carry fresh dictionaries.
	dict  *vec.Dict
	remap []int32
}

// vecSpecAcc is the per-batch accessor for one aggregate argument.
type vecSpecAcc struct {
	mode uint8 // 0=COUNT(*), 1=typed int, 2=typed float, 3=boxed column, 4=row eval
	kind types.Kind
	col  *vec.Col
}

// VecHashAggregate is the vector-native grouping operator: group keys are
// read straight off typed column slabs into a comparable struct key —
// HashAggregate's per-row scratch key encoding (evaluate, box, binary-encode,
// map[string] lookup) goes away — and aggregate arguments accumulate from
// unboxed payloads. Semantics mirror HashAggregate exactly: same output
// schema, same NULL handling, same spill discipline (new groups past the
// MemRows budget spill their raw input rows; spilled keys are provably
// disjoint from in-memory groups, so the overflow pass is delegated to an
// inner row HashAggregate over the spill file).
//
// Unsupported shapes (Merge/Final modes, >2 group keys, non-column or
// float-keyed grouping, DISTINCT) never reach this type: the constructor
// returns an adapted row HashAggregate instead.
type VecHashAggregate struct {
	ctx      *Ctx
	in       VecOperator
	groupBy  []expr.Expr
	specs    []AggSpec
	mode     AggMode
	out      types.Schema
	keys     []vecKeyCol
	accs     []vecSpecAcc
	escape   map[string]uint64
	groups   map[vecAggKey]*aggGroup
	results  []types.Row
	pos      int
	prepared bool
	ob       *vec.Batch
	scratch  types.Row
}

// NewVecHashAggregate builds a vector aggregation over a vector input.
// Shapes the typed fast path cannot group fall back to HashAggregate
// behind the ToVec adapter, so the constructor is total.
func NewVecHashAggregate(ctx *Ctx, in VecOperator, groupBy []expr.Expr, specs []AggSpec, mode AggMode) VecOperator {
	if !vecAggSupported(in.Schema(), groupBy, specs, mode) {
		return ToVec(NewHashAggregate(ctx, in, groupBy, specs, mode))
	}
	a := &VecHashAggregate{ctx: ctx, in: in, groupBy: groupBy, specs: specs, mode: mode}
	a.out = aggOutputSchema(in.Schema(), groupBy, specs, mode)
	inSch := in.Schema()
	for _, g := range groupBy {
		c := g.(*expr.Col)
		kc := vecKeyCol{idx: c.Index, kind: inSch.Cols[c.Index].Kind}
		if kc.kind == types.KindString {
			kc.dict = vec.NewDict()
		}
		a.keys = append(a.keys, kc)
	}
	a.accs = make([]vecSpecAcc, len(specs))
	return a
}

// vecAggSupported reports whether the typed fast path can run this shape.
func vecAggSupported(inSch types.Schema, groupBy []expr.Expr, specs []AggSpec, mode AggMode) bool {
	if mode != AggComplete && mode != AggPartial {
		return false
	}
	if len(groupBy) > 2 {
		return false
	}
	for _, g := range groupBy {
		c, ok := g.(*expr.Col)
		if !ok || c.Index < 0 || c.Index >= inSch.Len() {
			return false
		}
		switch inSch.Cols[c.Index].Kind {
		case types.KindInt, types.KindDate, types.KindBool, types.KindString:
		default:
			return false
		}
	}
	for _, sp := range specs {
		if sp.Distinct {
			return false
		}
	}
	return true
}

// Schema implements Operator.
func (a *VecHashAggregate) Schema() types.Schema { return a.out }

// Open implements Operator.
func (a *VecHashAggregate) Open() error {
	a.results, a.pos, a.prepared = nil, 0, false
	a.groups = nil
	a.escape = nil
	return a.in.Open()
}

// Close implements Operator.
func (a *VecHashAggregate) Close() error { return a.in.Close() }

// escapeCode interns the binary encoding of a value whose kind does not
// match its column's schema kind (possible only on a demoted mixed-kind
// column) and returns a sequential id for the key slot. Escaped slots are
// flagged in vecAggKey, so ids never collide with raw payloads.
func (a *VecHashAggregate) escapeCode(v types.Value) uint64 {
	if a.escape == nil {
		a.escape = map[string]uint64{}
	}
	k := string(types.AppendValue(nil, v))
	c, ok := a.escape[k]
	if !ok {
		c = uint64(len(a.escape))
		a.escape[k] = c
	}
	return c
}

// prepare drains the vector input building group states, then emits result
// rows and folds any spilled rows through an inner row aggregate.
func (a *VecHashAggregate) prepare() error {
	a.groups = make(map[vecAggKey]*aggGroup)
	var spill *spillWriter
	fail := func(err error) error {
		if spill != nil {
			spill.abort()
		}
		return err
	}
	for {
		b, ok, err := a.in.NextVec()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		if err := a.ingest(b, &spill); err != nil {
			return fail(err)
		}
	}
	a.emit()

	// Spilled rows hold exactly the groups that never fit in memory, so the
	// overflow pass is a self-contained row aggregation whose output rows
	// append directly to ours (it applies the same MemRows budget and
	// recurses over its own spill passes).
	if spill != nil {
		rd, err := spill.finish()
		if err != nil {
			return err
		}
		rows, err := Collect(NewHashAggregate(a.ctx, &spillSource{ctx: a.ctx, sch: a.in.Schema(), rd: rd}, a.groupBy, a.specs, a.mode))
		if err != nil {
			return err
		}
		a.results = append(a.results, rows...)
	}

	// No GROUP BY: SQL semantics require one output row even on empty input.
	if len(a.groupBy) == 0 && len(a.results) == 0 {
		st := newAggState(false)
		out := types.Row{}
		if a.mode == AggPartial {
			for range a.specs {
				out = append(out, st.partial()...)
			}
		} else {
			for _, sp := range a.specs {
				out = append(out, st.final(sp.Kind))
			}
		}
		a.results = append(a.results, out)
	}
	a.prepared = true
	return nil
}

// ingest folds one input batch into the group table.
func (a *VecHashAggregate) ingest(b *vec.Batch, spill **spillWriter) error {
	n := b.Rows()
	if n == 0 {
		return nil
	}
	if a.ctx != nil {
		a.ctx.RowsProcessed.Add(int64(n))
	}

	// Per-batch key-column state: a fresh producer dictionary needs a fresh
	// remap table (filled lazily, one entry per distinct code).
	for ki := range a.keys {
		kc := &a.keys[ki]
		c := &b.Cols[kc.idx]
		if c.Form == vec.FormStr && c.Dict != nil {
			dl := c.Dict.Len()
			if cap(kc.remap) < dl {
				kc.remap = make([]int32, dl)
			} else {
				kc.remap = kc.remap[:dl]
			}
			for j := range kc.remap {
				kc.remap[j] = -1
			}
		}
	}

	// Per-batch argument accessors.
	for si := range a.specs {
		ac := &a.accs[si]
		ac.mode, ac.col = 4, nil
		if a.specs[si].Arg == nil {
			ac.mode = 0
			continue
		}
		if c, ok := a.specs[si].Arg.(*expr.Col); ok && c.Index >= 0 && c.Index < len(b.Cols) {
			col := &b.Cols[c.Index]
			switch col.Form {
			case vec.FormInt:
				ac.mode, ac.col, ac.kind = 1, col, col.Kind
			case vec.FormFloat:
				ac.mode, ac.col = 2, col
			default:
				ac.mode, ac.col = 3, col
			}
		}
	}

	if a.scratch == nil {
		a.scratch = make(types.Row, len(b.Cols))
	}
	for k := 0; k < n; k++ {
		i := b.Index(k)
		var key vecAggKey
		for ki := range a.keys {
			kc := &a.keys[ki]
			c := &b.Cols[kc.idx]
			var u uint64
			var null, esc bool
			switch {
			case c.Form == vec.FormInt && c.Kind == kc.kind:
				if c.IsNull(i) {
					null = true
				} else {
					u = uint64(c.I[i])
				}
			case c.Form == vec.FormStr:
				if c.IsNull(i) {
					null = true
				} else {
					code := c.Codes[i]
					m := kc.remap[code]
					if m < 0 {
						m = kc.dict.Code(c.Dict.Str(code))
						kc.remap[code] = m
					}
					u = uint64(m)
				}
			default:
				v := c.Value(i)
				switch {
				case v.K == types.KindNull:
					null = true
				case v.K == kc.kind && kc.kind == types.KindString:
					u = uint64(kc.dict.Code(v.S))
				case v.K == kc.kind:
					u = uint64(v.I)
				default:
					u, esc = a.escapeCode(v), true
				}
			}
			if ki == 0 {
				key.v0 = u
				if null {
					key.flags |= vkNull0
				}
				if esc {
					key.flags |= vkEsc0
				}
			} else {
				key.v1 = u
				if null {
					key.flags |= vkNull1
				}
				if esc {
					key.flags |= vkEsc1
				}
			}
		}

		g, ok := a.groups[key]
		if !ok {
			if a.ctx != nil && a.ctx.MemRows > 0 && len(a.groups) >= a.ctx.MemRows {
				if *spill == nil {
					sw, err := newSpillWriter(a.ctx, "agg-spill-*")
					if err != nil {
						return err
					}
					*spill = sw
				}
				if err := (*spill).write(b.ReadRow(i, a.scratch)); err != nil {
					return err
				}
				continue
			}
			keyRow := make(types.Row, len(a.keys))
			for ki := range a.keys {
				keyRow[ki] = b.Cols[a.keys[ki].idx].Value(i)
			}
			g = &aggGroup{key: keyRow, states: make([]*aggState, len(a.specs))}
			for si := range a.specs {
				g.states[si] = newAggState(false)
			}
			a.groups[key] = g
			if a.ctx != nil {
				a.ctx.addState(int64(types.RowEncodedSize(keyRow)) + int64(48*len(a.specs)))
			}
		}

		var row types.Row
		for si := range a.specs {
			ac := &a.accs[si]
			st := g.states[si]
			switch ac.mode {
			case 0:
				st.addCountStar()
			case 1:
				if !ac.col.IsNull(i) {
					st.addInt(ac.kind, ac.col.I[i])
				}
			case 2:
				if !ac.col.IsNull(i) {
					st.addFloat(ac.col.F[i])
				}
			case 3:
				st.add(ac.col.Value(i))
			default:
				if row == nil {
					row = b.ReadRow(i, a.scratch)
				}
				v, err := a.specs[si].Arg.Eval(row)
				if err != nil {
					return err
				}
				st.add(v)
			}
		}
	}
	return nil
}

// emit renders the in-memory groups as result rows and drops the table.
func (a *VecHashAggregate) emit() {
	for _, g := range a.groups {
		out := g.key.Clone()
		if a.mode == AggPartial {
			for _, st := range g.states {
				out = append(out, st.partial()...)
			}
		} else {
			for si, sp := range a.specs {
				out = append(out, g.states[si].final(sp.Kind))
			}
		}
		a.results = append(a.results, out)
	}
	a.groups = nil
}

// NextBatch implements Operator, serving prepared results in windows.
func (a *VecHashAggregate) NextBatch() ([]types.Row, bool, error) {
	if !a.prepared {
		if err := a.prepare(); err != nil {
			return nil, false, err
		}
	}
	return nextWindow(a.results, &a.pos, a.ctx.batchRows())
}

// NextVec implements VecOperator, serving prepared results as vector
// batches (re-vectorized windows over the result rows).
func (a *VecHashAggregate) NextVec() (*vec.Batch, bool, error) {
	rows, ok, err := a.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	a.ob = vec.FromRows(a.out, rows, a.ob)
	return a.ob, true, nil
}

// spillSource adapts a spillReader to the Operator interface so spilled
// rows can feed an inner aggregation directly.
type spillSource struct {
	ctx *Ctx
	sch types.Schema
	rd  *spillReader
}

func (s *spillSource) Schema() types.Schema { return s.sch }

func (s *spillSource) Open() error { return nil }

func (s *spillSource) NextBatch() ([]types.Row, bool, error) {
	return s.rd.nextBatch(s.ctx.batchRows())
}

func (s *spillSource) Close() error {
	s.rd.close()
	return nil
}
