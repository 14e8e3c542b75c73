package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/vec"
)

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	AggSum AggKind = iota + 1
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "?"
	}
}

// AggSpec describes one aggregate output.
type AggSpec struct {
	Kind     AggKind
	Arg      expr.Expr // nil for COUNT(*)
	Distinct bool
	Name     string // output column name
}

// AggMode selects how the operator participates in distributed aggregation.
type AggMode uint8

// Aggregation modes: Complete computes final values locally; Partial emits
// mergeable states (the paper's pre-aggregation / MapReduce combiner);
// Merge combines partial states and can itself be chained up the tree
// topology; Final merges states and emits final values.
const (
	AggComplete AggMode = iota + 1
	AggPartial
	AggMerge
	AggFinal
)

// partialCols is the width of one aggregate's state in a Partial or Merge
// row: sum, count, min, max. Each kind fills only what it reads and leaves
// the rest NULL — SUM and AVG the sum, MIN the min, MAX the max — and every
// kind carries the count: COUNT's value, AVG's divisor, and for the others
// whether any value was folded at all.
const partialCols = 4

// extForm is how a MIN or MAX column holds its extremes.
type extForm uint8

const (
	extNone  extForm = iota // not a MIN or MAX
	extInt                  // int64 payloads of extKind (INT or DATE)
	extFloat                // float64
	extBoxed                // types.Value, ordered by types.Compare
)

// valueBytes is the size of a types.Value: kind, int, float, string header.
const valueBytes = 40

// aggCol is one aggregate's state, one entry per group number, holding only
// what the aggregate's kind reads. Every kind counts in n the non-NULL
// values it folded (the rows, for COUNT(*)). SUM and AVG add a sum: int64
// when the SUM's output kind is INT, float64 otherwise and for AVG; a FLOAT
// value that reaches an INT sum (an argument whose declared kind is wrong)
// promotes the column to float64 sums, so no value is truncated. MIN and MAX
// add an extreme, unboxed for a
// numeric or date argument; a value of another kind demotes the column to
// boxed extremes.
type aggCol struct {
	kind    AggKind
	float   bool // SUM, AVG: the sum is float64
	ext     extForm
	extKind types.Kind
	dedup   bool // DISTINCT over raw rows
	n       []int64
	sumI    []int64
	sumF    []float64
	extI    []int64
	extF    []float64
	extV    []types.Value
	// distinct is, by group, the encoded values a DISTINCT aggregate has
	// folded.
	distinct []map[string]bool
}

// newAggCol lays out the state of one aggregate whose value has kind out
// (HashAggregate.kinds).
func newAggCol(kind AggKind, out types.Kind, dedup bool) aggCol {
	c := aggCol{kind: kind, dedup: dedup}
	switch kind {
	case AggSum:
		c.float = out != types.KindInt
	case AggAvg:
		c.float = true
	case AggMin, AggMax:
		c.extKind = out
		switch out {
		case types.KindInt, types.KindDate:
			c.ext = extInt
		case types.KindFloat:
			c.ext = extFloat
		default:
			c.ext = extBoxed
		}
	}
	return c
}

// groupBytes is what the column holds per group.
func (c *aggCol) groupBytes() int64 {
	n := int64(8)
	if c.kind == AggSum || c.kind == AggAvg {
		n += 8
	}
	switch c.ext {
	case extInt, extFloat:
		n += 8
	case extBoxed:
		n += valueBytes
	}
	if c.dedup {
		n += 8
	}
	return n
}

// grow adds the state of a new group, which has folded nothing.
func (c *aggCol) grow() {
	c.n = push(c.n, 0)
	if c.kind == AggSum || c.kind == AggAvg {
		if c.float {
			c.sumF = push(c.sumF, 0)
		} else {
			c.sumI = push(c.sumI, 0)
		}
	}
	switch c.ext {
	case extInt:
		c.extI = push(c.extI, 0)
	case extFloat:
		c.extF = push(c.extF, 0)
	case extBoxed:
		c.extV = push(c.extV, types.Null)
	}
	if c.dedup {
		c.distinct = push(c.distinct, nil)
	}
}

// push appends v to s, doubling a full array where append grows a large one
// by a quarter: a table filled one group at a time then copies each of its
// arrays a bounded number of times.
func push[T any](s []T, v ...T) []T {
	if len(s)+len(v) > cap(s) {
		s = slices.Grow(s, max(len(s), len(v)))
	}
	return append(s, v...)
}

// reset drops every group's state, keeping the arrays.
func (c *aggCol) reset() {
	clear(c.extV)
	clear(c.distinct)
	c.n, c.sumI, c.sumF = c.n[:0], c.sumI[:0], c.sumF[:0]
	c.extI, c.extF, c.extV, c.distinct = c.extI[:0], c.extF[:0], c.extV[:0], c.distinct[:0]
}

// add folds one argument value of a raw row into group g.
func (c *aggCol) add(g int32, v types.Value) {
	if v.IsNull() {
		return
	}
	if c.dedup {
		set := c.distinct[g]
		if set == nil {
			set = map[string]bool{}
			c.distinct[g] = set
		}
		key := string(types.AppendValue(nil, v))
		if set[key] {
			return
		}
		set[key] = true
	}
	c.fold(g, v)
	c.n[g]++
}

// fold folds a non-NULL value into group g's sum or extreme; the caller
// counts it. Integer kinds (INT, DATE, BOOLEAN) add their payload to a sum,
// a string adds nothing.
func (c *aggCol) fold(g int32, v types.Value) {
	switch c.kind {
	case AggSum, AggAvg:
		switch v.K {
		case types.KindInt, types.KindDate, types.KindBool:
			c.addInt(g, v.I)
		case types.KindFloat:
			c.addFloat(g, v.F)
		}
	case AggMin, AggMax:
		c.foldExt(g, v)
	}
}

func (c *aggCol) addInt(g int32, x int64) {
	if c.float {
		c.sumF[g] += float64(x)
	} else {
		c.sumI[g] += x
	}
}

// addFloat adds x to group g's sum. An int64 sum column is first rewritten
// as a float64 one, so x is not truncated.
func (c *aggCol) addFloat(g int32, x float64) {
	if !c.float {
		sums := make([]float64, len(c.sumI), cap(c.sumI))
		for sg, s := range c.sumI {
			sums[sg] = float64(s)
		}
		c.float, c.sumI, c.sumF = true, nil, sums
	}
	c.sumF[g] += x
}

// foldExt folds a non-NULL value into group g's extreme, before n counts it.
func (c *aggCol) foldExt(g int32, v types.Value) {
	first, isMin := c.n[g] == 0, c.kind == AggMin
	switch {
	case c.ext == extInt && v.K == c.extKind:
		if x := v.I; first || isMin && x < c.extI[g] || !isMin && x > c.extI[g] {
			c.extI[g] = x
		}
	case c.ext == extFloat && v.K == types.KindFloat:
		if x := v.F; first || isMin && x < c.extF[g] || !isMin && x > c.extF[g] {
			c.extF[g] = x
		}
	default:
		if c.ext != extBoxed {
			c.demote()
		}
		if cmp := types.Compare(v, c.extV[g]); first || isMin && cmp < 0 || !isMin && cmp > 0 {
			c.extV[g] = v
		}
	}
}

// demote rewrites the column's typed extremes as boxed ones.
func (c *aggCol) demote() {
	vals := make([]types.Value, len(c.n))
	for g := range vals {
		if c.n[g] > 0 {
			vals[g] = c.extValue(int32(g))
		}
	}
	c.ext, c.extI, c.extF, c.extV = extBoxed, nil, nil, vals
}

// extValue boxes group g's extreme.
func (c *aggCol) extValue(g int32) types.Value {
	switch c.ext {
	case extInt:
		return types.Value{K: c.extKind, I: c.extI[g]}
	case extFloat:
		return types.NewFloat(c.extF[g])
	default:
		return c.extV[g]
	}
}

// sum boxes group g's sum in the column's kind.
func (c *aggCol) sum(g int32) types.Value {
	if c.float {
		return types.NewFloat(c.sumF[g])
	}
	return types.NewInt(c.sumI[g])
}

// foldNum folds a kernel's values into the column, the k-th into group
// gs[k] (none when negative: that row spilled), in one loop over the batch.
// kind is the kind of an integer vector's values, INT or DATE. A COUNT, or a
// sum the vector's representation matches, of a vector without NULLs takes
// its counts from rows, the batch's rows by group. A DISTINCT aggregate, a
// boxed extreme, and values of another kind than a typed extreme's go
// through add one boxed value at a time.
func (c *aggCol) foldNum(gs []int32, nv numVec, kind types.Kind, rows *batchRows) {
	null := nv.null
	if c.dedup || c.ext == extBoxed || c.ext == extInt && (nv.isFloat || kind != c.extKind) || c.ext == extFloat && !nv.isFloat {
		for k, g := range gs {
			if g >= 0 && (null == nil || !null[k]) {
				if nv.isFloat {
					c.add(g, types.NewFloat(nv.f[k]))
				} else {
					c.add(g, types.Value{K: kind, I: nv.i[k]})
				}
			}
		}
		return
	}
	isMin := c.kind == AggMin
	switch {
	case c.kind == AggCount && null == nil:
		rows.addTo(c.n)
	case c.kind == AggCount:
		cnt := c.n
		for k, g := range gs {
			if g >= 0 && (null == nil || !null[k]) {
				cnt[g]++
			}
		}
	case c.ext == extInt:
		ext, cnt := c.extI, c.n
		for k, g := range gs {
			if g < 0 || null != nil && null[k] {
				continue
			}
			if x := nv.i[k]; cnt[g] == 0 || isMin && x < ext[g] || !isMin && x > ext[g] {
				ext[g] = x
			}
			cnt[g]++
		}
	case c.ext == extFloat:
		ext, cnt := c.extF, c.n
		for k, g := range gs {
			if g < 0 || null != nil && null[k] {
				continue
			}
			if x := nv.f[k]; cnt[g] == 0 || isMin && x < ext[g] || !isMin && x > ext[g] {
				ext[g] = x
			}
			cnt[g]++
		}
	case nv.isFloat && c.float && null == nil:
		sum, f := c.sumF, nv.f[:len(gs)]
		for k, g := range gs {
			if g >= 0 {
				sum[g] += f[k]
			}
		}
		rows.addTo(c.n)
	case !nv.isFloat && !c.float && null == nil:
		sum, x := c.sumI, nv.i[:len(gs)]
		for k, g := range gs {
			if g >= 0 {
				sum[g] += x[k]
			}
		}
		rows.addTo(c.n)
	case nv.isFloat && c.float:
		sum, cnt, f := c.sumF, c.n, nv.f[:len(gs)]
		for k, g := range gs {
			if g >= 0 && (null == nil || !null[k]) {
				sum[g] += f[k]
				cnt[g]++
			}
		}
	case !nv.isFloat && !c.float:
		sum, cnt, x := c.sumI, c.n, nv.i[:len(gs)]
		for k, g := range gs {
			if g >= 0 && (null == nil || !null[k]) {
				sum[g] += x[k]
				cnt[g]++
			}
		}
	default:
		for k, g := range gs {
			if g < 0 || null != nil && null[k] {
				continue
			}
			if nv.isFloat {
				c.addFloat(g, nv.f[k])
			} else {
				c.addInt(g, nv.i[k])
			}
			c.n[g]++
		}
	}
}

// merge folds one aggregate's segment of a partial-state row into group g.
func (c *aggCol) merge(g int32, seg types.Row) {
	cnt := seg[1].Int()
	if cnt == 0 {
		return
	}
	var v types.Value
	switch c.kind {
	case AggSum, AggAvg:
		v = seg[0]
	case AggMin:
		v = seg[2]
	case AggMax:
		v = seg[3]
	}
	if !v.IsNull() {
		c.fold(g, v)
	}
	c.n[g] += cnt
}

// combine folds group og of another table's column for the same aggregate
// into group g — the merge step of the parallel build, where each worker
// accumulated a disjoint share of the group's input rows. Distinct sets are
// not combined (each worker deduplicated only its own share), which is why
// raw DISTINCT aggregation runs at degree 1.
func (c *aggCol) combine(g int32, o *aggCol, og int32) {
	if o.n[og] == 0 {
		return
	}
	switch c.kind {
	case AggSum, AggAvg:
		if o.float {
			c.addFloat(g, o.sumF[og])
		} else {
			c.addInt(g, o.sumI[og])
		}
	case AggMin, AggMax:
		c.foldExt(g, o.extValue(og))
	}
	c.n[g] += o.n[og]
}

// appendPartial appends group g's mergeable state: sum, count, min, max.
func (c *aggCol) appendPartial(out []types.Value, g int32) []types.Value {
	n := c.n[g]
	sum, lo, hi := types.Null, types.Null, types.Null
	if n > 0 {
		switch c.kind {
		case AggSum, AggAvg:
			sum = c.sum(g)
		case AggMin:
			lo = c.extValue(g)
		case AggMax:
			hi = c.extValue(g)
		}
	}
	return append(out, sum, types.NewInt(n), lo, hi)
}

// final computes group g's value of an aggregate of the given kind that
// reads the column: its own, or an AVG reading a SUM's (shareSums).
func (c *aggCol) final(g int32, kind AggKind) types.Value {
	n := c.n[g]
	switch {
	case kind == AggCount:
		return types.NewInt(n)
	case n == 0:
		return types.Null
	case kind == AggSum:
		return c.sum(g)
	case kind == AggAvg:
		return types.NewFloat(c.sumF[g] / float64(n))
	default:
		return c.extValue(g)
	}
}

// HashAggregate groups rows by key columns and computes aggregates. With
// a memory budget it spills overflow groups' input rows to disk partitions
// and processes them after the in-memory pass (the paper's "operators can
// spill data to disk to limit memory consumption").
//
// The build has two front ends onto one group table: row slabs from
// In.NextBatch (aggTable.ingest), or — when the plan was lowered over a typed
// producer (NewTypedHashAggregate) — typed batches from its NextVec
// (aggTable.ingestBatch). Both file a key under the same hash and compare it
// by the same equality, so everything behind the lookup (budget, spill,
// partitioned merge, emit) exists once and a typed build's spilled rows
// merge through the row front end.
type HashAggregate struct {
	In      Operator
	GroupBy []expr.Expr // group key expressions over the input
	Specs   []AggSpec
	Mode    AggMode
	// Parallel is the desired table-build parallelism: prepare asks the Ctx
	// budget for that many workers and builds with however many it is
	// granted (one for 0/1, and for raw DISTINCT aggregation, which cannot
	// merge).
	Parallel int
	// Trace, when non-nil, records the granted worker count and which front
	// end the build read.
	Trace *obs.Span
	typed VecOperator  // In's typed face; nil builds from row slabs
	kinds []types.Kind // by aggregate: the kind of its value (aggKinds)
	// The layout of the state (shareSums): by aggregate, the state column
	// (aggTable.cols) it reads, and by state column, the aggregate whose
	// argument folds into it.
	stateOf   []int
	stateSpec []int
	ctx       *Ctx
	spills    spillSet
	out       types.Schema
	results   []types.Row
	pos       int
	prepared  bool
}

// NewHashAggregate builds an aggregation operator. For Merge/Final modes
// the input schema must be groupCols ++ partial states (4 columns per spec).
func NewHashAggregate(ctx *Ctx, in Operator, groupBy []expr.Expr, specs []AggSpec, mode AggMode) *HashAggregate {
	h := &HashAggregate{In: in, GroupBy: groupBy, Specs: specs, Mode: mode, ctx: ctx}
	h.kinds = aggKinds(in.Schema(), len(groupBy), specs, mode == AggMerge || mode == AggFinal)
	h.out = aggOutputSchema(in.Schema(), groupBy, specs, h.kinds, mode)
	h.stateOf = make([]int, len(specs))
	h.stateSpec = make([]int, len(specs))
	for i := range specs {
		h.stateOf[i], h.stateSpec[i] = i, i
	}
	return h
}

// NewTypedHashAggregate builds a Complete or Partial aggregation whose build
// reads in's typed batches. Above degree 1 a batch crosses to a build worker
// uncopied, so in must ship every batch freshly built, as VecColumnarScan
// does (an adapter that refills one batch does not qualify).
func NewTypedHashAggregate(ctx *Ctx, in VecOperator, groupBy []expr.Expr, specs []AggSpec, mode AggMode) *HashAggregate {
	h := NewHashAggregate(ctx, in, groupBy, specs, mode)
	h.typed = in
	h.stateOf, h.stateSpec = shareSums(in.Schema(), specs, h.kinds)
	return h
}

// shareSums lays out a typed build's state: by aggregate, the state column
// it reads, and by state column, the aggregate whose argument folds into it.
// An AVG reads the sum and count of a SUM of the same argument — one node
// of a numDAG — that keeps a float64 sum as AVG does: both would fold the
// same values in the same order, and their partial states are alike. The
// row front end's own aggregate keeps a column per aggregate, so it stays
// the oracle of this layout.
func shareSums(sch types.Schema, specs []AggSpec, kinds []types.Kind) (stateOf, stateSpec []int) {
	dag := newNumDAG()
	sums := map[numNode]int{} // a float SUM's argument: the SUM
	reads := make([]int, len(specs))
	for i, sp := range specs {
		reads[i] = i
		if sp.Kind == AggSum && !sp.Distinct && sp.Arg != nil && kinds[i] != types.KindInt {
			if node := dag.compile(sp.Arg, sch); node != nil {
				if _, ok := sums[node]; !ok {
					sums[node] = i
				}
			}
		}
	}
	for i, sp := range specs {
		if sp.Kind == AggAvg && !sp.Distinct && sp.Arg != nil {
			if j, ok := sums[dag.compile(sp.Arg, sch)]; ok {
				reads[i] = j
			}
		}
	}
	stateOf = make([]int, len(specs))
	for i, j := range reads {
		if j == i {
			stateOf[i] = len(stateSpec)
			stateSpec = append(stateSpec, i)
		}
	}
	for i, j := range reads {
		stateOf[i] = stateOf[j]
	}
	return stateOf, stateSpec
}

// aggKinds returns, by aggregate, the kind of its value: its output column
// in Complete and Final mode, and the kind its partial state carries in
// Partial and Merge. Over raw rows it follows from the argument: COUNT is
// INT, AVG FLOAT, SUM INT over an INT argument and FLOAT otherwise, MIN and
// MAX their argument's kind. Over partial states it is read back from the
// state columns Partial declared with it.
func aggKinds(in types.Schema, nGroup int, specs []AggSpec, fromStates bool) []types.Kind {
	kinds := make([]types.Kind, len(specs))
	for i, sp := range specs {
		state := func(off int) types.Kind {
			if c := nGroup + i*partialCols + off; c < in.Len() {
				return in.Cols[c].Kind
			}
			return types.KindNull
		}
		arg := types.KindFloat
		if sp.Arg != nil {
			arg = expr.KindOf(sp.Arg, in)
		}
		k := types.KindFloat
		switch {
		case sp.Kind == AggCount:
			k = types.KindInt
		case sp.Kind == AggSum && fromStates:
			if state(0) == types.KindInt {
				k = types.KindInt
			}
		case sp.Kind == AggSum:
			if arg == types.KindInt {
				k = types.KindInt
			}
		case sp.Kind == AggMin && fromStates:
			k = state(2)
		case sp.Kind == AggMax && fromStates:
			k = state(3)
		case sp.Kind == AggMin, sp.Kind == AggMax:
			k = arg
		}
		kinds[i] = k
	}
	return kinds
}

// aggOutputSchema computes the aggregation output schema: group columns
// followed by either partial-state columns (Partial/Merge) or final value
// columns.
func aggOutputSchema(inSch types.Schema, groupBy []expr.Expr, specs []AggSpec, kinds []types.Kind, mode AggMode) types.Schema {
	var cols []types.Column
	for gi, g := range groupBy {
		name := g.String()
		if c, ok := g.(*expr.Col); ok && c.Name != "" {
			name = c.Name
		} else if name == "" {
			name = fmt.Sprintf("group%d", gi)
		}
		cols = append(cols, types.Column{Name: name, Kind: expr.KindOf(g, inSch)})
	}
	switch mode {
	case AggPartial, AggMerge:
		for i, sp := range specs {
			sum, lo, hi := types.KindFloat, types.KindNull, types.KindNull
			switch sp.Kind {
			case AggSum:
				sum = kinds[i]
			case AggMin:
				lo = kinds[i]
			case AggMax:
				hi = kinds[i]
			}
			base := sp.Name
			cols = append(cols,
				types.Column{Name: base + "$sum", Kind: sum},
				types.Column{Name: base + "$cnt", Kind: types.KindInt},
				types.Column{Name: base + "$min", Kind: lo},
				types.Column{Name: base + "$max", Kind: hi},
			)
		}
	default:
		for i, sp := range specs {
			cols = append(cols, types.Column{Name: sp.Name, Kind: kinds[i]})
		}
	}
	return types.Schema{Cols: cols}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() types.Schema { return h.out }

// Open implements Operator.
func (h *HashAggregate) Open() error {
	h.results = nil
	h.pos = 0
	h.prepared = false
	return h.In.Open()
}

// prepare drains the input into one aggTable per granted worker, merges the
// tables partition by partition and keeps the result rows. Raw DISTINCT
// aggregation means degree 1: each worker would deduplicate only its own
// share of the input, and distinct states cannot be combined.
func (h *HashAggregate) prepare() error {
	fromStates := h.Mode == AggMerge || h.Mode == AggFinal
	if fromStates {
		if err := validateAggSchema(h.In.Schema(), h.GroupBy, h.Specs); err != nil {
			return err
		}
	}
	want := h.Parallel
	if !fromStates {
		for _, sp := range h.Specs {
			if sp.Distinct {
				want = 1
			}
		}
	}
	degree := h.ctx.AcquireWorkers(want)
	defer h.ctx.ReleaseWorkers(degree)
	h.Trace.AddWorkers(int64(degree))
	h.Trace.SetInput(h.typed != nil)

	// Partitions are what lets the merge run in parallel, so one worker
	// keeps one.
	pbits := uint(0)
	if degree > 1 {
		pbits = 4
		for 1<<pbits < 2*degree {
			pbits++
		}
	}
	parts := 1 << pbits
	tables := make([]*aggTable, degree)
	for w := range tables {
		tables[w] = h.newAggTable(pbits, h.ctx.memShare(degree))
	}
	var err error
	if h.typed != nil {
		err = fanOut(h.ctx, freshBatches(h.typed), degree, func(w int, b *vec.Batch) error {
			return tables[w].ingestBatch(b)
		}, nil)
	} else {
		err = fanOut(h.ctx, rowSlabs(h.In), degree, func(w int, slab []types.Row) error {
			for _, r := range slab {
				if err := tables[w].ingest(r); err != nil {
					return err
				}
			}
			return nil
		}, nil)
	}
	if err != nil {
		return err
	}

	// Merge: degree mergers (this goroutine is one of them) claim partitions
	// from a counter.
	outs := make([][]types.Row, parts)
	var next atomic.Int64
	merge := func() error {
		for {
			p := int(next.Add(1) - 1)
			if p >= parts {
				return nil
			}
			rows, err := h.mergePartition(p, tables)
			if err != nil {
				return err
			}
			outs[p] = rows
		}
	}
	errs := make(chan error, degree)
	for m := 1; m < degree; m++ {
		go func() { errs <- merge() }()
	}
	errs <- merge()
	var firstErr error
	for m := 0; m < degree; m++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for _, rows := range outs {
		h.results = append(h.results, rows...)
	}

	// No GROUP BY: SQL semantics require one output row even on empty input.
	if len(h.GroupBy) == 0 && len(h.results) == 0 {
		empty := h.newAggTable(0, 0)
		empty.group()
		h.results = h.emit(h.results, empty)
	}
	h.prepared = true
	return nil
}

// sameKey is group equality of one key value: kind and payload, exactly
// what types.AppendValue writes. INT 3 and FLOAT 3.0 are two groups, all
// NULLs one, and two FLOATs are one group when their bits are.
func sameKey(a, b types.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case types.KindInt, types.KindDate:
		return a.I == b.I
	case types.KindBool:
		return (a.I != 0) == (b.I != 0)
	case types.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case types.KindString:
		return a.S == b.S
	default:
		return true
	}
}

// aggTable is one worker's private group table: a chainTable whose entries
// are the groups, in arrival order, with group g's key values beside it and
// one aggCol per aggregate indexed by group number. Groups arrive while the
// table is probed, so it grows and rechains by doubling. The partitions of
// its chainTable merge independently. Once budget groups are held, the rows
// of any further group go to a spill opened lazily for their partition,
// which keeps a spilled partition mergeable on its own.
type aggTable struct {
	chainTable
	h          *HashAggregate
	fromStates bool
	budget     int           // groups held before new ones spill; 0 = unbounded
	nk         int           // key values a group has
	keys       []types.Value // group g's key is keys[g*nk : (g+1)*nk]
	cols       []aggCol      // by state column (HashAggregate.stateSpec)
	colBytes   int64         // state bytes a group's columns hold
	byPart     [][]int32     // when pbits > 0: by partition, its groups in arrival order
	spills     []*spillWriter
	keyRow     types.Row // scratch: the key of the row in hand
	// The typed front end's per-table state (bindTyped, at its first batch):
	// where each key and argument is read from, the arguments' kernels, the
	// row a batch is boxed into when one of them has no typed reader, the
	// batch's group numbers and rows by group, and its memo of dictionary
	// codes.
	keyCols  []int    // by key: the input column it is, or -1 for an expression
	exprKeys bool     // some key is an expression
	args     []aggArg // by state column
	dag      *numDAG
	scratch  types.Row
	gs       []int32
	rows     batchRows
	memo     groupMemo
}

// aggArg reads one state column's argument off a typed batch.
type aggArg struct {
	arg  expr.Expr  // nil for COUNT(*)
	node numNode    // arg's kernel; nil for a shape without one
	kind types.Kind // of an integer result: Int or Date
	nv   numVec     // this batch's values, valid when ok
	ok   bool
}

// newAggTable builds an empty table for 1 << pbits partitions.
func (h *HashAggregate) newAggTable(pbits uint, budget int) *aggTable {
	nk := len(h.GroupBy)
	t := &aggTable{
		chainTable: chainTable{pbits: pbits},
		h:          h,
		fromStates: h.Mode == AggMerge || h.Mode == AggFinal,
		budget:     budget,
		nk:         nk,
		cols:       make([]aggCol, len(h.stateSpec)),
		spills:     make([]*spillWriter, 1<<pbits),
		keyRow:     make(types.Row, nk),
	}
	for c, i := range h.stateSpec {
		sp := h.Specs[i]
		t.cols[c] = newAggCol(sp.Kind, h.kinds[i], sp.Distinct && !t.fromStates)
		t.colBytes += t.cols[c].groupBytes()
	}
	if pbits > 0 {
		t.byPart = make([][]int32, 1<<pbits)
	}
	t.rechain(4)
	return t
}

// keyOf is group g's key.
func (t *aggTable) keyOf(g int32) types.Row {
	return t.keys[int(g)*t.nk : int(g+1)*t.nk : int(g+1)*t.nk]
}

// find returns the group of key, filed under hk, or -1.
func (t *aggTable) find(hk uint64, key types.Row) int32 {
	for g := t.first(hk); g >= 0; g = t.after(g) {
		k := t.keyOf(g)
		same := true
		for i := range k {
			if !sameKey(k[i], key[i]) {
				same = false
				break
			}
		}
		if same {
			return g
		}
	}
	return -1
}

// insert files a new group of a copy of key under hk, with nothing folded.
func (t *aggTable) insert(hk uint64, key types.Row) int32 {
	g := t.chainTable.insert(hk)
	t.keys = push(t.keys, key...)
	for i := range t.cols {
		t.cols[i].grow()
	}
	if t.byPart != nil {
		p := t.part(hk)
		t.byPart[p] = append(t.byPart[p], g)
	}
	return g
}

// admit files a new group of the key in the scratch row while the budget
// allows, charging what it holds; past the budget it returns -1 and the row
// belongs in its partition's spill.
func (t *aggTable) admit(hk uint64) int32 {
	if t.budget > 0 && len(t.hashes) >= t.budget {
		return -1
	}
	// The hash, the chain link, two slots (the table is at most half full),
	// the key's values and their string bytes, and the state columns.
	n := 8 + 4 + 8 + int64(valueBytes*t.nk) + t.colBytes
	for _, v := range t.keyRow {
		n += int64(len(v.S))
	}
	t.h.ctx.addState(n)
	return t.insert(hk, t.keyRow)
}

// group finds the group of the key in the scratch row, admitting a new one
// while the budget allows, and returns it (-1 past the budget) with the
// key's hash. A table without GROUP BY has one group, found without hashing.
func (t *aggTable) group() (int32, uint64) {
	if t.nk == 0 && len(t.hashes) > 0 {
		return 0, 0
	}
	var hk uint64
	for _, v := range t.keyRow {
		hk = types.FoldHash(hk, types.Hash(v))
	}
	if g := t.find(hk, t.keyRow); g >= 0 {
		return g, hk
	}
	return t.admit(hk), hk
}

// absorb folds group sg of another worker's table into this one.
func (t *aggTable) absorb(src *aggTable, sg int32) {
	hk, key := src.hashes[sg], src.keyOf(sg)
	g := t.find(hk, key)
	if g < 0 {
		g = t.insert(hk, key)
	}
	for i := range t.cols {
		t.cols[i].combine(g, &src.cols[i], sg)
	}
}

// reset drops every group, keeping the arrays.
func (t *aggTable) reset() {
	clear(t.keys)
	t.keys = t.keys[:0]
	t.chainTable.reset()
	for i := range t.cols {
		t.cols[i].reset()
	}
	for p := range t.byPart {
		t.byPart[p] = t.byPart[p][:0]
	}
}

// spill writes a row whose group was not admitted to partition p's spill.
func (t *aggTable) spill(p int, r types.Row) error {
	if t.spills[p] == nil {
		sw, err := t.h.spills.newWriter(t.h.ctx, "agg-spill-*")
		if err != nil {
			return err
		}
		t.spills[p] = sw
	}
	return t.spills[p].write(r)
}

// ingest is the row front end: it folds one input row into its group, or
// spills it.
func (t *aggTable) ingest(r types.Row) error {
	h := t.h
	for i, k := range h.GroupBy {
		v, err := k.Eval(r)
		if err != nil {
			return err
		}
		t.keyRow[i] = v
	}
	g, hk := t.group()
	if g < 0 {
		return t.spill(t.part(hk), r)
	}
	if t.fromStates {
		base := len(h.GroupBy)
		for i := range t.cols {
			t.cols[i].merge(g, r[base+i*partialCols:base+(i+1)*partialCols])
		}
		return nil
	}
	for c, i := range h.stateSpec {
		arg := h.Specs[i].Arg
		if arg == nil {
			t.cols[c].n[g]++
			continue
		}
		v, err := arg.Eval(r)
		if err != nil {
			return err
		}
		t.cols[c].add(g, v)
	}
	return nil
}

// memoPerRow bounds a groupMemo: it spans at most this many code tuples
// per active row of the batch, so a sparse code space costs its arrays no
// more than a small multiple of the batch (16,384 tuples at the scans'
// 1,024-row batches).
const memoPerRow = 16

// groupMemo maps the tuple of dictionary codes of a row whose every key is
// a dictionary column to its group, for the batch in hand: the table is
// hashed and probed once per distinct tuple in the batch, and every other
// row of the tuple costs one array lookup. A tuple's index is a mixed-radix
// number of its codes, a NULL key counting as one code past the batch's
// largest. An entry is valid where its stamp is the batch's.
type groupMemo struct {
	stamp  uint32  // the batch in hand
	idx    []int32 // by active row: its tuple's index
	stamps []uint32
	groups []int32  // by tuple: its group, or -1 when its rows spill
	hashes []uint64 // by tuple: its key's hash
}

// planMemo readies the group memo for a batch whose keys are all
// dictionary columns and whose code tuples number at most memoPerRow per
// active row, working out every active row's tuple index one key column at
// a time. It reports whether the batch qualifies.
func (t *aggTable) planMemo(b *vec.Batch, n int) bool {
	if t.exprKeys {
		return false
	}
	m := &t.memo
	m.idx = grow(m.idx, n)
	idx := m.idx
	clear(idx)
	size := 1
	for _, c := range t.keyCols {
		col := &b.Cols[c]
		if col.Form != vec.FormStr {
			return false
		}
		stride := int32(size)
		hi := addCodes(idx, col, b.Sel, stride)
		if len(col.Nulls) > 0 {
			for k := range idx {
				if i := b.Index(k); vec.GetBit(col.Nulls, i) {
					idx[k] += (hi + 1 - col.Codes[i]) * stride
				}
			}
		}
		if size *= int(hi) + 2; size > memoPerRow*n {
			return false
		}
	}
	if len(m.stamps) < size {
		m.stamps = make([]uint32, size)
		m.groups = make([]int32, size)
		m.hashes = make([]uint64, size)
	}
	m.stamp++
	return true
}

// addCodes adds to idx[k] the code of the k-th active row of col, times
// stride, and returns the largest code it read.
func addCodes(idx []int32, col *vec.Col, sel []int32, stride int32) int32 {
	hi := int32(0)
	if sel == nil {
		for k, code := range col.Codes[:len(idx)] {
			idx[k] += code * stride
			hi = max(hi, code)
		}
		return hi
	}
	for k, i := range sel[:len(idx)] {
		code := col.Codes[i]
		idx[k] += code * stride
		hi = max(hi, code)
	}
	return hi
}

// bindTyped works out, once per table, where the typed front end reads each
// key and argument from, compiling the arguments into one kernel DAG.
func (t *aggTable) bindTyped() {
	h, sch := t.h, t.h.In.Schema()
	t.keyCols, t.exprKeys = keyColumns(h.GroupBy, sch.Len())
	t.dag = newNumDAG()
	t.args = make([]aggArg, len(t.cols))
	for c, i := range h.stateSpec {
		if arg := h.Specs[i].Arg; arg != nil {
			t.args[c] = aggArg{arg: arg, node: t.dag.compile(arg, sch), kind: expr.KindOf(arg, sch)}
		}
	}
	t.scratch = make(types.Row, sch.Len())
}

// ingestBatch is the typed front end: it folds the active rows of one batch
// into their groups in two steps. First it works out each row's group
// number (groupBatch). Then each argument with a kernel — its DAG evaluates
// each distinct subexpression once for the batch — folds the kernel's
// values for the whole batch into its column in one loop over those group
// numbers. Anything else — an expression key, CASE, LIKE, division, a
// string or boxed argument column — is evaluated on the boxed row, for
// that batch only; BoxedRows counts the rows so read, and those spilled.
func (t *aggTable) ingestBatch(b *vec.Batch) error {
	if t.args == nil {
		t.bindTyped()
	}
	n := b.Rows()
	t.dag.stamp++
	onRows := false // some argument is evaluated on the boxed row
	for c := range t.args {
		a := &t.args[c]
		a.ok = false
		if a.node != nil {
			nv, err := a.node.evalNum(b, n)
			if err != nil && !errors.Is(err, errVecFallback) {
				return err
			}
			a.nv, a.ok = nv, err == nil
		}
		onRows = onRows || (a.arg != nil && !a.ok)
	}
	t.gs = grow(t.gs, n)
	gs := t.gs
	boxed, err := t.groupBatch(b, gs)
	if err != nil {
		return err
	}
	if t.exprKeys || onRows {
		boxed = int64(n)
	}
	if onRows {
		for k, g := range gs {
			if g < 0 {
				continue
			}
			row := b.ReadRow(b.Index(k), t.scratch)
			for c := range t.args {
				if a := &t.args[c]; a.arg != nil && !a.ok {
					v, err := a.arg.Eval(row)
					if err != nil {
						return err
					}
					t.cols[c].add(g, v)
				}
			}
		}
	}
	t.rows.start(gs, t.entries())
	for c := range t.args {
		switch a := &t.args[c]; {
		case a.arg == nil:
			t.rows.addTo(t.cols[c].n)
		case a.ok:
			t.cols[c].foldNum(gs, a.nv, a.kind, &t.rows)
		}
	}
	t.rows.done()
	t.h.ctx.addBoxed(boxed)
	return nil
}

// groupBatch sets gs[k] to the group of the batch's k-th active row, found
// or admitted, or to -1 for a row it spills, and returns how many it
// spilled. A key that is a plain column is hashed and compared unboxed off
// the column, and boxed only when it makes a new group. When every key is a
// dictionary column, the group memo resolves each code tuple once and one
// loop reads every row's group off it; otherwise each row is looked up on
// its own, boxed first when a key is an expression.
func (t *aggTable) groupBatch(b *vec.Batch, gs []int32) (int64, error) {
	if t.nk == 0 {
		if g, _ := t.group(); g >= 0 {
			for k := range gs {
				gs[k] = g
			}
			return 0, nil
		}
	} else if t.planMemo(b, len(gs)) {
		return t.memoGroups(b, gs)
	}
	var spilled int64
	for k := range gs {
		i := b.Index(k)
		var row types.Row
		if t.exprKeys {
			row = b.ReadRow(i, t.scratch)
			for ki, c := range t.keyCols {
				if c < 0 {
					v, err := t.h.GroupBy[ki].Eval(row)
					if err != nil {
						return 0, err
					}
					t.keyRow[ki] = v
				}
			}
		}
		var g int32
		var hk uint64
		if t.nk == 0 {
			g, hk = t.group()
		} else {
			g, hk = t.typedGroup(b, i)
		}
		if gs[k] = g; g < 0 {
			if row == nil {
				row = b.ReadRow(i, t.scratch)
			}
			if err := t.spill(t.part(hk), row); err != nil {
				return 0, err
			}
			spilled++
		}
	}
	return spilled, nil
}

// memoGroups is groupBatch over a planned group memo: each code tuple new
// to the batch is found or admitted through typedGroup, once, and every row
// reads its tuple's group; then the rows of tuples not admitted spill, in
// row order.
func (t *aggTable) memoGroups(b *vec.Batch, gs []int32) (int64, error) {
	m := &t.memo
	refused := false
	for k, x := range m.idx[:len(gs)] {
		if m.stamps[x] != m.stamp {
			g, hk := t.typedGroup(b, b.Index(k))
			m.stamps[x], m.groups[x], m.hashes[x] = m.stamp, g, hk
			refused = refused || g < 0
		}
		gs[k] = m.groups[x]
	}
	if !refused {
		return 0, nil
	}
	var spilled int64
	for k, g := range gs {
		if g < 0 {
			i := b.Index(k)
			if err := t.spill(t.part(m.hashes[m.idx[k]]), b.ReadRow(i, t.scratch)); err != nil {
				return 0, err
			}
			spilled++
		}
	}
	return spilled, nil
}

// batchRows is how many of the batch's rows each group got, spilled rows
// aside: counted once a batch, at first use, for every column whose count
// of the batch is exactly that — COUNT(*), and a COUNT or a sum of a vector
// without NULLs. MIN and MAX count their own, as their fold reads the
// count.
type batchRows struct {
	gs      []int32
	counted bool
	n       []int64 // by group; zero outside touched
	touched []int32 // the groups n counts rows of
}

// start readies the count of the batch whose group numbers are gs, in a
// table of groups groups.
func (r *batchRows) start(gs []int32, groups int) {
	r.gs, r.counted = gs, false
	if len(r.n) < groups {
		r.n = append(r.n, make([]int64, groups-len(r.n))...)
	}
}

// addTo adds each group's rows of the batch to its count in cnt.
func (r *batchRows) addTo(cnt []int64) {
	if !r.counted {
		r.counted = true
		for _, g := range r.gs {
			if g >= 0 {
				if r.n[g] == 0 {
					r.touched = append(r.touched, g)
				}
				r.n[g]++
			}
		}
	}
	for _, g := range r.touched {
		cnt[g] += r.n[g]
	}
}

// done clears the batch's count.
func (r *batchRows) done() {
	for _, g := range r.touched {
		r.n[g] = 0
	}
	r.touched = r.touched[:0]
}

// typedGroup finds or admits the group of batch row i, hashing and comparing
// each key unboxed off its column; an expression key is already in the
// scratch row. The key is boxed only into a new group.
func (t *aggTable) typedGroup(b *vec.Batch, i int) (int32, uint64) {
	var hk uint64
	for ki, c := range t.keyCols {
		if c >= 0 {
			hk = types.FoldHash(hk, vec.HashCol(&b.Cols[c], i))
		} else {
			hk = types.FoldHash(hk, types.Hash(t.keyRow[ki]))
		}
	}
	for g := t.first(hk); g >= 0; g = t.after(g) {
		if t.sameRow(g, b, i) {
			return g, hk
		}
	}
	for ki, c := range t.keyCols {
		if c >= 0 {
			t.keyRow[ki] = b.Cols[c].Value(i)
		}
	}
	return t.admit(hk), hk
}

// sameRow reports whether group g's key is batch row i's, by sameKey of
// each key value, compared unboxed.
func (t *aggTable) sameRow(g int32, b *vec.Batch, i int) bool {
	key := t.keyOf(g)
	for ki, c := range t.keyCols {
		v := key[ki]
		if c < 0 {
			if !sameKey(v, t.keyRow[ki]) {
				return false
			}
			continue
		}
		col := &b.Cols[c]
		if col.Form == vec.FormBoxed {
			if !sameKey(v, col.Vals[i]) {
				return false
			}
			continue
		}
		if vec.GetBit(col.Nulls, i) {
			if v.K != types.KindNull {
				return false
			}
			continue
		}
		var same bool
		switch col.Form {
		case vec.FormInt:
			x := col.I[i]
			same = v.K == col.Kind && (v.I == x || v.K == types.KindBool && (v.I != 0) == (x != 0))
		case vec.FormFloat:
			same = v.K == types.KindFloat && math.Float64bits(v.F) == math.Float64bits(col.F[i])
		default:
			same = v.K == types.KindString && v.S == col.Dict.Str(col.Codes[i])
		}
		if !same {
			return false
		}
	}
	return true
}

// emit appends t's groups to out as output rows (partial states or finals),
// in arrival order, their values cut from one array.
func (h *HashAggregate) emit(out []types.Row, t *aggTable) []types.Row {
	partial := h.Mode == AggPartial || h.Mode == AggMerge
	width := t.nk + len(h.Specs)
	if partial {
		width = t.nk + partialCols*len(h.Specs)
	}
	vals := make([]types.Value, 0, width*t.entries())
	for g := range t.hashes {
		start := len(vals)
		vals = append(vals, t.keyOf(int32(g))...)
		for i, sp := range h.Specs {
			c := &t.cols[h.stateOf[i]]
			if partial {
				vals = c.appendPartial(vals, int32(g))
			} else {
				vals = append(vals, c.final(int32(g), sp.Kind))
			}
		}
		out = append(out, vals[start:len(vals):len(vals)])
	}
	return out
}

// mergePartition produces partition p's result rows, in arrival order: the
// workers' groups of p are combined into one table in worker-index order,
// then the partition's spilled rows are drained through that table in
// passes. At degree 1 the one worker's table is that table. A row a worker
// spilled belongs to a group its own table did not hold, but another
// worker's may, so the first pass folds the spills into the combined table
// while admitting the budget's worth of new groups on top of it. What a pass
// respills belongs to no group it holds; its groups are therefore complete,
// and are emitted and dropped before the next pass admits its own.
func (h *HashAggregate) mergePartition(p int, tables []*aggTable) ([]types.Row, error) {
	var spilled []*spillWriter
	for _, t := range tables {
		if t.spills[p] != nil {
			spilled = append(spilled, t.spills[p])
		}
	}
	pass := tables[0]
	if pass.pbits > 0 {
		pass = h.newAggTable(pass.pbits, 0)
		for _, t := range tables {
			for _, g := range t.byPart[p] {
				pass.absorb(t, g)
			}
		}
	}
	pass.spills[p] = nil
	out := make([]types.Row, 0, pass.entries())
	for {
		if budget := tables[0].budget; budget > 0 {
			pass.budget = pass.entries() + budget
		}
		for _, sw := range spilled {
			rd, err := sw.finish()
			if err != nil {
				return nil, err
			}
			n := int64(0)
			for {
				r, ok, err := rd.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				n++
				if err := pass.ingest(r); err != nil {
					return nil, err
				}
			}
			rd.close()
			if h.ctx != nil {
				h.ctx.RowsProcessed.Add(n)
			}
		}
		out = h.emit(out, pass)
		if pass.spills[p] == nil {
			return out, nil
		}
		spilled = append(spilled[:0], pass.spills[p])
		pass.spills[p] = nil
		pass.reset()
	}
}

// NextBatch implements Operator, serving the prepared results in slabs.
func (h *HashAggregate) NextBatch() ([]types.Row, bool, error) {
	if !h.prepared {
		if err := h.prepare(); err != nil {
			return nil, false, err
		}
	}
	return nextWindow(h.results, &h.pos, h.ctx.batchRows())
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.spills.discardAll()
	return h.In.Close()
}

// validateAggSchema asserts partial-state arity for Merge/Final inputs.
func validateAggSchema(in types.Schema, groupBy []expr.Expr, specs []AggSpec) error {
	want := len(groupBy) + len(specs)*partialCols
	if in.Len() != want {
		return fmt.Errorf("exec: merge aggregate input has %d columns, want %d", in.Len(), want)
	}
	return nil
}
