package exec

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
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
// boxed extremes, as vec.Col demotes.
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

// countRows counts every row of a batch into its group, for COUNT(*). A
// negative group is a row that spilled.
func (c *aggCol) countRows(gs []int32) {
	cnt := c.n
	for _, g := range gs {
		if g >= 0 {
			cnt[g]++
		}
	}
}

// foldNum folds a kernel's values into the column, the k-th into group
// gs[k] (none when negative: that row spilled), in one loop over the batch.
// kind is the kind of an integer vector's values, INT or DATE. A DISTINCT
// aggregate, a boxed extreme, and values of another kind than a typed
// extreme's go through add one boxed value at a time.
func (c *aggCol) foldNum(gs []int32, nv numVec, kind types.Kind) {
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

// final computes group g's value of the aggregate.
func (c *aggCol) final(g int32) types.Value {
	n := c.n[g]
	switch {
	case c.kind == AggCount:
		return types.NewInt(n)
	case n == 0:
		return types.Null
	case c.kind == AggSum:
		return c.sum(g)
	case c.kind == AggAvg:
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
	Trace    *obs.Span
	typed    VecOperator  // In's typed face; nil builds from row slabs
	kinds    []types.Kind // by aggregate: the kind of its value (aggKinds)
	ctx      *Ctx
	spills   spillSet
	out      types.Schema
	results  []types.Row
	pos      int
	prepared bool
}

// NewHashAggregate builds an aggregation operator. For Merge/Final modes
// the input schema must be groupCols ++ partial states (4 columns per spec).
func NewHashAggregate(ctx *Ctx, in Operator, groupBy []expr.Expr, specs []AggSpec, mode AggMode) *HashAggregate {
	h := &HashAggregate{In: in, GroupBy: groupBy, Specs: specs, Mode: mode, ctx: ctx}
	h.kinds = aggKinds(in.Schema(), len(groupBy), specs, mode == AggMerge || mode == AggFinal)
	h.out = aggOutputSchema(in.Schema(), groupBy, specs, h.kinds, mode)
	return h
}

// NewTypedHashAggregate builds a Complete or Partial aggregation whose build
// reads in's typed batches. Above degree 1 a batch crosses to a build worker
// uncopied, so in must ship every batch freshly built, as VecColumnarScan
// does (an adapter that refills one batch does not qualify).
func NewTypedHashAggregate(ctx *Ctx, in VecOperator, groupBy []expr.Expr, specs []AggSpec, mode AggMode) *HashAggregate {
	h := NewHashAggregate(ctx, in, groupBy, specs, mode)
	h.typed = in
	return h
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

// aggHashSeed seeds the hash of a string key. One per process: every
// worker's table and every merge pass must file a key under the same hash.
var aggHashSeed = maphash.MakeSeed()

// nullKeyHash is the hash of a NULL key value: all NULLs are one group.
const nullKeyHash uint64 = 0x6a09e667f3bcc908

// mix64 is a 64-bit finalizer (murmur3's): every input bit moves every
// output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashIntKey hashes an INT, DATE or BOOLEAN key payload of kind k. A BOOLEAN
// is true whatever its nonzero payload, as sameKey compares it.
func hashIntKey(k types.Kind, x int64) uint64 {
	if k == types.KindBool && x != 0 {
		x = 1
	}
	return mix64(uint64(x) ^ uint64(k)<<58)
}

// hashFloatKey hashes a FLOAT key by its bits, as sameKey compares it.
func hashFloatKey(f float64) uint64 {
	return mix64(math.Float64bits(f) ^ uint64(types.KindFloat)<<58)
}

func hashStrKey(s string) uint64 { return maphash.String(aggHashSeed, s) }

// hashKey hashes one boxed key value. The typed front end hashes a column
// value unboxed to the same number (aggTable.hashCol).
func hashKey(v types.Value) uint64 {
	switch v.K {
	case types.KindNull:
		return nullKeyHash
	case types.KindInt, types.KindDate, types.KindBool:
		return hashIntKey(v.K, v.I)
	case types.KindFloat:
		return hashFloatKey(v.F)
	case types.KindString:
		return hashStrKey(v.S)
	default:
		return mix64(uint64(v.K))
	}
}

// nextKeyHash folds the hash of the next key value into a row's key hash.
func nextKeyHash(h, kh uint64) uint64 { return bits.RotateLeft64(h, 11) ^ kh }

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

// aggTable is one worker's private group table, in the join table's shape:
// groups filed in arrival order beside their key hashes, chained by
// heads/next, and one aggCol per aggregate indexed by group number. Groups
// arrive while the table is probed, so it grows and rechains by doubling. A
// group's partition and its slot both come from hash × φ, the partition from
// the top pbits bits and the slot from the bits below them: partition p of
// every worker holds the same keys, so the partitions merge independently,
// and a table holding one partition (a merge pass) still spreads over all
// its slots. Once budget groups are held, the rows of any further group go
// to a spill opened lazily for their partition, which keeps a spilled
// partition mergeable on its own.
type aggTable struct {
	h          *HashAggregate
	fromStates bool
	budget     int           // groups held before new ones spill; 0 = unbounded
	pbits      uint          // 1 << pbits partitions
	nk         int           // key values a group has
	keys       []types.Value // group g's key is keys[g*nk : (g+1)*nk]
	hashes     []uint64      // by group: the hash its key is filed under
	heads      []int32       // by slot: the last group filed there, or -1
	next       []int32       // by group: the group filed in its slot before it, or -1
	shift      uint          // slot = hash × φ << pbits >> shift
	cols       []aggCol      // by aggregate
	colBytes   int64         // state bytes a group's columns hold
	byPart     [][]int32     // when pbits > 0: by partition, its groups in arrival order
	spills     []*spillWriter
	keyRow     types.Row // scratch: the key of the row in hand
	// The typed front end's per-table state (bindTyped, at its first batch):
	// where each key and argument is read from, the row a batch is boxed
	// into when one of them has no typed reader, the batch's group numbers,
	// and the batch's memo of dictionary codes.
	keyCols  []int // by key: the input column it is, or -1 for an expression
	exprKeys bool  // some key is an expression
	args     []aggArg
	scratch  types.Row
	gs       []int32
	memo     groupMemo
}

// aggArg reads one aggregate argument off a typed batch.
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
		h: h, fromStates: h.Mode == AggMerge || h.Mode == AggFinal, budget: budget,
		pbits: pbits, nk: nk,
		cols:   make([]aggCol, len(h.Specs)),
		spills: make([]*spillWriter, 1<<pbits),
		keyRow: make(types.Row, nk),
	}
	for i, sp := range h.Specs {
		t.cols[i] = newAggCol(sp.Kind, h.kinds[i], sp.Distinct && !t.fromStates)
		t.colBytes += t.cols[i].groupBytes()
	}
	if pbits > 0 {
		t.byPart = make([][]int32, 1<<pbits)
	}
	t.rechain(4)
	return t
}

// rechain chains every group into 1 << bits slots.
func (t *aggTable) rechain(bits uint) {
	t.shift = 64 - bits
	if cap(t.heads) >= 1<<bits {
		t.heads = t.heads[:1<<bits]
	} else {
		t.heads = make([]int32, 1<<bits)
	}
	for s := range t.heads {
		t.heads[s] = -1
	}
	for g, hk := range t.hashes {
		s := t.slot(hk)
		t.next[g], t.heads[s] = t.heads[s], int32(g)
	}
}

func (t *aggTable) slot(hk uint64) uint64 { return (hk * 0x9E3779B97F4A7C15 << t.pbits) >> t.shift }

// part is the partition of a key hash.
func (t *aggTable) part(hk uint64) int {
	if t.pbits == 0 {
		return 0
	}
	return int(hk * 0x9E3779B97F4A7C15 >> (64 - t.pbits))
}

func (t *aggTable) groups() int { return len(t.hashes) }

// keyOf is group g's key.
func (t *aggTable) keyOf(g int32) types.Row {
	return t.keys[int(g)*t.nk : int(g+1)*t.nk : int(g+1)*t.nk]
}

// find returns the group of key, filed under hk, or -1.
func (t *aggTable) find(hk uint64, key types.Row) int32 {
	for g := t.heads[t.slot(hk)]; g >= 0; g = t.next[g] {
		if t.hashes[g] != hk {
			continue
		}
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
	g := int32(len(t.hashes))
	t.hashes = push(t.hashes, hk)
	t.keys = push(t.keys, key...)
	for i := range t.cols {
		t.cols[i].grow()
	}
	if t.byPart != nil {
		p := t.part(hk)
		t.byPart[p] = append(t.byPart[p], g)
	}
	if 2*len(t.hashes) > len(t.heads) {
		t.next = push(t.next, -1)
		t.rechain(65 - t.shift)
		return g
	}
	s := t.slot(hk)
	t.next = push(t.next, t.heads[s])
	t.heads[s] = g
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
		hk = nextKeyHash(hk, hashKey(v))
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
	t.keys, t.hashes, t.next = t.keys[:0], t.hashes[:0], t.next[:0]
	for i := range t.cols {
		t.cols[i].reset()
	}
	for p := range t.byPart {
		t.byPart[p] = t.byPart[p][:0]
	}
	t.rechain(64 - t.shift)
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
	for i, sp := range h.Specs {
		if sp.Arg == nil {
			t.cols[i].n[g]++
			continue
		}
		v, err := sp.Arg.Eval(r)
		if err != nil {
			return err
		}
		t.cols[i].add(g, v)
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
// row of the tuple costs one array lookup. A NULL key counts as one code
// past the batch's largest. An entry is valid where its stamp is the
// batch's.
type groupMemo struct {
	on     bool
	stamp  uint32  // the batch in hand
	stride []int   // by key
	null   []int   // by key: the code a NULL stands for
	idx    []int32 // by active row: its tuple's index
	stamps []uint32
	groups []int32
}

// planMemo turns the group memo on for a batch whose keys are all
// dictionary columns and whose code tuples number at most memoPerRow per
// active row, and works out every active row's tuple index, one key column
// at a time.
func (t *aggTable) planMemo(b *vec.Batch, n int) {
	m := &t.memo
	m.on = false
	if t.exprKeys || t.nk == 0 {
		return
	}
	size := 1
	for ki, c := range t.keyCols {
		col := &b.Cols[c]
		if col.Form != vec.FormStr {
			return
		}
		hi := int32(0)
		for _, x := range col.Codes[:b.N] {
			hi = max(hi, x)
		}
		m.stride[ki], m.null[ki] = size, int(hi)+1
		if size *= int(hi) + 2; size > memoPerRow*n {
			return
		}
	}
	if len(m.stamps) < size {
		m.stamps = make([]uint32, size)
		m.groups = make([]int32, size)
	}
	if cap(m.idx) < n {
		m.idx = make([]int32, n)
	}
	idx := m.idx[:n]
	clear(idx)
	for ki, c := range t.keyCols {
		col, stride := &b.Cols[c], int32(m.stride[ki])
		for k := range idx {
			i := b.Index(k)
			code := col.Codes[i]
			if vec.GetBit(col.Nulls, i) {
				code = int32(m.null[ki])
			}
			idx[k] += code * stride
		}
	}
	m.stamp++
	m.on = true
}

// bindTyped works out, once per table, where the typed front end reads each
// key and argument from.
func (t *aggTable) bindTyped() {
	h, sch := t.h, t.h.In.Schema()
	t.keyCols, t.exprKeys = keyColumns(h.GroupBy, sch.Len())
	t.args = make([]aggArg, len(h.Specs))
	for i, sp := range h.Specs {
		if sp.Arg == nil {
			continue
		}
		t.args[i] = aggArg{arg: sp.Arg, node: compileNum(sp.Arg, sch), kind: expr.KindOf(sp.Arg, sch)}
	}
	t.scratch = make(types.Row, sch.Len())
	t.memo.stride, t.memo.null = make([]int, t.nk), make([]int, t.nk)
}

// ingestBatch is the typed front end: it folds the active rows of one batch
// into their groups in two steps. First it works out each row's group
// number: a key that is a plain column is hashed and compared unboxed off
// the column, and boxed only when it makes a new group; when every key is a
// dictionary column, the batch's group memo resolves each code tuple once.
// Then each aggregate whose argument compileNum has a kernel for folds the
// kernel's values for the whole batch into its column in one loop over
// those group numbers. Anything else — an
// expression key, CASE, LIKE, division, a string or demoted argument column
// — is evaluated on the boxed row, for that batch only; BoxedRows counts
// the rows so read, and those spilled.
func (t *aggTable) ingestBatch(b *vec.Batch) error {
	if t.args == nil {
		t.bindTyped()
	}
	n := b.Rows()
	needRow := t.exprKeys
	for i := range t.args {
		a := &t.args[i]
		a.ok = false
		if a.node != nil {
			nv, err := a.node.evalNum(b, n)
			if err != nil && !errors.Is(err, errVecFallback) {
				return err
			}
			a.nv, a.ok = nv, err == nil
		}
		needRow = needRow || (a.arg != nil && !a.ok)
	}
	if cap(t.gs) < n {
		t.gs = make([]int32, n)
	}
	gs := t.gs[:n]
	t.planMemo(b, n)
	var boxed int64
	scalar := int32(-1)
	if t.nk == 0 && !needRow {
		scalar, _ = t.group()
	}
	for k := 0; k < n; k++ {
		if scalar >= 0 {
			gs[k] = scalar
			continue
		}
		i := b.Index(k)
		var row types.Row
		if needRow {
			row = b.ReadRow(i, t.scratch)
			boxed++
		}
		g, hk, err := t.batchGroup(b, k, row)
		if err != nil {
			return err
		}
		gs[k] = g
		if g < 0 {
			if row == nil {
				row = b.ReadRow(i, t.scratch)
				boxed++
			}
			if err := t.spill(t.part(hk), row); err != nil {
				return err
			}
			continue
		}
		if row == nil {
			continue
		}
		for si := range t.args {
			if a := &t.args[si]; a.arg != nil && !a.ok {
				v, err := a.arg.Eval(row)
				if err != nil {
					return err
				}
				t.cols[si].add(g, v)
			}
		}
	}
	for si := range t.args {
		switch a := &t.args[si]; {
		case a.arg == nil:
			t.cols[si].countRows(gs)
		case a.ok:
			t.cols[si].foldNum(gs, a.nv, a.kind)
		}
	}
	t.h.ctx.addBoxed(boxed)
	return nil
}

// batchGroup finds or admits the group of the batch's k-th active row
// (boxed as row when a key is an expression), returning -1 with the key's
// hash when the row must spill.
func (t *aggTable) batchGroup(b *vec.Batch, k int, row types.Row) (int32, uint64, error) {
	if t.nk == 0 {
		g, hk := t.group()
		return g, hk, nil
	}
	for ki, c := range t.keyCols {
		if c < 0 {
			v, err := t.h.GroupBy[ki].Eval(row)
			if err != nil {
				return 0, 0, err
			}
			t.keyRow[ki] = v
		}
	}
	m := &t.memo
	if !m.on {
		g, hk := t.typedGroup(b, b.Index(k))
		return g, hk, nil
	}
	x := m.idx[k]
	if m.stamps[x] == m.stamp {
		return m.groups[x], 0, nil
	}
	g, hk := t.typedGroup(b, b.Index(k))
	if g >= 0 {
		m.stamps[x], m.groups[x] = m.stamp, g
	}
	return g, hk, nil
}

// typedGroup finds or admits the group of batch row i, hashing and comparing
// each key unboxed off its column; an expression key is already in the
// scratch row. The key is boxed only into a new group.
func (t *aggTable) typedGroup(b *vec.Batch, i int) (int32, uint64) {
	var hk uint64
	for ki, c := range t.keyCols {
		if c >= 0 {
			hk = nextKeyHash(hk, hashCol(&b.Cols[c], i))
		} else {
			hk = nextKeyHash(hk, hashKey(t.keyRow[ki]))
		}
	}
	for g := t.heads[t.slot(hk)]; g >= 0; g = t.next[g] {
		if t.hashes[g] == hk && t.sameRow(g, b, i) {
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

// hashCol is hashKey of col.Value(i), computed without boxing it.
func hashCol(col *vec.Col, i int) uint64 {
	if col.Form == vec.FormBoxed {
		return hashKey(col.Vals[i])
	}
	if vec.GetBit(col.Nulls, i) {
		return nullKeyHash
	}
	switch col.Form {
	case vec.FormInt:
		return hashIntKey(col.Kind, col.I[i])
	case vec.FormFloat:
		return hashFloatKey(col.F[i])
	default:
		return hashStrKey(col.Dict.Str(col.Codes[i]))
	}
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
	width := t.nk + len(t.cols)
	if partial {
		width = t.nk + partialCols*len(t.cols)
	}
	vals := make([]types.Value, 0, width*t.groups())
	for g := range t.hashes {
		start := len(vals)
		vals = append(vals, t.keyOf(int32(g))...)
		for i := range t.cols {
			if partial {
				vals = t.cols[i].appendPartial(vals, int32(g))
			} else {
				vals = append(vals, t.cols[i].final(int32(g)))
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
	out := make([]types.Row, 0, pass.groups())
	for {
		if budget := tables[0].budget; budget > 0 {
			pass.budget = pass.groups() + budget
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
