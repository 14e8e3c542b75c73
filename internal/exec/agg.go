package exec

import (
	"errors"
	"fmt"
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

// aggState is the in-flight accumulator for one (group, spec) pair.
type aggState struct {
	sumI     int64
	sumF     float64
	isFloat  bool
	count    int64
	min, max types.Value
	distinct map[string]bool
	seenAny  bool
}

func newAggState(distinct bool) *aggState {
	s := &aggState{min: types.Null, max: types.Null}
	if distinct {
		s.distinct = map[string]bool{}
	}
	return s
}

// add folds a value into the state (from raw input rows).
func (s *aggState) add(v types.Value) {
	if v.IsNull() {
		return
	}
	if s.distinct != nil {
		key := string(types.AppendValue(nil, v))
		if s.distinct[key] {
			return
		}
		s.distinct[key] = true
	}
	s.seenAny = true
	s.count++
	switch v.K {
	case types.KindInt, types.KindDate, types.KindBool:
		s.sumI += v.I
		s.sumF += float64(v.I)
	case types.KindFloat:
		s.isFloat = true
		s.sumF += v.F
	}
	if s.min.IsNull() || types.Compare(v, s.min) < 0 {
		s.min = v
	}
	if s.max.IsNull() || types.Compare(v, s.max) > 0 {
		s.max = v
	}
}

// addCountStar counts a row for COUNT(*).
func (s *aggState) addCountStar() {
	s.seenAny = true
	s.count++
}

// addInt and addFloat fold a non-null unboxed payload (k is Int, Date or
// Bool) with exactly the semantics of add: count++, integer kinds feed both
// sumI and sumF, floats set isFloat and feed sumF only, min/max ordered as
// types.Compare orders them. The same-kind compare is taken when the running
// extreme already has the value's kind (the common case on a fixed-kind
// column); anything else — a first value, a mixed-kind state, DISTINCT —
// goes through add.
func (s *aggState) addInt(k types.Kind, x int64) {
	if s.distinct != nil || s.min.K != k || s.max.K != k {
		s.add(types.Value{K: k, I: x})
		return
	}
	s.count++
	s.sumI += x
	s.sumF += float64(x)
	if x < s.min.I {
		s.min.I = x
	}
	if x > s.max.I {
		s.max.I = x
	}
}

func (s *aggState) addFloat(x float64) {
	if s.distinct != nil || s.min.K != types.KindFloat || s.max.K != types.KindFloat {
		s.add(types.NewFloat(x))
		return
	}
	s.count++
	s.sumF += x
	if x < s.min.F {
		s.min.F = x
	}
	if x > s.max.F {
		s.max.F = x
	}
}

// merge folds a partial-state row segment into the state. Partial encoding
// per spec: sum (float), count (int), min, max — 4 columns.
const partialCols = 4

func (s *aggState) merge(seg types.Row) {
	cnt := seg[1].Int()
	if cnt == 0 {
		return
	}
	s.seenAny = true
	s.count += cnt
	if !seg[0].IsNull() {
		if seg[0].K == types.KindFloat && seg[0].F != float64(int64(seg[0].F)) {
			s.isFloat = true
		}
		s.sumF += seg[0].Float()
		s.sumI += int64(seg[0].Float())
	}
	if !seg[2].IsNull() && (s.min.IsNull() || types.Compare(seg[2], s.min) < 0) {
		s.min = seg[2]
	}
	if !seg[3].IsNull() && (s.max.IsNull() || types.Compare(seg[3], s.max) > 0) {
		s.max = seg[3]
	}
}

// combine folds another in-flight accumulator for the same (group, spec)
// pair into s — the merge step of the parallel table build, where each
// worker accumulated a disjoint share of the group's input rows. Distinct
// states cannot be combined (each worker deduplicated only its own share),
// which is why the parallel path refuses raw distinct aggregation.
func (s *aggState) combine(o *aggState) {
	if !o.seenAny {
		return
	}
	s.seenAny = true
	s.count += o.count
	s.sumI += o.sumI
	s.sumF += o.sumF
	s.isFloat = s.isFloat || o.isFloat
	if !o.min.IsNull() && (s.min.IsNull() || types.Compare(o.min, s.min) < 0) {
		s.min = o.min
	}
	if !o.max.IsNull() && (s.max.IsNull() || types.Compare(o.max, s.max) > 0) {
		s.max = o.max
	}
}

// partial emits the mergeable 4-column encoding.
func (s *aggState) partial() types.Row {
	var sum types.Value
	if s.isFloat {
		sum = types.NewFloat(s.sumF)
	} else {
		sum = types.NewInt(s.sumI)
	}
	return types.Row{sum, types.NewInt(s.count), s.min, s.max}
}

// final computes the aggregate's final value.
func (s *aggState) final(kind AggKind) types.Value {
	switch kind {
	case AggCount:
		return types.NewInt(s.count)
	case AggSum:
		if !s.seenAny {
			return types.Null
		}
		if s.isFloat {
			return types.NewFloat(s.sumF)
		}
		return types.NewInt(s.sumI)
	case AggAvg:
		if s.count == 0 {
			return types.Null
		}
		return types.NewFloat(s.sumF / float64(s.count))
	case AggMin:
		return s.min
	case AggMax:
		return s.max
	default:
		return types.Null
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
// (aggTable.ingestBatch). Both encode a row's group key to the same bytes,
// so everything behind the lookup (budget, spill, partitioned merge, emit)
// exists once and a typed build's spilled rows merge through the row front
// end.
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
	typed    VecOperator // In's typed face; nil builds from row slabs
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
	h.out = aggOutputSchema(in.Schema(), groupBy, specs, mode)
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

// aggOutputSchema computes the aggregation output schema: group columns
// followed by either partial-state columns (Partial/Merge) or final value
// columns.
func aggOutputSchema(inSch types.Schema, groupBy []expr.Expr, specs []AggSpec, mode AggMode) types.Schema {
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
		for _, sp := range specs {
			base := sp.Name
			cols = append(cols,
				types.Column{Name: base + "$sum", Kind: types.KindFloat},
				types.Column{Name: base + "$cnt", Kind: types.KindInt},
				types.Column{Name: base + "$min", Kind: types.KindNull},
				types.Column{Name: base + "$max", Kind: types.KindNull},
			)
		}
	default:
		for _, sp := range specs {
			kind := types.KindFloat
			switch sp.Kind {
			case AggCount:
				kind = types.KindInt
			case AggSum:
				if sp.Arg != nil && expr.KindOf(sp.Arg, inSch) == types.KindInt {
					kind = types.KindInt
				}
			case AggMin, AggMax:
				if sp.Arg != nil {
					kind = expr.KindOf(sp.Arg, inSch)
				}
			}
			cols = append(cols, types.Column{Name: sp.Name, Kind: kind})
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

type aggGroup struct {
	key    types.Row
	states []*aggState
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
	// keeps one and never hashes a key to pick it.
	parts := 1
	if degree > 1 {
		parts = 16
		for parts < 2*degree {
			parts <<= 1
		}
	}
	tables := make([]*aggTable, degree)
	for w := range tables {
		tables[w] = h.newAggTable(parts, h.ctx.memShare(degree))
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
		empty := &aggGroup{states: make([]*aggState, len(h.Specs))}
		for i := range empty.states {
			empty.states[i] = newAggState(false)
		}
		h.results = append(h.results, h.emitGroup(empty))
	}
	h.prepared = true
	return nil
}

// fnv32 is FNV-1a over an encoded group key: the hash that picks the key's
// partition, independent of the group maps' own.
func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// aggTable is one worker's private group table. Groups live in partitions
// picked by fnv32 of the encoded key, so partition p of every worker holds
// the same keys and the partitions merge independently. Once budget groups
// are held, the rows of any further group go to a spill opened lazily for
// their partition, which keeps a spilled partition mergeable on its own.
// The scratch key is reused across rows: the map lookup by string(keyBuf)
// does not allocate, only the insert of a new group does.
type aggTable struct {
	h          *HashAggregate
	fromStates bool
	budget     int // groups held before new ones spill; 0 = unbounded
	held       int
	parts      []map[string]*aggGroup
	spills     []*spillWriter
	keyRow     types.Row
	keyBuf     []byte
	// The typed front end's per-table state (bindTyped, at its first batch): where
	// each key and argument is read from, and the row a batch is boxed into
	// when one of them has no typed reader.
	keyCols  []int // by key: the input column it is, or -1 for an expression
	exprKeys bool  // some key is an expression
	args     []aggArg
	scratch  types.Row
}

// aggArg reads one aggregate argument off a typed batch.
type aggArg struct {
	arg  expr.Expr  // nil for COUNT(*)
	node numNode    // arg's kernel; nil for a shape without one
	kind types.Kind // of an integer result: Int or Date
	nv   numVec     // this batch's values, valid when ok
	ok   bool
}

func (h *HashAggregate) newAggTable(parts, budget int) *aggTable {
	t := &aggTable{
		h: h, fromStates: h.Mode == AggMerge || h.Mode == AggFinal, budget: budget,
		parts:  make([]map[string]*aggGroup, parts),
		spills: make([]*spillWriter, parts),
		keyRow: make(types.Row, len(h.GroupBy)),
	}
	for p := range t.parts {
		t.parts[p] = map[string]*aggGroup{}
	}
	return t
}

// group finds the group of the key in the scratch row, admitting a new one
// while the budget allows; past it the answer is nil and the row belongs in
// partition p's spill. This is the one place a key is encoded — by
// types.AppendRow, from either front end — which is what lets a row one
// front end spilled find, through the other, the group it belongs to.
func (t *aggTable) group() (g *aggGroup, p int) {
	t.keyBuf = types.AppendRow(t.keyBuf[:0], t.keyRow)
	if len(t.parts) > 1 {
		p = int(fnv32(t.keyBuf) & uint32(len(t.parts)-1))
	}
	g, ok := t.parts[p][string(t.keyBuf)]
	if !ok {
		if t.budget > 0 && t.held >= t.budget {
			return nil, p
		}
		h := t.h
		g = &aggGroup{key: t.keyRow.Clone(), states: make([]*aggState, len(h.Specs))}
		for i, sp := range h.Specs {
			g.states[i] = newAggState(sp.Distinct && !t.fromStates)
		}
		h.ctx.addState(int64(types.RowEncodedSize(t.keyRow)) + int64(48*len(h.Specs)))
		t.parts[p][string(t.keyBuf)] = g
		t.held++
	}
	return g, p
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
	g, p := t.group()
	if g == nil {
		return t.spill(p, r)
	}
	if t.fromStates {
		base := len(h.GroupBy)
		for i := range h.Specs {
			g.states[i].merge(r[base+i*partialCols : base+(i+1)*partialCols])
		}
		return nil
	}
	for i, sp := range h.Specs {
		if sp.Arg == nil {
			g.states[i].addCountStar()
			continue
		}
		v, err := sp.Arg.Eval(r)
		if err != nil {
			return err
		}
		g.states[i].add(v)
	}
	return nil
}

// bindTyped works out, once per table, where the typed front end reads each
// key and argument from.
func (t *aggTable) bindTyped() {
	h, sch := t.h, t.h.In.Schema()
	t.keyCols, t.exprKeys = keyColumns(h.GroupBy, sch.Len())
	t.args = make([]aggArg, len(h.Specs))
	for i, sp := range h.Specs {
		if sp.Arg != nil {
			t.args[i] = aggArg{arg: sp.Arg, node: compileNum(sp.Arg, sch), kind: expr.KindOf(sp.Arg, sch)}
		}
	}
	t.scratch = make(types.Row, sch.Len())
}

// ingestBatch is the typed front end: it folds the active rows of one batch
// into their groups. A key that is a plain column is read off the column
// (Col.Value honours the NULL bitmap and a column demoted to boxed), and an
// argument compileNum has a kernel for is evaluated once for the whole batch
// and folded in unboxed. Anything else — an expression key, CASE, LIKE,
// division, a string or demoted argument column — is evaluated on the boxed
// row, for that batch only; BoxedRows counts the rows so read, and those
// spilled.
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
	var boxed int64
	for k := 0; k < n; k++ {
		i := b.Index(k)
		var row types.Row
		if needRow {
			row = b.ReadRow(i, t.scratch)
			boxed++
		}
		for ki, c := range t.keyCols {
			if c >= 0 {
				t.keyRow[ki] = b.Cols[c].Value(i)
				continue
			}
			v, err := t.h.GroupBy[ki].Eval(row)
			if err != nil {
				return err
			}
			t.keyRow[ki] = v
		}
		g, p := t.group()
		if g == nil {
			if row == nil {
				row = b.ReadRow(i, t.scratch)
				boxed++
			}
			if err := t.spill(p, row); err != nil {
				return err
			}
			continue
		}
		for si := range t.args {
			a, st := &t.args[si], g.states[si]
			switch {
			case a.arg == nil:
				st.addCountStar()
			case !a.ok:
				v, err := a.arg.Eval(row)
				if err != nil {
					return err
				}
				st.add(v)
			case a.nv.null != nil && a.nv.null[k]:
			case a.nv.isFloat:
				st.addFloat(a.nv.f[k])
			default:
				st.addInt(a.kind, a.nv.i[k])
			}
		}
	}
	t.h.ctx.addBoxed(boxed)
	return nil
}

// emitGroup renders one group as an output row (partial states or finals).
func (h *HashAggregate) emitGroup(g *aggGroup) types.Row {
	out := g.key.Clone()
	if h.Mode == AggPartial || h.Mode == AggMerge {
		for _, st := range g.states {
			out = append(out, st.partial()...)
		}
	} else {
		for i, sp := range h.Specs {
			out = append(out, g.states[i].final(sp.Kind))
		}
	}
	return out
}

// mergePartition produces partition p's result rows: the workers' tables
// for p are combined state-wise into one, then the partition's spilled rows
// are drained through that table in passes. A row a worker spilled belongs
// to a group its own table did not hold, but another worker's may, so the
// first pass folds the spills into the combined table while admitting the
// budget's worth of new groups on top of it. What a pass respills belongs to
// no group it holds; its groups are therefore complete, and are emitted and
// dropped before the next pass admits its own.
func (h *HashAggregate) mergePartition(p int, tables []*aggTable) ([]types.Row, error) {
	pass := h.newAggTable(1, 0)
	pass.parts[0] = tables[0].parts[p]
	for _, t := range tables[1:] {
		for k, g := range t.parts[p] {
			if ex, ok := pass.parts[0][k]; ok {
				for i := range ex.states {
					ex.states[i].combine(g.states[i])
				}
			} else {
				pass.parts[0][k] = g
			}
		}
	}
	var spilled []*spillWriter
	for _, t := range tables {
		if t.spills[p] != nil {
			spilled = append(spilled, t.spills[p])
		}
	}
	out := make([]types.Row, 0, len(pass.parts[0]))
	for {
		pass.held = len(pass.parts[0])
		pass.budget = pass.held + tables[0].budget
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
		for _, g := range pass.parts[0] {
			out = append(out, h.emitGroup(g))
		}
		if pass.spills[0] == nil {
			return out, nil
		}
		spilled = append(spilled[:0], pass.spills[0])
		pass.spills[0] = nil
		pass.parts[0] = map[string]*aggGroup{}
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
