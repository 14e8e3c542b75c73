package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
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

// ParseAggKind maps a SQL function name to an AggKind.
func ParseAggKind(name string) (AggKind, bool) {
	switch strings.ToUpper(name) {
	case "SUM":
		return AggSum, true
	case "COUNT":
		return AggCount, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	default:
		return 0, false
	}
}

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
type HashAggregate struct {
	In      Operator
	GroupBy []expr.Expr // group key expressions over the input
	Specs   []AggSpec
	Mode    AggMode
	// Parallel is the desired table-build parallelism. Values above 1 make
	// prepare acquire extra workers from the Ctx budget and build
	// thread-local partitioned tables that are merged in parallel; 0/1 (or
	// raw DISTINCT aggregation, which cannot merge) keep the serial build.
	Parallel int
	// Trace, when non-nil, records the granted worker count.
	Trace    *obs.Span
	ctx      *Ctx
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

// aggOutputSchema computes the aggregation output schema: group columns
// followed by either partial-state columns (Partial/Merge) or final value
// columns. Shared by the row and the vector aggregate so both emit
// identically-typed rows.
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

// prepare drains the input and builds the result rows, choosing the serial
// or the parallel table build. Raw DISTINCT aggregation stays serial: each
// parallel worker would deduplicate only its own share of the input, so the
// merged counts would be wrong (distinct states cannot be combined).
func (h *HashAggregate) prepare() error {
	fromStates := h.Mode == AggMerge || h.Mode == AggFinal
	if fromStates {
		if err := validateAggSchema(h.In.Schema(), h.GroupBy, h.Specs); err != nil {
			return err
		}
	}
	rawDistinct := false
	if !fromStates {
		for _, sp := range h.Specs {
			if sp.Distinct {
				rawDistinct = true
			}
		}
	}
	degree := 1
	if h.Parallel > 1 && !rawDistinct {
		degree = h.ctx.AcquireWorkers(h.Parallel)
		defer h.ctx.ReleaseWorkers(degree)
	}
	var err error
	if degree > 1 {
		err = h.prepareParallel(degree, fromStates)
	} else {
		err = h.prepareSerial(fromStates)
	}
	if err != nil {
		return err
	}

	// No GROUP BY: SQL semantics require one output row even on empty input.
	if len(h.GroupBy) == 0 && len(h.results) == 0 && (h.Mode == AggComplete || h.Mode == AggFinal) {
		out := types.Row{}
		for _, sp := range h.Specs {
			st := newAggState(false)
			out = append(out, st.final(sp.Kind))
		}
		h.results = append(h.results, out)
	}
	if len(h.GroupBy) == 0 && len(h.results) == 0 && (h.Mode == AggPartial || h.Mode == AggMerge) {
		out := types.Row{}
		st := newAggState(false)
		for range h.Specs {
			out = append(out, st.partial()...)
		}
		h.results = append(h.results, out)
	}
	h.prepared = true
	return nil
}

// prepareSerial drains the input building group states on one thread,
// spilling input rows for groups beyond the budget.
func (h *HashAggregate) prepareSerial(fromStates bool) error {
	groups := map[string]*aggGroup{}
	var spill *spillWriter

	// Scratch buffers reused across rows: the table build runs once per
	// input row, and a per-row key allocation dominates its profile. The
	// groups[string(keyBuf)] lookup does not allocate; the string is only
	// materialized when a new group is inserted.
	keyScratch := make(types.Row, len(h.GroupBy))
	var keyBuf []byte
	processRow := func(r types.Row, allowSpill bool) (bool, error) {
		if h.ctx != nil {
			h.ctx.RowsProcessed.Add(1)
		}
		keyRow := keyScratch
		for i, k := range h.GroupBy {
			v, err := k.Eval(r)
			if err != nil {
				return true, err
			}
			keyRow[i] = v
		}
		keyBuf = types.AppendRow(keyBuf[:0], keyRow)
		g, ok := groups[string(keyBuf)]
		if !ok {
			if allowSpill && h.ctx != nil && h.ctx.MemRows > 0 && len(groups) >= h.ctx.MemRows {
				return false, nil // overflow: spill the raw row
			}
			g = &aggGroup{key: keyRow.Clone(), states: make([]*aggState, len(h.Specs))}
			for i, sp := range h.Specs {
				g.states[i] = newAggState(sp.Distinct && !fromStates)
			}
			groups[string(keyBuf)] = g
			if h.ctx != nil {
				h.ctx.addState(int64(types.RowEncodedSize(keyRow)) + int64(48*len(h.Specs)))
			}
		}
		if fromStates {
			base := len(h.GroupBy)
			for i := range h.Specs {
				g.states[i].merge(r[base+i*partialCols : base+(i+1)*partialCols])
			}
			return true, nil
		}
		for i, sp := range h.Specs {
			if sp.Arg == nil {
				g.states[i].addCountStar()
				continue
			}
			v, err := sp.Arg.Eval(r)
			if err != nil {
				return true, err
			}
			g.states[i].add(v)
		}
		return true, nil
	}

	emit := func() {
		for _, g := range groups {
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
			h.results = append(h.results, out)
		}
		groups = map[string]*aggGroup{}
	}

	ingest := func(r types.Row) error {
		accepted, err := processRow(r, true)
		if err != nil {
			return err
		}
		if !accepted {
			if spill == nil {
				spill, err = newSpillWriter(h.ctx, "agg-spill-*")
				if err != nil {
					return err
				}
			}
			if err := spill.write(r); err != nil {
				return err
			}
		}
		return nil
	}

	// Slab-at-a-time input keeps the per-row iterator call out of the table
	// build, the hot loop of every aggregation query.
	if err := drain(h.ctx, h.In, func(batch []types.Row) error {
		for _, r := range batch {
			if err := ingest(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	emit()

	// Recursively process spilled rows in passes; each pass handles up to
	// MemRows groups.
	for spill != nil {
		reader, err := spill.finish()
		if err != nil {
			return err
		}
		spill = nil
		for {
			r, ok, err := reader.next()
			if err != nil {
				reader.close()
				return err
			}
			if !ok {
				break
			}
			accepted, err := processRow(r, true)
			if err != nil {
				reader.close()
				return err
			}
			if !accepted {
				if spill == nil {
					spill, err = newSpillWriter(h.ctx, "agg-spill-*")
					if err != nil {
						reader.close()
						return err
					}
				}
				if err := spill.write(r); err != nil {
					reader.close()
					return err
				}
			}
		}
		reader.close()
		emit()
	}
	return nil
}

// fnv32 is FNV-1a over an encoded group key, used to pick the key's
// partition in the parallel table build.
func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// encodeKey evaluates the group key of r into keyScratch and returns its
// encoding appended into keyBuf[:0] (scratch buffers are per-goroutine).
func (h *HashAggregate) encodeKey(r types.Row, keyScratch types.Row, keyBuf []byte) ([]byte, error) {
	for i, k := range h.GroupBy {
		v, err := k.Eval(r)
		if err != nil {
			return keyBuf, err
		}
		keyScratch[i] = v
	}
	return types.AppendRow(keyBuf[:0], keyScratch), nil
}

// newGroup allocates a group for key (cloned out of the scratch row).
func (h *HashAggregate) newGroup(key types.Row, fromStates bool) *aggGroup {
	g := &aggGroup{key: key.Clone(), states: make([]*aggState, len(h.Specs))}
	for i, sp := range h.Specs {
		g.states[i] = newAggState(sp.Distinct && !fromStates)
	}
	if h.ctx != nil {
		h.ctx.addState(int64(types.RowEncodedSize(key)) + int64(48*len(h.Specs)))
	}
	return g
}

// foldInto folds one input row into a group's states.
func (h *HashAggregate) foldInto(g *aggGroup, r types.Row, fromStates bool) error {
	if fromStates {
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

// aggWorker is one parallel build worker's thread-local state: one group
// table per partition plus a lazy spill writer per partition, so overflow
// rows keep partition affinity and the merge phase can process partitions
// independently.
type aggWorker struct {
	groups  []map[string]*aggGroup
	spills  []*spillWriter
	nGroups int
}

// prepareParallel builds the aggregation table with degree workers. The
// input is drained by this goroutine and fanned out slab-at-a-time; each
// worker hashes the scratch-encoded group key into one of P partitions of
// its own tables (no locks on the build path), spilling overflow rows to
// partition-affine spill files once its share of the memory budget is used.
// Partitions are then merged in parallel — worker tables combined state-wise,
// spilled rows drained in budgeted passes — and the per-partition results
// concatenated. Group content is identical to the serial build; only row
// order differs (both are map-iteration order).
func (h *HashAggregate) prepareParallel(degree int, fromStates bool) error {
	numPart := 16
	for numPart < 2*degree {
		numPart <<= 1
	}
	mask := uint32(numPart - 1)
	localBudget := 0
	if h.ctx != nil && h.ctx.MemRows > 0 {
		localBudget = h.ctx.MemRows / degree
		if localBudget < 1 {
			localBudget = 1
		}
	}
	workers := make([]*aggWorker, degree)
	batches := make(chan []types.Row, degree)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	errCh := make(chan error, degree)
	var wg sync.WaitGroup
	for w := 0; w < degree; w++ {
		aw := &aggWorker{groups: make([]map[string]*aggGroup, numPart), spills: make([]*spillWriter, numPart)}
		for p := range aw.groups {
			aw.groups[p] = map[string]*aggGroup{}
		}
		workers[w] = aw
		wg.Add(1)
		go func(aw *aggWorker) {
			defer wg.Done()
			keyScratch := make(types.Row, len(h.GroupBy))
			var keyBuf []byte
			ingest := func(r types.Row) error {
				if h.ctx != nil {
					h.ctx.RowsProcessed.Add(1)
				}
				var err error
				keyBuf, err = h.encodeKey(r, keyScratch, keyBuf)
				if err != nil {
					return err
				}
				p := int(fnv32(keyBuf) & mask)
				g, ok := aw.groups[p][string(keyBuf)]
				if !ok {
					if localBudget > 0 && aw.nGroups >= localBudget {
						if aw.spills[p] == nil {
							sw, err := newSpillWriter(h.ctx, "agg-spill-*")
							if err != nil {
								return err
							}
							aw.spills[p] = sw
						}
						return aw.spills[p].write(r)
					}
					g = h.newGroup(keyScratch, fromStates)
					aw.groups[p][string(keyBuf)] = g
					aw.nGroups++
				}
				return h.foldInto(g, r, fromStates)
			}
			for {
				select {
				case <-stop:
					return
				case batch, ok := <-batches:
					if !ok {
						return
					}
					for _, r := range batch {
						if err := ingest(r); err != nil {
							errCh <- err
							halt()
							return
						}
					}
				}
			}
		}(aw)
	}
	feedErr := feedRowBatches(h.ctx, h.In, batches, stop)
	close(batches)
	wg.Wait()
	abortSpills := func() {
		for _, aw := range workers {
			for _, sw := range aw.spills {
				if sw != nil {
					sw.abort()
				}
			}
		}
	}
	var firstErr error
	select {
	case firstErr = <-errCh:
	default:
		firstErr = feedErr
	}
	if firstErr != nil {
		abortSpills()
		return firstErr
	}

	// Merge phase: up to degree mergers claim partitions from a counter.
	outs := make([][]types.Row, numPart)
	mergers := degree
	if mergers > numPart {
		mergers = numPart
	}
	var nextPart atomic.Int64
	merr := make(chan error, mergers)
	var mwg sync.WaitGroup
	for m := 0; m < mergers; m++ {
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			keyScratch := make(types.Row, len(h.GroupBy))
			var keyBuf []byte
			for {
				p := int(nextPart.Add(1) - 1)
				if p >= numPart {
					return
				}
				rows, err := h.mergePartition(p, workers, fromStates, localBudget, keyScratch, &keyBuf)
				if err != nil {
					merr <- err
					return
				}
				outs[p] = rows
			}
		}()
	}
	mwg.Wait()
	select {
	case err := <-merr:
		abortSpills()
		return err
	default:
	}
	for _, rows := range outs {
		h.results = append(h.results, rows...)
	}
	h.Trace.AddWorkers(int64(degree))
	return nil
}

// feedRowBatches drains an operator, fanning its slabs out to parallel
// build workers. Every slab is copied before crossing the goroutine
// boundary (the producer reuses its slab buffer per the ownership
// contract). Returns early without error when stop closes — the workers
// already have an error to report.
func feedRowBatches(ctx *Ctx, in Operator, batches chan<- []types.Row, stop <-chan struct{}) error {
	return drain(ctx, in, func(b []types.Row) error {
		cp := make([]types.Row, len(b))
		copy(cp, b)
		select {
		case batches <- cp:
			return nil
		case <-stop:
			return errStopDrain
		}
	})
}

// mergePartition combines every worker's partition-p table into one
// (state-wise combine on group collisions), then drains the partition's
// spilled rows in budgeted passes — each pass admits localBudget new groups
// and respills the rest — and emits the partition's result rows.
func (h *HashAggregate) mergePartition(p int, workers []*aggWorker, fromStates bool, localBudget int, keyScratch types.Row, keyBuf *[]byte) ([]types.Row, error) {
	merged := workers[0].groups[p]
	for _, aw := range workers[1:] {
		for k, g := range aw.groups[p] {
			if ex, ok := merged[k]; ok {
				for i := range ex.states {
					ex.states[i].combine(g.states[i])
				}
			} else {
				merged[k] = g
			}
		}
	}
	var readers []*spillReader
	closeAll := func(rs []*spillReader) {
		for _, rd := range rs {
			rd.close()
		}
	}
	for _, aw := range workers {
		if aw.spills[p] != nil {
			sw := aw.spills[p]
			aw.spills[p] = nil
			rd, err := sw.finish()
			if err != nil {
				closeAll(readers)
				return nil, err
			}
			readers = append(readers, rd)
		}
	}
	for len(readers) > 0 {
		capGroups := len(merged) + localBudget
		var respill *spillWriter
		for ri, rd := range readers {
			fail := func(err error) ([]types.Row, error) {
				closeAll(readers[ri:])
				if respill != nil {
					respill.abort()
				}
				return nil, err
			}
			for {
				r, ok, err := rd.next()
				if err != nil {
					return fail(err)
				}
				if !ok {
					break
				}
				if h.ctx != nil {
					h.ctx.RowsProcessed.Add(1)
				}
				kb, err := h.encodeKey(r, keyScratch, *keyBuf)
				*keyBuf = kb
				if err != nil {
					return fail(err)
				}
				g, ok := merged[string(kb)]
				if !ok {
					if len(merged) >= capGroups {
						if respill == nil {
							respill, err = newSpillWriter(h.ctx, "agg-spill-*")
							if err != nil {
								return fail(err)
							}
						}
						if err := respill.write(r); err != nil {
							return fail(err)
						}
						continue
					}
					g = h.newGroup(keyScratch, fromStates)
					merged[string(kb)] = g
				}
				if err := h.foldInto(g, r, fromStates); err != nil {
					return fail(err)
				}
			}
			rd.close()
		}
		readers = readers[:0]
		if respill != nil {
			rd, err := respill.finish()
			if err != nil {
				return nil, err
			}
			readers = append(readers, rd)
		}
	}
	out := make([]types.Row, 0, len(merged))
	for _, g := range merged {
		out = append(out, h.emitGroup(g))
	}
	return out, nil
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
func (h *HashAggregate) Close() error { return h.In.Close() }

// validateAggSchema asserts partial-state arity for Merge/Final inputs.
func validateAggSchema(in types.Schema, groupBy []expr.Expr, specs []AggSpec) error {
	want := len(groupBy) + len(specs)*partialCols
	if in.Len() != want {
		return fmt.Errorf("exec: merge aggregate input has %d columns, want %d", in.Len(), want)
	}
	return nil
}
