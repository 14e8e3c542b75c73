package cluster

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/types"
)

// This file implements the paper's dataflow phases (Section V):
//
//	Phase 2 (dataflow conversion): each table scan becomes one scan per
//	fragment, placed on the worker storing the fragment, so data locality
//	is enforced for scans.
//
//	Phase 3 (dataflow optimization): relational operators are pushed from
//	the coordinator to the workers; joins and aggregations run co-located
//	when partitioning allows it, shuffles are inserted only where needed
//	(and eliminated when an existing partitioning subsumes the required
//	one); aggregations are split into worker-side pre-aggregation merged
//	over the tree topology when that is cheaper; sorts merge upward; top-k
//	runs as per-worker heaps merged at the coordinator.

// distKind classifies where a distributed stream's rows live.
type distKind uint8

const (
	distPartitioned distKind = iota + 1 // hash-partitioned across workers on cols
	distReplicated                      // full copy on every worker
	distRandom                          // spread across workers, no known key
)

type distInfo struct {
	kind distKind
	cols []string // partitioning columns (qualified, lower-case)
}

// dstream is a worker-resident distributed stream: one operator per worker.
// typed is the representation the stream's rows travel in: set, every op is
// an exec.VecOperator that ships freshly built typed batches (a columnar
// scan, marked by distributeScan); clear, row slabs. An operator placed over
// the stream is lowered for the representation this says, not for what a
// type assertion on ops would find.
type dstream struct {
	ops   []exec.Operator
	sch   types.Schema
	dist  distInfo
	typed bool
}

// queryExec tracks per-query state during distribution. coord is the
// coordinator planning and gathering this query — the paper allows
// multiple coordinators to process requests in parallel, so queries are
// spread across them.
type queryExec struct {
	c     *Cluster
	coord *CoordinatorNode
	qid   uint64
	xseq  int
	prof  ExecProfile

	// Serving-layer state (nil/zero outside the served path). opts carries
	// the per-query controls; ctxs are per-worker child contexts deriving
	// from the workers' shared contexts (same counters and parallel budget,
	// private cancellation and batch sizing); qids lists this query's ID
	// plus those of its materialized subqueries (the channel namespaces to
	// release); live counts the query's background loops so release waits
	// for quiescence.
	opts *QueryOptions
	ctxs []*exec.Ctx
	qids *[]uint64
	live *sync.WaitGroup

	// Tracing state (nil for untraced queries — the zero-overhead path).
	// tr collects spans; spans maps each wrapped operator to its span so
	// parents link children across distribute calls; scope attributes the
	// fabric traffic of this query's channel prefixes.
	tr    *obs.QueryTrace
	spans map[exec.Operator]*obs.Span
	scope *network.MeterScope

	// Cardinality state (traced queries only): est estimates each subtree
	// once for span stamping and runtime re-costing; fb lists the traced
	// subtrees whose actual row counts feed back into the estimator after a
	// successful run.
	est *opt.Estimator
	fb  []fbTarget
}

// fbTarget ties one plan subtree's signature to the spans that will hold
// its actual output cardinality after execution.
type fbTarget struct {
	sig        string
	spans      []*obs.Span
	replicated bool // every span carries a full copy; average, don't sum
}

// estimator returns the query's cardinality estimator, feedback-aware when
// the cluster keeps a feedback store.
func (q *queryExec) estimator() *opt.Estimator {
	if q.est == nil {
		q.est = &opt.Estimator{Cat: q.c.Catalog(), FB: q.c.Feedback}
	}
	return q.est
}

// newQueryExec allocates a query id and builds per-query execution state.
// opts, when non-nil, threads the serving layer's controls in: the kill
// switch and per-session batch sizing become per-worker child contexts and
// MaxParallel clamps the profile's parallelism degree.
func (c *Cluster) newQueryExec(coord *CoordinatorNode, opts *QueryOptions) *queryExec {
	q := &queryExec{c: c, coord: coord, qid: c.querySeq.Add(1), prof: c.Cfg.Profile}
	ids := []uint64{q.qid}
	q.qids = &ids
	q.live = &sync.WaitGroup{}
	if opts == nil {
		return q
	}
	q.opts = opts
	if opts.MaxParallel > 0 {
		q.prof.Parallelism = min(q.prof.Parallelism, opts.MaxParallel)
	}
	if opts.Cancel != nil || opts.BatchRows > 0 {
		q.ctxs = make([]*exec.Ctx, len(c.Workers))
		for i, w := range c.Workers {
			child := w.execCtx.Child(opts.Cancel)
			if opts.BatchRows > 0 {
				child.BatchRows = opts.BatchRows
			}
			q.ctxs[i] = child
		}
	}
	return q
}

// wctx returns the execution context for worker index wi: the per-query
// child when the serving layer supplied options, the worker's shared
// context otherwise.
func (q *queryExec) wctx(wi int) *exec.Ctx {
	if q.ctxs != nil {
		return q.ctxs[wi]
	}
	return q.c.Workers[wi].execCtx
}

// cancel returns the query's kill switch (nil when unkillable).
func (q *queryExec) cancel() *exec.Cancel {
	if q.opts == nil {
		return nil
	}
	return q.opts.Cancel
}

// releaseWhenQuiet frees the query's fabric mailboxes (one channel
// namespace per query ID) once every background loop reading them has
// exited. Mailboxes are created lazily and would otherwise accumulate for
// the fabric's lifetime — fatal for a server running thousands of queries.
func (q *queryExec) releaseWhenQuiet() {
	if q.live == nil || q.qids == nil {
		return
	}
	ids := append([]uint64(nil), (*q.qids)...)
	live, f := q.live, q.c.Fabric
	go func() {
		live.Wait()
		for _, id := range ids {
			f.ReleasePrefix(fmt.Sprintf("q%d.", id))
		}
	}()
}

func (q *queryExec) channel(tag string) string {
	q.xseq++
	return fmt.Sprintf("q%d.%s%d", q.qid, tag, q.xseq)
}

// CompileDistributed converts a logical plan into a coordinator-side row
// cursor whose Open launches the distributed dataflow.
func (c *Cluster) CompileDistributed(root plan.Node) (*exec.Cursor, error) {
	return c.CompileDistributedOn(c.Coords[0], root)
}

// CompileDistributedOn compiles against a specific coordinator (results
// route through it; Section I: query results are always routed to the
// client through the coordinator that planned the query).
func (c *Cluster) CompileDistributedOn(coord *CoordinatorNode, root plan.Node) (*exec.Cursor, error) {
	op, err := c.newQueryExec(coord, nil).compile(root)
	if err != nil {
		return nil, err
	}
	return exec.NewCursor(op), nil
}

// compile materializes the plan's scalar subqueries, distributes it, and
// returns the coordinator-side root operator (gathering a worker-resident
// result to the coordinator when distribution left it there).
func (q *queryExec) compile(root plan.Node) (exec.Operator, error) {
	if err := q.materializeScalars(root); err != nil {
		return nil, err
	}
	ds, coordOp, err := q.distribute(root)
	if err != nil {
		return nil, err
	}
	if coordOp == nil {
		coordOp = q.gatherPlain(ds)
	}
	return coordOp, nil
}

// materializeScalars executes uncorrelated scalar subqueries first, with
// full distribution, and freezes their values into the plan.
func (q *queryExec) materializeScalars(root plan.Node) error {
	var scalars []*plan.ScalarSubquery
	collect := func(e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) {
			if s, ok := x.(*plan.ScalarSubquery); ok && s.Resolved == nil {
				scalars = append(scalars, s)
			}
		})
	}
	plan.Walk(root, func(m plan.Node) {
		switch x := m.(type) {
		case *plan.Filter:
			collect(x.Pred)
		case *plan.Scan:
			if x.Pred != nil {
				collect(x.Pred)
			}
		case *plan.Project:
			for _, e := range x.Exprs {
				collect(e)
			}
		case *plan.Join:
			if x.Residual != nil {
				collect(x.Residual)
			}
		}
	})
	for _, s := range scalars {
		rows, err := q.runSubquery(s.Plan)
		if err != nil {
			return err
		}
		v := types.Null
		switch {
		case len(rows) == 0:
		case len(rows) == 1 && len(rows[0]) >= 1:
			v = rows[0][0]
		default:
			return fmt.Errorf("cluster: scalar subquery returned %d rows", len(rows))
		}
		s.Resolved = &v
	}
	return nil
}

// runSubquery executes a materialized subquery under its own query ID but
// sharing the parent query's trace and meter scope, so a traced or metered
// parent attributes subquery spans and traffic to itself.
func (q *queryExec) runSubquery(root plan.Node) ([]types.Row, error) {
	sub := &queryExec{
		c: q.c, coord: q.coord, qid: q.c.querySeq.Add(1), prof: q.prof,
		opts: q.opts, ctxs: q.ctxs, qids: q.qids, live: q.live,
		tr: q.tr, spans: q.spans, scope: q.scope,
	}
	if q.qids != nil {
		*q.qids = append(*q.qids, sub.qid)
	}
	q.scope.AddPrefix(fmt.Sprintf("q%d.", sub.qid))
	coordOp, err := sub.compile(root)
	if err != nil {
		return nil, err
	}
	return exec.Collect(coordOp)
}

// distribute returns either a worker-resident stream or a coordinator
// operator (exactly one non-nil). On traced queries it additionally stamps
// every placed operator's span with the optimizer's row estimate (the
// `est=` column of EXPLAIN ANALYZE) and registers the subtree for post-run
// cardinality feedback; untraced queries go straight to distributeNode.
func (q *queryExec) distribute(n plan.Node) (*dstream, exec.Operator, error) {
	ds, coordOp, err := q.distributeNode(n)
	if err != nil || q.tr == nil {
		return ds, coordOp, err
	}
	est := q.estimator().Estimate(n)
	t := fbTarget{sig: opt.Signature(n)}
	switch {
	case coordOp != nil:
		if sp := q.spanOf(coordOp); sp != nil {
			sp.SetEst(int64(est + 0.5))
			t.spans = append(t.spans, sp)
		}
	case ds != nil && len(ds.ops) > 0:
		// Per-worker estimate: an even share of the total, or the full count
		// when every worker holds a replica.
		t.replicated = ds.dist.kind == distReplicated
		per := est
		if !t.replicated {
			per = est / float64(len(ds.ops))
		}
		for _, op := range ds.ops {
			if sp := q.spanOf(op); sp != nil {
				sp.SetEst(int64(per + 0.5))
				t.spans = append(t.spans, sp)
			}
		}
	}
	if len(t.spans) > 0 && q.c.Feedback != nil {
		q.fb = append(q.fb, t)
	}
	return ds, coordOp, nil
}

// distributeOneCopy is distribute for the operators that merge their
// per-worker results at the coordinator (sort, top-k, limit): of a stream
// every worker holds in full, merging the workers' outputs would return
// each row once per worker, so one replica is brought to the coordinator
// and the operator runs there.
func (q *queryExec) distributeOneCopy(n plan.Node) (*dstream, exec.Operator, error) {
	ds, coordOp, err := q.distribute(n)
	if err == nil && coordOp == nil && ds.dist.kind == distReplicated {
		return nil, q.pickOne(ds), nil
	}
	return ds, coordOp, err
}

// distributeNode dispatches one plan node to its distribution strategy.
func (q *queryExec) distributeNode(n plan.Node) (*dstream, exec.Operator, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return q.distributeScan(x)
	case *plan.Rename:
		ds, coordOp, err := q.distribute(x.Child)
		if err != nil {
			return nil, nil, err
		}
		if coordOp != nil {
			r := renameSchema(coordOp, x.Schema())
			q.adopt(r, coordOp)
			return nil, r, nil
		}
		// Rename columns positionally; partition columns follow.
		newDist := ds.dist
		newDist.cols = mapColsByPosition(ds.dist.cols, ds.sch, x.Schema())
		out := &dstream{sch: x.Schema(), dist: newDist}
		for _, op := range ds.ops {
			r := renameSchema(op, x.Schema())
			q.adopt(r, op)
			out.ops = append(out.ops, r)
		}
		return out, nil, nil
	case *plan.Filter:
		ds, coordOp, err := q.distribute(x.Child)
		if err != nil {
			return nil, nil, err
		}
		if coordOp != nil {
			return nil, q.wrap("Filter", q.coord.ID, exec.NewFilter(nil, coordOp, x.Pred), coordOp), nil
		}
		out := &dstream{sch: ds.sch, dist: ds.dist}
		for wi, op := range ds.ops {
			w := q.c.Workers[wi]
			out.ops = append(out.ops, q.wrap("Filter", w.ID, exec.NewFilter(q.wctx(wi), op, x.Pred), op))
		}
		return out, nil, nil
	case *plan.Project:
		ds, coordOp, err := q.distribute(x.Child)
		if err != nil {
			return nil, nil, err
		}
		if coordOp != nil {
			return nil, q.wrap("Project", q.coord.ID, exec.NewProject(nil, coordOp, x.Exprs, x.Names), coordOp), nil
		}
		newDist := projectDist(ds.dist, x)
		out := &dstream{sch: x.Schema(), dist: newDist}
		for wi, op := range ds.ops {
			w := q.c.Workers[wi]
			out.ops = append(out.ops, q.wrap("Project", w.ID, exec.NewProject(q.wctx(wi), op, x.Exprs, x.Names), op))
		}
		return out, nil, nil
	case *plan.Join:
		return q.distributeJoin(x)
	case *plan.Agg:
		return q.distributeAgg(x)
	case *plan.Sort:
		ds, coordOp, err := q.distributeOneCopy(x.Child)
		if err != nil {
			return nil, nil, err
		}
		keys := planSortKeys(x.Keys)
		if coordOp != nil {
			return nil, q.wrap("Sort", q.coord.ID, exec.NewSort(nil, coordOp, keys), coordOp), nil
		}
		// Distributed merge sort: local sorts (parallel run generation per
		// the profile), ordered merge upward.
		sorted := make([]exec.Operator, len(ds.ops))
		for wi, op := range ds.ops {
			w := q.c.Workers[wi]
			srt := exec.NewSort(q.wctx(wi), op, keys)
			srt.Parallel = q.prof.Parallelism
			sorted[wi] = q.wrap("Sort", w.ID, srt, op)
		}
		return nil, q.gatherOrdered(&dstream{ops: sorted, sch: ds.sch}, keys), nil
	case *plan.Limit:
		return q.distributeLimit(x)
	case *plan.Distinct:
		ds, coordOp, err := q.distribute(x.Child)
		if err != nil {
			return nil, nil, err
		}
		if coordOp != nil {
			return nil, q.wrap("Distinct", q.coord.ID, exec.NewDistinct(coordOp), coordOp), nil
		}
		if ds.dist.kind == distReplicated {
			// One replica suffices.
			one := q.pickOne(ds)
			return nil, q.wrap("Distinct", q.coord.ID, exec.NewDistinct(one), one), nil
		}
		// Shuffle on all columns, then local distinct.
		allKeys := exec.ColRefs(allIdx(ds.sch.Len())...)
		shuffled, err := q.shuffle(ds, allKeys, colNames(ds.sch))
		if err != nil {
			return nil, nil, err
		}
		out := &dstream{sch: ds.sch, dist: shuffled.dist}
		for wi, op := range shuffled.ops {
			out.ops = append(out.ops, q.wrap("Distinct", q.c.Workers[wi].ID, exec.NewDistinct(op), op))
		}
		return out, nil, nil
	default:
		return nil, nil, fmt.Errorf("cluster: cannot distribute %T", n)
	}
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func colNames(s types.Schema) []string {
	out := make([]string, s.Len())
	for i, c := range s.Cols {
		out[i] = strings.ToLower(c.Name)
	}
	return out
}

// planSortKeys converts plan sort items.
func planSortKeys(keys []plan.SortItem) []exec.SortKey {
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		out[i] = exec.SortKey{Col: k.Col, Desc: k.Desc}
	}
	return out
}

// distributeScan is phase 2: one scan per fragment on the worker holding it.
// When an index matches a highly selective equality, the optimizer chooses
// the index path instead (phase 1's table-vs-index-scan decision).
func (q *queryExec) distributeScan(x *plan.Scan) (*dstream, exec.Operator, error) {
	if !x.Table.Columnar {
		if m := q.findIndexPath(x); m != nil {
			ds, err := q.indexScan(x, m)
			if err != nil {
				return nil, nil, err
			}
			return ds, nil, nil
		}
	}
	cfg := exec.ScanConfig{
		Pred:         x.Pred,
		Cols:         x.Cols,
		UseSkipCache: q.prof.UseSkipCache,
		UseMinMax:    q.prof.UseMinMax,
	}
	ds := &dstream{sch: x.Schema(), typed: x.Table.Columnar}
	name := lower(x.Table.Name)
	for wi, w := range q.c.Workers {
		// The scan span is created before the operator so the scan thread
		// can deposit its page/row stats directly.
		sp := q.startSpan("Scan "+name, w.ID)
		wctx := q.wctx(wi)
		wcfg := cfg
		wcfg.Trace = sp
		wcfg.BatchRows = wctx.BatchRows
		// Morsel parallelism: the scan asks for the profile's degree and the
		// worker's shared budget decides what it actually gets.
		wcfg.Parallel = q.prof.Parallelism
		wcfg.Ctx = wctx
		var op exec.Operator
		if x.Table.Columnar {
			fr := w.colFrags[name]
			if fr == nil {
				return nil, nil, fmt.Errorf("cluster: worker %d has no fragment of %s", w.ID, name)
			}
			op = exec.NewVecColumnarScan(fr, x.Alias, wcfg)
		} else {
			fr := w.frags[name]
			if fr == nil {
				return nil, nil, fmt.Errorf("cluster: worker %d has no fragment of %s", w.ID, name)
			}
			op = exec.NewRowScan(fr, x.Alias, wcfg)
		}
		ds.ops = append(ds.ops, q.attach(op, sp))
	}
	ds.dist = q.scanDist(x)
	return ds, nil, nil
}

// scanDist is how a scan's output is spread over the workers: as the table
// is partitioned, so long as the scan emits the partitioning columns. A
// stream cannot be known by a column it does not carry — a later name
// lookup would miss it, or worse, match some other column by suffix — so a
// scan that prunes one away is treated as spread at random.
func (q *queryExec) scanDist(x *plan.Scan) distInfo {
	switch {
	case x.Table.Part.Kind == catalog.PartReplicated:
		return distInfo{kind: distReplicated}
	case x.Table.Part.Kind == catalog.PartHash && q.prof.EnforceLocality:
		sch := x.Schema()
		cols := make([]string, len(x.Table.Part.Cols))
		for i, c := range x.Table.Part.Cols {
			cols[i] = x.Alias + "." + strings.ToLower(c)
			if exactCol(sch, cols[i]) < 0 {
				return distInfo{kind: distRandom}
			}
		}
		return distInfo{kind: distPartitioned, cols: cols}
	default:
		return distInfo{kind: distRandom}
	}
}

// exactCol returns the offset of the column of exactly this name (case
// aside), or -1. Distribution columns are recorded under the name their
// stream's schema gives them, so they are looked up this way: Schema.Find's
// suffix rules are for names a query wrote.
func exactCol(sch types.Schema, name string) int {
	for i, c := range sch.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// keyNames returns the names sch gives the columns that plain-column key
// expressions (bound to sch) refer to; ok=false when any key is a computed
// expression. These are the names distributions are recorded and compared
// under: a query may spell one column several ways, a schema names it once.
func keyNames(keys []expr.Expr, sch types.Schema) ([]string, bool) {
	out := make([]string, len(keys))
	for i, k := range keys {
		c, isCol := k.(*expr.Col)
		if !isCol || c.Index < 0 || c.Index >= sch.Len() {
			return nil, false
		}
		out[i] = strings.ToLower(sch.Cols[c.Index].Name)
	}
	return out, true
}

// distMatches reports whether a stream partitioned on dist.cols satisfies
// a requirement to be partitioned on req (the paper's shuffle elimination:
// equality on the existing partition columns implies co-location; we use
// exact sequence match of the hash key). Both are schema names (keyNames).
func distMatches(d distInfo, req []string) bool {
	if d.kind != distPartitioned || len(d.cols) != len(req) {
		return false
	}
	for i := range req {
		if !strings.EqualFold(d.cols[i], req[i]) {
			return false
		}
	}
	return true
}

func (q *queryExec) distributeJoin(x *plan.Join) (*dstream, exec.Operator, error) {
	left, leftCoord, err := q.distribute(x.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rightCoord, err := q.distribute(x.Right)
	if err != nil {
		return nil, nil, err
	}
	par := q.prof.Parallelism
	// Any side already on the coordinator → finish there.
	if leftCoord != nil || rightCoord != nil {
		if leftCoord == nil {
			leftCoord = q.gatherPlain(left)
		}
		if rightCoord == nil {
			rightCoord = q.gatherPlain(right)
		}
		jop := q.makeJoin(nil, leftCoord, rightCoord, x, par)
		return nil, q.wrap(joinLabel(x), q.coord.ID, jop, leftCoord, rightCoord), nil
	}
	// No equality keys: non-equi join on the coordinator.
	if len(x.EquiLeft) == 0 {
		l, r := q.gatherPlain(left), q.gatherPlain(right)
		jop := exec.NewNestedLoopJoin(nil, l, r, x.Residual, x.Type)
		return nil, q.wrap("NestedLoopJoin", q.coord.ID, jop, l, r), nil
	}

	leftNames, leftPlain := keyNames(x.EquiLeft, x.Left.Schema())
	rightNames, rightPlain := keyNames(x.EquiRight, x.Right.Schema())

	// The one place worker joins are built, once the distribution is fixed.
	// An inner join builds on whichever input leaves the smaller share on a
	// worker; a semi or anti join always builds on its right. Over a typed
	// probe stream the probe reads the scan's batches through the join's
	// typed front end; the build side is read as rows whatever it is (the
	// table stores boxed rows), and what a join produces is rows.
	join := func(l, r *dstream, d distInfo) *dstream {
		probe, build, probeKeys, buildKeys := l, r, x.EquiLeft, x.EquiRight
		buildLeft := x.Type == exec.JoinInner && q.buildShare(x.Left, l) < q.buildShare(x.Right, r)
		if buildLeft {
			probe, build, probeKeys, buildKeys = r, l, x.EquiRight, x.EquiLeft
		}
		out := &dstream{sch: x.Schema(), dist: d}
		for wi, w := range q.c.Workers {
			var h *exec.HashJoin
			if probe.typed {
				h = exec.NewTypedProbeHashJoin(q.wctx(wi), probe.ops[wi].(exec.VecOperator), build.ops[wi],
					probeKeys, buildKeys, x.Type, x.Residual, par)
			} else {
				h = exec.NewHashJoin(q.wctx(wi), probe.ops[wi], build.ops[wi], probeKeys, buildKeys, x.Type, x.Residual, par)
			}
			if buildLeft {
				h.BuildLeft()
			}
			out.ops = append(out.ops, q.wrap(joinLabel(x), w.ID, h, l.ops[wi], r.ops[wi]))
		}
		return out
	}

	switch {
	case right.dist.kind == distReplicated:
		// Build side replicated: co-located join everywhere; output keeps
		// the probe side's distribution.
		return join(left, right, left.dist), nil, nil
	case left.dist.kind == distReplicated && x.Type == exec.JoinInner:
		// Probe side replicated: each worker probes its replica against
		// its partition of the build side; build rows partition, so no
		// duplicates arise.
		return join(left, right, right.dist), nil, nil
	case left.dist.kind == distReplicated:
		// Semi/anti with replicated probe would duplicate output rows;
		// run on the coordinator (rare).
		l, r := q.gatherPlain(left), q.gatherPlain(right)
		return nil, q.wrap(joinLabel(x), q.coord.ID, q.makeJoin(nil, l, r, x, par), l, r), nil
	}

	// Both partitioned/random: exploit or create co-location.
	leftOK := q.prof.EnforceLocality && leftPlain && distMatches(left.dist, leftNames)
	rightOK := q.prof.EnforceLocality && rightPlain && distMatches(right.dist, rightNames)
	// Re-cost the movement at this exchange boundary: with runtime
	// distributions known and feedback-corrected estimates, replicating a
	// small build side can beat repartitioning a large probe side. The
	// planner's Dist annotation is advisory; this decision is authoritative.
	if !leftOK && q.wantBroadcast(x, leftNames, rightNames, rightOK) {
		b, err := q.broadcast(right)
		if err != nil {
			return nil, nil, err
		}
		return join(left, b, left.dist), nil, nil
	}
	if !leftOK {
		left, err = q.shuffle(left, x.EquiLeft, leftNames)
		if err != nil {
			return nil, nil, err
		}
	}
	if !rightOK {
		right, err = q.shuffle(right, x.EquiRight, rightNames)
		if err != nil {
			return nil, nil, err
		}
	}
	outDist := distInfo{kind: distRandom}
	if leftPlain {
		outDist = distInfo{kind: distPartitioned, cols: leftNames}
	}
	return join(left, right, outDist), nil, nil
}

// wantBroadcast decides shuffle-vs-broadcast for an equi-join whose probe
// side is mispartitioned, using the shared cost model on the estimated
// build-side size. Inner/semi/anti joins stay correct under a replicated
// build side because each probe row lives on exactly one worker and sees
// the complete build set there.
func (q *queryExec) wantBroadcast(x *plan.Join, leftNames, rightNames []string, rightOK bool) bool {
	switch x.Type {
	case exec.JoinInner, exec.JoinSemi, exec.JoinAnti:
	default:
		return false
	}
	if len(leftNames) == 0 {
		return false
	}
	est := q.estimator()
	ld := opt.DistInfo{Kind: opt.DistRandom} // caller established !leftOK
	rd := opt.DistInfo{Kind: opt.DistRandom}
	if rightOK {
		rd = opt.DistInfo{Kind: opt.DistPartitioned, Cols: rightNames}
	}
	net := opt.ChooseJoinNet(ld, rd, leftNames, rightNames,
		est.Estimate(x.Left), est.RowWidth(x.Left),
		est.Estimate(x.Right), est.RowWidth(x.Right), len(q.c.Workers))
	return net.Broadcast
}

// buildShare is the estimated bytes of plan node n's rows that one worker
// would file in a join table if stream ds were the build side: all of them
// when every worker holds a copy, an even share otherwise.
func (q *queryExec) buildShare(n plan.Node, ds *dstream) float64 {
	est := q.estimator()
	bytes := est.Estimate(n) * est.RowWidth(n)
	if ds.dist.kind == distReplicated {
		return bytes
	}
	return bytes / float64(len(ds.ops))
}

// broadcast replicates a worker stream to every worker (the build side of
// a broadcast join), reusing the shuffle fabric machinery with its
// Broadcast flag so EOF accounting, hub forwarding and quiescence tracking
// are shared. The output is distReplicated.
func (q *queryExec) broadcast(ds *dstream) (*dstream, error) {
	ch := q.channel("b")
	spec := exec.ShuffleSpec{
		Channel:      ch,
		Nodes:        q.c.WorkerIDs(),
		Nmax:         q.c.Cfg.Nmax,
		Hierarchical: q.prof.HierarchicalShuffle,
		Broadcast:    true,
	}
	out := &dstream{sch: ds.sch, dist: distInfo{kind: distReplicated}}
	for wi, op := range ds.ops {
		w := q.c.Workers[wi]
		sp := q.startSpan("Broadcast", w.ID)
		sh, err := exec.NewShuffle(q.wctx(wi), exec.NewCountingEndpoint(w.Ep, sp), spec, op, nil, ds.sch)
		if err != nil {
			return nil, err
		}
		sh.OnLoops = q.live
		out.ops = append(out.ops, q.attach(sh, sp, op))
	}
	return out, nil
}

func (q *queryExec) makeJoin(ctx *exec.Ctx, l, r exec.Operator, x *plan.Join, par int) exec.Operator {
	if len(x.EquiLeft) == 0 {
		return exec.NewNestedLoopJoin(ctx, l, r, x.Residual, x.Type)
	}
	return exec.NewHashJoin(ctx, l, r, x.EquiLeft, x.EquiRight, x.Type, x.Residual, par)
}

func joinLabel(x *plan.Join) string {
	if len(x.EquiLeft) == 0 {
		return "NestedLoopJoin"
	}
	return "HashJoin"
}

// shuffle repartitions a stream on key expressions; the result is
// partitioned on the given column names (nil if keys are computed).
func (q *queryExec) shuffle(ds *dstream, keys []expr.Expr, names []string) (*dstream, error) {
	ch := q.channel("x")
	spec := exec.ShuffleSpec{
		Channel:      ch,
		Nodes:        q.c.WorkerIDs(),
		Nmax:         q.c.Cfg.Nmax,
		Hierarchical: q.prof.HierarchicalShuffle,
	}
	out := &dstream{sch: ds.sch, dist: distInfo{kind: distRandom}}
	if names != nil {
		out.dist = distInfo{kind: distPartitioned, cols: names}
	}
	for wi, op := range ds.ops {
		w := q.c.Workers[wi]
		wctx := q.wctx(wi)
		in := op
		if q.prof.BlockingShuffle {
			// MapReduce-style: materialize (and implicitly sort boundary)
			// before sending.
			in = q.wrap("Materialize", w.ID, exec.NewMaterialize(wctx, in), in)
		}
		// The shuffle's sends (including hub forwards) count against its
		// span, matching the fabric meter's per-link accounting.
		sp := q.startSpan("Shuffle", w.ID)
		sh, err := exec.NewShuffle(wctx, exec.NewCountingEndpoint(w.Ep, sp), spec, in, keys, ds.sch)
		if err != nil {
			return nil, err
		}
		sh.OnLoops = q.live
		recv := q.attach(sh, sp, in)
		if q.prof.MaterializeShuffle {
			recv = q.wrap("Materialize", w.ID, exec.NewMaterialize(wctx, recv), recv)
		}
		out.ops = append(out.ops, recv)
	}
	return out, nil
}

func (q *queryExec) distributeAgg(x *plan.Agg) (*dstream, exec.Operator, error) {
	ds, coordOp, err := q.distribute(x.Child)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]exec.AggSpec, len(x.Aggs))
	hasDistinct := false
	for i, a := range x.Aggs {
		specs[i] = exec.AggSpec{Kind: a.Kind, Arg: a.Arg, Distinct: a.Distinct, Name: a.Name}
		if a.Distinct {
			hasDistinct = true
		}
	}
	if coordOp != nil {
		agg := exec.NewHashAggregate(nil, coordOp, x.GroupBy, specs, exec.AggComplete)
		return nil, q.wrap("HashAgg", q.coord.ID, agg, coordOp), nil
	}
	groupNames, groupPlain := keyNames(x.GroupBy, x.Child.Schema())

	// Replicated input: aggregate one replica locally.
	if ds.dist.kind == distReplicated {
		one := q.pickOne(ds)
		agg := exec.NewHashAggregate(nil, one, x.GroupBy, specs, exec.AggComplete)
		return nil, q.wrap("HashAgg", q.coord.ID, agg, one), nil
	}

	// Co-located: input partitioned on a prefix/subset of the group key →
	// groups never span workers; aggregate locally (shuffle eliminated).
	if q.prof.EnforceLocality && groupPlain && len(x.GroupBy) > 0 &&
		coveredBy(ds.dist, groupNames) {
		return &dstream{
			ops: q.workerAggs(ds, x.GroupBy, specs, exec.AggComplete, "HashAgg"),
			sch: x.Schema(), dist: distInfo{kind: distPartitioned, cols: aggOutCols(x, groupNames)},
		}, nil, nil
	}

	// DISTINCT aggregates cannot pre-aggregate; shuffle by group key.
	if hasDistinct && len(x.GroupBy) > 0 {
		shuffled, err := q.shuffle(ds, x.GroupBy, groupNames)
		if err != nil {
			return nil, nil, err
		}
		return &dstream{
			ops: q.workerAggs(shuffled, x.GroupBy, specs, exec.AggComplete, "HashAgg"),
			sch: x.Schema(), dist: distInfo{kind: distPartitioned, cols: aggOutCols(x, groupNames)},
		}, nil, nil
	}
	if hasDistinct {
		// Scalar DISTINCT aggregate: gather raw rows.
		gathered := q.gatherPlain(ds)
		agg := exec.NewHashAggregate(nil, gathered, x.GroupBy, specs, exec.AggComplete)
		return nil, q.wrap("HashAgg", q.coord.ID, agg, gathered), nil
	}

	// Scalar aggregates (no GROUP BY) always pre-aggregate per worker and
	// finalize at the coordinator — merged over the tree topology when the
	// profile allows, direct otherwise.
	if len(x.GroupBy) == 0 {
		if q.prof.PreAggTree {
			return nil, q.treeAggregate(ds, x, specs), nil
		}
		partials := q.workerAggs(ds, nil, specs, exec.AggPartial, "HashAgg partial")
		gathered := q.gatherPlain(&dstream{ops: partials, sch: partials[0].Schema()})
		final := exec.NewHashAggregate(nil, gathered, nil, specs, exec.AggFinal)
		return nil, q.wrap("HashAgg final", q.coord.ID, final, gathered), nil
	}

	// Cost-based choice (phase 3): pre-aggregation + tree merge when the
	// estimated number of groups is small (Section IV/V); shuffle-based
	// grouping when groups are many (the Q18 case: 1.5B groups).
	groups := q.estimator().Estimate(x)
	preAggLimit := 64.0 * 1024
	if q.prof.PreAggTree && groups <= preAggLimit {
		return nil, q.treeAggregate(ds, x, specs), nil
	}
	// Shuffle group-by.
	shuffled, err := q.shuffle(ds, x.GroupBy, groupNames)
	if err != nil {
		return nil, nil, err
	}
	out := &dstream{
		ops: q.workerAggs(shuffled, x.GroupBy, specs, exec.AggComplete, "HashAgg"),
		sch: x.Schema(), dist: distInfo{kind: distRandom},
	}
	if groupPlain {
		out.dist = distInfo{kind: distPartitioned, cols: aggOutCols(x, groupNames)}
	}
	return out, nil, nil
}

// workerAggs builds the worker-side aggregate over every operator of ds:
// the one place such an aggregate is constructed, asks for the profile's
// degree and gets its span. Over a typed stream the build reads the scan's
// batches through the aggregate's typed front end; over anything else (a
// join, an exchange, a filter) its row front end.
func (q *queryExec) workerAggs(ds *dstream, groupBy []expr.Expr, specs []exec.AggSpec, mode exec.AggMode, label string) []exec.Operator {
	out := make([]exec.Operator, len(ds.ops))
	for wi, op := range ds.ops {
		var agg *exec.HashAggregate
		if ds.typed {
			agg = exec.NewTypedHashAggregate(q.wctx(wi), op.(exec.VecOperator), groupBy, specs, mode)
		} else {
			agg = exec.NewHashAggregate(q.wctx(wi), op, groupBy, specs, mode)
		}
		agg.Parallel = q.prof.Parallelism
		out[wi] = q.wrap(label, q.c.Workers[wi].ID, agg, op)
	}
	return out
}

// aggOutCols maps group input names to the aggregate's output column names.
func aggOutCols(x *plan.Agg, groupNames []string) []string {
	out := make([]string, len(groupNames))
	for i := range groupNames {
		out[i] = strings.ToLower(x.Schema().Cols[i].Name)
	}
	return out
}

// coveredBy reports whether dist's columns all appear among the group
// columns (then each group lives on exactly one worker).
func coveredBy(d distInfo, groupNames []string) bool {
	if d.kind != distPartitioned || len(d.cols) == 0 {
		return false
	}
	for _, dc := range d.cols {
		found := false
		for _, g := range groupNames {
			if strings.EqualFold(dc, g) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// treeAggregate splits the aggregation into worker partials merged up the
// tree topology to the coordinator, which finalizes.
func (q *queryExec) treeAggregate(ds *dstream, x *plan.Agg, specs []exec.AggSpec) exec.Operator {
	partials := q.workerAggs(ds, x.GroupBy, specs, exec.AggPartial, "HashAgg partial")
	// Group columns are positional in the partial output.
	groupRefs := exec.ColRefs(allIdx(len(x.GroupBy))...)
	combine := func(ins []exec.Operator) exec.Operator {
		return exec.NewHashAggregate(nil, exec.NewUnion(ins...), groupRefs, specs, exec.AggMerge)
	}
	tree := q.gatherTree(&dstream{ops: partials, sch: partials[0].Schema()}, combine)
	final := exec.NewHashAggregate(nil, tree, groupRefs, specs, exec.AggFinal)
	return q.wrap("HashAgg final", q.coord.ID, final, tree)
}

func (q *queryExec) distributeLimit(x *plan.Limit) (*dstream, exec.Operator, error) {
	// Sort directly below: the paper's heap-based distributed top-k.
	if s, ok := x.Child.(*plan.Sort); ok && x.Offset == 0 {
		ds, coordOp, err := q.distributeOneCopy(s.Child)
		if err != nil {
			return nil, nil, err
		}
		keys := planSortKeys(s.Keys)
		if coordOp != nil {
			return nil, q.wrap("TopK", q.coord.ID, exec.NewTopK(nil, coordOp, keys, int(x.N)), coordOp), nil
		}
		local := make([]exec.Operator, len(ds.ops))
		for wi, op := range ds.ops {
			w := q.c.Workers[wi]
			local[wi] = q.wrap("TopK", w.ID, exec.NewTopK(q.wctx(wi), op, keys, int(x.N)), op)
		}
		merged := q.gatherOrdered(&dstream{ops: local, sch: ds.sch}, keys)
		return nil, q.wrap("Limit", q.coord.ID, exec.NewLimit(merged, x.N, 0), merged), nil
	}
	ds, coordOp, err := q.distributeOneCopy(x.Child)
	if err != nil {
		return nil, nil, err
	}
	if coordOp != nil {
		return nil, q.wrap("Limit", q.coord.ID, exec.NewLimit(coordOp, x.N, x.Offset), coordOp), nil
	}
	// Any N+offset rows per worker suffice; trim on the coordinator.
	local := make([]exec.Operator, len(ds.ops))
	for wi, op := range ds.ops {
		local[wi] = q.wrap("Limit", q.c.Workers[wi].ID, exec.NewLimit(op, x.N+x.Offset, 0), op)
	}
	gathered := q.gatherPlain(&dstream{ops: local, sch: ds.sch})
	return nil, q.wrap("Limit", q.coord.ID, exec.NewLimit(gathered, x.N, x.Offset), gathered), nil
}

// gather is the scaffold every gather shape shares: a coordinator-side span
// named gname, under it one span named sname per contributing worker (which
// adopts that worker's subtree and counts the bytes the worker puts on the
// wire through a CountingEndpoint), and a workerDriver that builds the
// coordinator's receive side with coordSide and runs send once per worker.
func (q *queryExec) gather(gname, sname string, ops []exec.Operator, coordSide func() exec.Operator,
	send func(wi int, ectx *exec.Ctx, ep network.Endpoint, op exec.Operator) error) exec.Operator {
	gsp := q.startSpan(gname, q.coord.ID)
	eps := make([]network.Endpoint, len(ops))
	ssps := make([]*obs.Span, len(ops))
	for wi := range ops {
		w := q.c.Workers[wi]
		ssp := q.startSpan(sname, w.ID)
		ssp.SetParent(gsp)
		q.spanOf(ops[wi]).SetParent(ssp)
		eps[wi] = exec.NewCountingEndpoint(w.Ep, ssp)
		ssps[wi] = ssp
	}
	d := &workerDriver{
		live:      q.live,
		coordSide: coordSide,
		launch: func() []func() error {
			fns := make([]func() error, len(ops))
			for wi := range ops {
				sp, ectx := ssps[wi], q.wctx(wi)
				fns[wi] = func() error {
					defer sp.Finish()
					return send(wi, ectx, eps[wi], ops[wi])
				}
			}
			return fns
		},
	}
	return q.attach(d, gsp)
}

// pickOne selects worker 0's replica of a replicated stream and drops the
// rest (the paper assigns replicated-table scans to one worker).
func (q *queryExec) pickOne(ds *dstream) exec.Operator {
	return q.gatherRecv(q.channel("one"), ds, ds.ops[:1])
}

// gatherPlain brings a worker stream to the coordinator, unordered. A
// replicated stream is gathered from a single worker — pulling every
// replica would duplicate rows (visible as W× result inflation on cross
// joins against replicated tables).
func (q *queryExec) gatherPlain(ds *dstream) exec.Operator {
	if ds.dist.kind == distReplicated {
		return q.pickOne(ds)
	}
	return q.gatherRecv(q.channel("g"), ds, ds.ops)
}

// gatherRecv gathers ops — all of ds's operators or some — over one channel
// into a single coordinator Recv. A typed stream goes out columnar, straight
// from the scan's batches; the wire format is the same either way.
func (q *queryExec) gatherRecv(ch string, ds *dstream, ops []exec.Operator) exec.Operator {
	coordEp, coordID := q.coord.Ep, q.coord.ID
	return q.gather("Gather", "Send", ops,
		func() exec.Operator { return exec.NewRecv(coordEp, ch, len(ops), ds.sch) },
		func(_ int, ectx *exec.Ctx, ep network.Endpoint, op exec.Operator) error {
			if ds.typed {
				return exec.SendAllVec(ectx, ep, coordID, ch, op.(exec.VecOperator))
			}
			return exec.SendAll(ectx, ep, coordID, ch, op)
		})
}

// gatherOrdered preserves per-worker order with an ordered merge at the
// coordinator (distributed merge sort's final phase).
func (q *queryExec) gatherOrdered(ds *dstream, keys []exec.SortKey) exec.Operator {
	base := q.channel("m")
	coordEp, coordID := q.coord.Ep, q.coord.ID
	chOf := func(wi int) string { return fmt.Sprintf("%s.%d", base, wi) }
	return q.gather("GatherMerge", "Send", ds.ops,
		func() exec.Operator {
			ins := make([]exec.Operator, len(ds.ops))
			for wi := range ds.ops {
				ins[wi] = exec.NewRecv(coordEp, chOf(wi), 1, ds.sch)
			}
			return exec.NewMergeOperators(ins, keys)
		},
		func(wi int, ectx *exec.Ctx, ep network.Endpoint, op exec.Operator) error {
			return exec.SendAll(ectx, ep, coordID, chOf(wi), op)
		})
}

// gatherTree runs a tree-topology reduction with the coordinator as root
// (hierarchical aggregation; Section IV).
func (q *queryExec) gatherTree(ds *dstream, combine func([]exec.Operator) exec.Operator) exec.Operator {
	spec := exec.TreeReduceSpec{
		Channel: q.channel("t"),
		Nodes:   append([]int{q.coord.ID}, q.c.WorkerIDs()...),
		Nmax:    q.c.Cfg.Nmax,
	}
	coordEp := q.coord.Ep
	return q.gather("TreeReduce", "TreeSend", ds.ops,
		func() exec.Operator {
			op, err := exec.RunTreeReduce(nil, coordEp, spec, exec.NewSource(ds.sch, nil), combine)
			if err != nil || op == nil {
				return exec.NewSource(ds.sch, nil)
			}
			return op
		},
		func(_ int, ectx *exec.Ctx, ep network.Endpoint, op exec.Operator) error {
			_, err := exec.RunTreeReduce(ectx, ep, spec, op, combine)
			return err
		})
}

// workerDriver is a coordinator-side operator that launches the worker
// goroutines of a gather when opened and surfaces their errors. The
// coordinator side of a gather is a Recv (or a merge of Recvs), whose wire
// batches it serves through as slabs.
type workerDriver struct {
	coordSide func() exec.Operator
	launch    func() []func() error
	// live, when set, counts this gather's in-flight machinery (worker send
	// goroutines plus the coordinator receive side) toward the query's
	// quiescence group so mailbox release waits for it.
	live *sync.WaitGroup

	op      exec.Operator
	errs    chan error
	pending int
	mu      sync.Mutex
	firstE  error
	tracked bool
}

// Schema implements exec.Operator.
func (d *workerDriver) Schema() types.Schema {
	if d.op == nil {
		d.op = d.coordSide()
	}
	return d.op.Schema()
}

// Open implements exec.Operator.
func (d *workerDriver) Open() error {
	d.op = d.coordSide()
	if err := d.op.Open(); err != nil {
		return err
	}
	fns := d.launch()
	// The goroutines close over a local so an abandoning Close (which nils
	// d.errs) never races their send.
	errs := make(chan error, len(fns))
	d.errs = errs
	d.pending = len(fns)
	for _, fn := range fns {
		// errs is buffered to len(fns) above, so the single send never blocks
		// (sendstop's bounded-buffer proof).
		go func(fn func() error) { errs <- fn() }(fn)
	}
	if d.live != nil && !d.tracked {
		d.live.Add(1)
		d.tracked = true
	}
	return nil
}

// NextBatch implements exec.Operator, delegating to the coordinator-side
// operator and collecting the worker outcomes once it is exhausted.
func (d *workerDriver) NextBatch() ([]types.Row, bool, error) {
	b, ok, err := d.op.NextBatch()
	if err != nil {
		return nil, false, err
	}
	if ok {
		return b, true, nil
	}
	return nil, false, d.finish()
}

// finish collects worker outcomes once the coordinator stream is
// exhausted.
func (d *workerDriver) finish() error {
	for d.pending > 0 {
		if e := <-d.errs; e != nil && d.firstE == nil {
			d.firstE = e
		}
		d.pending--
	}
	return d.firstE
}

// Close implements exec.Operator. A driver closed with workers still
// pending was abandoned mid-stream (KILL, drain, or an upstream limit): its
// worker send goroutines may be blocked on full mailboxes that the
// coordinator will never pull again. Closing the receive side there would
// leak those goroutines forever, so Close hands the stream to a background
// drainer that pulls it to exhaustion — killed senders finish their EOF
// protocol quickly — then collects the worker errors and releases the
// query's quiescence token.
func (d *workerDriver) Close() error {
	done := func() {
		if d.tracked {
			d.tracked = false
			if d.live != nil {
				d.live.Done()
			}
		}
	}
	if d.op == nil {
		done()
		return nil
	}
	if d.pending > 0 {
		op, errs, pending := d.op, d.errs, d.pending
		live, tracked := d.live, d.tracked
		d.op, d.errs, d.pending, d.tracked = nil, nil, 0, false
		go func() {
			for {
				if _, ok, err := op.NextBatch(); err != nil || !ok {
					break
				}
			}
			for i := 0; i < pending; i++ {
				<-errs
			}
			_ = op.Close()
			if tracked && live != nil {
				live.Done()
			}
		}()
		return nil
	}
	err := d.op.Close()
	d.op = nil
	done()
	return err
}

// renameSchema overrides an operator's reported schema.
func renameSchema(op exec.Operator, sch types.Schema) exec.Operator {
	return &schemaOverride{Operator: op, sch: sch}
}

type schemaOverride struct {
	exec.Operator
	sch types.Schema
}

func (s *schemaOverride) Schema() types.Schema { return s.sch }

// mapColsByPosition renames dist columns positionally between two schemas.
func mapColsByPosition(cols []string, from, to types.Schema) []string {
	out := make([]string, 0, len(cols))
	for _, c := range cols {
		idx := exactCol(from, c)
		if idx < 0 || idx >= to.Len() {
			return nil
		}
		out = append(out, strings.ToLower(to.Cols[idx].Name))
	}
	return out
}

// projectDist tracks partitioning columns through a projection: each dist
// column must appear as a plain passthrough column.
func projectDist(d distInfo, p *plan.Project) distInfo {
	if d.kind != distPartitioned {
		return d
	}
	childSch := p.Child.Schema()
	out := distInfo{kind: distPartitioned}
	for _, dc := range d.cols {
		idx := exactCol(childSch, dc)
		mapped := ""
		for i, e := range p.Exprs {
			if c, ok := e.(*expr.Col); ok && idx >= 0 && c.Index == idx {
				mapped = strings.ToLower(p.Schema().Cols[i].Name)
				break
			}
		}
		if mapped == "" {
			return distInfo{kind: distRandom}
		}
		out.cols = append(out.cols, mapped)
	}
	return out
}
