package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

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

// dstream is a distributed stream: the operators that produce one plan
// node's rows and where they run. On the workers, ops[i] runs on worker i
// and dist says how the rows are spread over them; on the coordinator
// (coord set), ops is the one operator there and dist is the zero
// (opt.DistRandom) one. typed is the representation the rows travel in:
// set, every op is an exec.VecOperator that ships freshly built typed
// batches (a columnar scan, marked by distributeScan); clear, row slabs. An
// operator placed over the stream is lowered for the representation this
// says, not for what a type assertion on ops would find.
type dstream struct {
	ops   []exec.Operator
	sch   types.Schema
	dist  opt.DistInfo
	typed bool
	coord bool
}

// onCoord is the stream of one operator placed on the coordinator.
func onCoord(op exec.Operator, sch types.Schema) *dstream {
	return &dstream{ops: []exec.Operator{op}, sch: sch, coord: true}
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

	// est is the query's cardinality estimator, made on first use.
	est *opt.Estimator
}

// estimator returns the query's cardinality estimator.
func (q *queryExec) estimator() *opt.Estimator {
	if q.est == nil {
		q.est = &opt.Estimator{Cat: q.c.Catalog()}
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

// CompileDistributed converts a logical plan into a row cursor on the first
// coordinator whose Open launches the distributed dataflow (Section I: query
// results are always routed to the client through the coordinator that
// planned the query). The cursor's Close frees the query's fabric mailboxes.
func (c *Cluster) CompileDistributed(root plan.Node) (*exec.Cursor, error) {
	q := c.newQueryExec(c.Coords[0], nil)
	op, err := q.compile(root)
	if err != nil {
		q.releaseWhenQuiet()
		return nil, err
	}
	return exec.NewCursor(releasing{op, q}), nil
}

// releasing is a query's root operator whose Close also frees the query's
// mailboxes.
type releasing struct {
	exec.Operator
	q *queryExec
}

func (r releasing) Close() error {
	defer r.q.releaseWhenQuiet()
	return r.Operator.Close()
}

// compile materializes the plan's scalar subqueries, distributes it, and
// returns the coordinator-side root operator (gathering a worker-resident
// result to the coordinator when distribution left it there).
func (q *queryExec) compile(root plan.Node) (exec.Operator, error) {
	if err := q.materializeScalars(root); err != nil {
		return nil, err
	}
	ds, err := q.distribute(root)
	if err != nil {
		return nil, err
	}
	return q.toCoord(ds).ops[0], nil
}

// materializeScalars executes uncorrelated scalar subqueries first, with
// full distribution, and freezes their values into the plan.
func (q *queryExec) materializeScalars(root plan.Node) error {
	for _, s := range plan.Scalars(root) {
		rows, err := q.runSubquery(s.Plan)
		if err != nil {
			return err
		}
		if err := s.Resolve(rows); err != nil {
			return err
		}
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

// distribute places plan node n: it returns the stream of operators that
// produce n's rows, on the workers or on the coordinator. On traced queries
// it additionally stamps every placed operator's span with the optimizer's
// row estimate (the `est=` column of EXPLAIN ANALYZE) — an even share of the
// total per worker, or the whole where one operator sees every row (the
// coordinator's, or a replica); untraced queries go straight to
// distributeNode.
func (q *queryExec) distribute(n plan.Node) (*dstream, error) {
	ds, err := q.distributeNode(n)
	if err != nil || q.tr == nil {
		return ds, err
	}
	per := q.estimator().Estimate(n)
	if ds.dist.Kind != opt.DistReplicated {
		per /= float64(len(ds.ops))
	}
	for _, op := range ds.ops {
		if sp := q.spanOf(op); sp != nil {
			sp.SetEst(int64(per + 0.5))
		}
	}
	return ds, nil
}

// at returns the node ds's i-th operator runs on and the context an
// operator placed over it gets: the coordinator, which gives none, or
// worker i.
func (q *queryExec) at(ds *dstream, i int) (int, *exec.Ctx) {
	if ds.coord {
		return q.coord.ID, nil
	}
	return q.c.Workers[i].ID, q.wctx(i)
}

// each places an operator that build makes over every operator of ds,
// where that one runs. The result is a row stream with ds's schema,
// distribution and placement; a caller whose operator changes the first two
// sets them after.
func (q *queryExec) each(ds *dstream, label string, build func(in exec.Operator, ctx *exec.Ctx) exec.Operator) *dstream {
	out := &dstream{sch: ds.sch, dist: ds.dist, coord: ds.coord}
	for i, in := range ds.ops {
		node, ctx := q.at(ds, i)
		out.ops = append(out.ops, q.wrap(label, node, build(in, ctx), in))
	}
	return out
}

// distributeNode dispatches one plan node to its distribution strategy.
func (q *queryExec) distributeNode(n plan.Node) (*dstream, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return q.distributeScan(x)
	case *plan.Join:
		return q.distributeJoin(x)
	case *plan.Agg:
		return q.distributeAgg(x)
	case *plan.Limit:
		return q.distributeLimit(x)
	}
	// The rest place one operator over their one input, where it is.
	children := n.Children()
	if len(children) != 1 {
		return nil, fmt.Errorf("cluster: cannot distribute %T", n)
	}
	ds, err := q.distribute(children[0])
	if err != nil {
		return nil, err
	}
	switch x := n.(type) {
	case *plan.Rename:
		// Rename columns positionally; partition columns follow.
		out := &dstream{sch: x.Schema(), dist: ds.dist, coord: ds.coord}
		out.dist.Cols = mapColsByPosition(ds.dist.Cols, ds.sch, x.Schema())
		for _, op := range ds.ops {
			r := renameSchema(op, x.Schema())
			q.adopt(r, op)
			out.ops = append(out.ops, r)
		}
		return out, nil
	case *plan.Filter:
		// A fold reads every row of its input, which only the coordinator
		// sees whole.
		if x.Folds() {
			ds = q.toCoord(ds)
		}
		return q.each(ds, "Filter", func(in exec.Operator, ctx *exec.Ctx) exec.Operator {
			return exec.NewFilter(ctx, in, x.Pred)
		}), nil
	case *plan.Project:
		if isIdentity(x, ds.sch) {
			// Not placed: the input passes through, typed or not.
			return ds, nil
		}
		out := q.each(ds, "Project", func(in exec.Operator, ctx *exec.Ctx) exec.Operator {
			return exec.NewProject(ctx, in, x.Exprs, x.Names)
		})
		out.sch, out.dist = x.Schema(), projectDist(ds.dist, x)
		return out, nil
	case *plan.Sort:
		// Distributed merge sort: local sorts (parallel run generation per
		// the profile), ordered merge upward. One replica is sorted once, on
		// the coordinator.
		if ds.dist.Kind == opt.DistReplicated {
			ds = q.toCoord(ds)
		}
		keys := planSortKeys(x.Keys)
		sorted := q.each(ds, "Sort", func(in exec.Operator, ctx *exec.Ctx) exec.Operator {
			srt := exec.NewSort(ctx, in, keys)
			if !ds.coord {
				srt.Parallel = q.prof.Parallelism
			}
			return srt
		})
		if sorted.coord {
			return sorted, nil
		}
		return q.gatherOrdered(sorted, keys), nil
	default:
		return nil, fmt.Errorf("cluster: cannot distribute %T", n)
	}
}

// isIdentity reports whether projection p outputs rows of schema in
// unchanged: column i as column i, under the same name and kind.
func isIdentity(p *plan.Project, in types.Schema) bool {
	out := p.Schema()
	if len(p.Exprs) != in.Len() {
		return false
	}
	for i, e := range p.Exprs {
		c, ok := e.(*expr.Col)
		if !ok || c.Index != i || out.Cols[i].Name != in.Cols[i].Name || out.Cols[i].Kind != in.Cols[i].Kind {
			return false
		}
	}
	return true
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
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
func (q *queryExec) distributeScan(x *plan.Scan) (*dstream, error) {
	if !x.Table.Columnar {
		if m := q.findIndexPath(x); m != nil {
			return q.indexScan(x, m)
		}
	}
	cfg := exec.ScanConfig{
		Pred:         x.Pred,
		Cols:         x.Cols,
		UseSkipCache: q.prof.UseSkipCache,
		UseMinMax:    q.prof.UseMinMax,
	}
	ds := &dstream{sch: x.Schema(), typed: x.Table.Columnar}
	name := x.Table.Name
	for wi, w := range q.c.Workers {
		// The scan span is created before the operator so the scan thread
		// can deposit its page/row stats directly.
		sp := q.startSpan("Scan "+name, w.ID)
		wctx := q.wctx(wi)
		wcfg := cfg
		wcfg.Trace = sp
		// Morsel parallelism: the scan asks for the profile's degree and the
		// worker's shared budget decides what it actually gets.
		wcfg.Parallel = q.prof.Parallelism
		wcfg.Ctx = wctx
		var op exec.Operator
		if x.Table.Columnar {
			fr := w.colFrags[name]
			if fr == nil {
				return nil, fmt.Errorf("cluster: worker %d has no fragment of %s", w.ID, name)
			}
			op = exec.NewVecColumnarScan(fr, x.Alias, wcfg)
		} else {
			fr := w.frags[name]
			if fr == nil {
				return nil, fmt.Errorf("cluster: worker %d has no fragment of %s", w.ID, name)
			}
			op = exec.NewRowScan(fr, x.Alias, wcfg)
		}
		ds.ops = append(ds.ops, q.attach(op, sp))
	}
	ds.dist = q.scanDist(x)
	return ds, nil
}

// scanDist is how a scan's output is spread over the workers: opt.LeafDist,
// except that a profile that does not enforce locality knows no scan as
// partitioned.
func (q *queryExec) scanDist(x *plan.Scan) opt.DistInfo {
	d := opt.LeafDist(x)
	if d.Kind == opt.DistPartitioned && !q.prof.EnforceLocality {
		return opt.DistInfo{}
	}
	return d
}

// keyNames returns the names sch gives the columns that plain-column key
// expressions (bound to sch) refer to; ok=false when any key is a computed
// expression. These are the names distributions are recorded and compared
// under.
func keyNames(keys []expr.Expr, sch types.Schema) ([]string, bool) {
	out := make([]string, len(keys))
	for i, k := range keys {
		c, isCol := k.(*expr.Col)
		if !isCol || c.Index < 0 || c.Index >= sch.Len() {
			return nil, false
		}
		out[i] = sch.Cols[c.Index].Name
	}
	return out, true
}

func (q *queryExec) distributeJoin(x *plan.Join) (*dstream, error) {
	left, err := q.distribute(x.Left)
	if err != nil {
		return nil, err
	}
	right, err := q.distribute(x.Right)
	if err != nil {
		return nil, err
	}
	// The join runs once, on the coordinator, over all of both inputs when
	// either input is already there, when there are no equality keys to
	// partition on and neither input is replicated, or when it is a semi/anti
	// join whose left input is replicated and whose right is not (every
	// worker would emit its replica's matches against its own share of the
	// right).
	leftRep, rightRep := left.dist.Kind == opt.DistReplicated, right.dist.Kind == opt.DistReplicated
	if left.coord || right.coord || len(x.EquiLeft) == 0 && !leftRep && !rightRep ||
		x.Type != exec.JoinInner && leftRep && !rightRep {
		return onCoord(q.makeJoin(q.toCoord(left).ops[0], q.toCoord(right).ops[0], x), x.Schema()), nil
	}

	leftNames, leftPlain := keyNames(x.EquiLeft, x.Left.Schema())
	rightNames, _ := keyNames(x.EquiRight, x.Right.Schema())

	// The one place worker joins are built, once the distribution is fixed.
	// Every left row meets every right row that could match it: the inputs
	// are co-located, or one of them is whole on every worker. A join with no
	// equality keys is a nested loop over the worker's share of one input
	// and the replica of the other. A hash join builds on whichever input
	// leaves the smaller share on a worker; a semi or anti join built on its
	// left marks the build rows the probe matches. Over a typed probe stream
	// the probe reads the scan's batches through the join's typed front end;
	// the build side is read as rows whatever it is (the table stores boxed
	// rows), and what a join produces is rows.
	par := q.prof.Parallelism
	join := func(l, r *dstream, d opt.DistInfo) *dstream {
		out := &dstream{sch: x.Schema(), dist: d}
		if len(x.EquiLeft) == 0 {
			for wi, w := range q.c.Workers {
				nl := exec.NewNestedLoopJoin(q.wctx(wi), l.ops[wi], r.ops[wi], x.Residual, x.Type)
				out.ops = append(out.ops, q.wrap("NestedLoopJoin", w.ID, nl, l.ops[wi], r.ops[wi]))
			}
			return out
		}
		probe, build, probeKeys, buildKeys := l, r, x.EquiLeft, x.EquiRight
		buildLeft := q.buildShare(x.Left, l) < q.buildShare(x.Right, r)
		if buildLeft {
			probe, build, probeKeys, buildKeys = r, l, x.EquiRight, x.EquiLeft
		}
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
			out.ops = append(out.ops, q.wrap("HashJoin", w.ID, h, l.ops[wi], r.ops[wi]))
		}
		return out
	}

	switch {
	case rightRep:
		// Right replicated: co-located join everywhere; output keeps the
		// left's distribution, replicated when the left is too.
		return join(left, right, left.dist), nil
	case leftRep:
		// Left replicated (an inner join, or it would be on the
		// coordinator): each worker joins its replica with its partition
		// of the right; right rows partition, so no duplicates arise.
		return join(left, right, right.dist), nil
	}

	// Both partitioned/random: exploit or create co-location. One decision,
	// by the cost model DP join ordering used, re-costed at this exchange
	// boundary on the runtime distributions: shuffle each input not placed
	// on its keys, or replicate a small input so that the other stays where
	// it is.
	side := func(n plan.Node, ds *dstream, names []string) opt.JoinSide {
		s := opt.JoinSide{Dist: ds.dist, Keys: names, Rows: q.estimator().Estimate(n), Width: q.estimator().RowWidth(n)}
		if !q.prof.EnforceLocality {
			s.Dist = opt.DistInfo{}
		}
		return s
	}
	net := opt.ChooseJoinNet(x.Type, side(x.Left, left, leftNames), side(x.Right, right, rightNames), len(q.c.Workers))
	switch {
	case net.Broadcast:
		b, err := q.broadcast(right)
		if err != nil {
			return nil, err
		}
		return join(left, b, left.dist), nil
	case net.BroadcastLeft:
		b, err := q.broadcast(left)
		if err != nil {
			return nil, err
		}
		return join(b, right, right.dist), nil
	}
	if net.ShuffleLeft {
		left, err = q.shuffle(left, x.EquiLeft, leftNames)
		if err != nil {
			return nil, err
		}
	}
	if net.ShuffleRight {
		right, err = q.shuffle(right, x.EquiRight, rightNames)
		if err != nil {
			return nil, err
		}
	}
	outDist := opt.DistInfo{}
	if leftPlain {
		outDist = opt.DistInfo{Kind: opt.DistPartitioned, Cols: leftNames}
	}
	return join(left, right, outDist), nil
}

// buildShare is the estimated bytes of plan node n's rows that one worker
// would file in a join table if stream ds were the build side: all of them
// when every worker holds a copy, an even share otherwise.
func (q *queryExec) buildShare(n plan.Node, ds *dstream) float64 {
	est := q.estimator()
	bytes := est.Estimate(n) * est.RowWidth(n)
	if ds.dist.Kind == opt.DistReplicated {
		return bytes
	}
	return bytes / float64(len(ds.ops))
}

// broadcast replicates a worker stream to every worker (the build side of
// a broadcast join), reusing the shuffle fabric machinery with its
// Broadcast flag so EOF accounting, hub forwarding and quiescence tracking
// are shared. The output is opt.DistReplicated.
func (q *queryExec) broadcast(ds *dstream) (*dstream, error) {
	ch := q.channel("b")
	spec := exec.ShuffleSpec{
		Channel:      ch,
		Nodes:        q.c.WorkerIDs(),
		Nmax:         q.c.Cfg.Nmax,
		Hierarchical: q.prof.HierarchicalShuffle,
		Broadcast:    true,
	}
	out := &dstream{sch: ds.sch, dist: opt.DistInfo{Kind: opt.DistReplicated}}
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

// makeJoin builds the coordinator's join of l and r: a hash join on the
// equality keys, or a nested-loop join over the residual where there are
// none.
func (q *queryExec) makeJoin(l, r exec.Operator, x *plan.Join) exec.Operator {
	if len(x.EquiLeft) == 0 {
		return q.wrap("NestedLoopJoin", q.coord.ID, exec.NewNestedLoopJoin(nil, l, r, x.Residual, x.Type), l, r)
	}
	h := exec.NewHashJoin(nil, l, r, x.EquiLeft, x.EquiRight, x.Type, x.Residual, q.prof.Parallelism)
	return q.wrap("HashJoin", q.coord.ID, h, l, r)
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
	out := &dstream{sch: ds.sch}
	if names != nil {
		out.dist = opt.DistInfo{Kind: opt.DistPartitioned, Cols: names}
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

func (q *queryExec) distributeAgg(x *plan.Agg) (*dstream, error) {
	ds, err := q.distribute(x.Child)
	if err != nil {
		return nil, err
	}
	specs := plan.AggSpecs(x.Aggs)
	hasDistinct := slices.ContainsFunc(x.Aggs, func(a plan.AggItem) bool { return a.Distinct })
	// complete aggregates in's rows in one phase, where they are; its
	// output is spread as d says.
	complete := func(in *dstream, d opt.DistInfo) *dstream {
		out := q.aggs(in, "HashAgg", x.GroupBy, specs, exec.AggComplete)
		out.sch, out.dist = x.Schema(), d
		return out
	}
	// On the coordinator: an input already there, one replica of a
	// replicated input, and the raw rows of a scalar DISTINCT aggregate,
	// which cannot pre-aggregate.
	if ds.coord || ds.dist.Kind == opt.DistReplicated || hasDistinct && len(x.GroupBy) == 0 {
		return complete(q.toCoord(ds), opt.DistInfo{}), nil
	}
	groupNames, groupPlain := keyNames(x.GroupBy, x.Child.Schema())
	// grouped is the output's distribution when every group is aggregated
	// whole on one worker: partitioned on the group columns, if they are
	// plain columns.
	grouped := opt.DistInfo{}
	if groupPlain {
		grouped = opt.DistInfo{Kind: opt.DistPartitioned, Cols: aggOutCols(x, groupNames)}
	}

	// Co-located: input partitioned on a prefix/subset of the group key →
	// groups never span workers; aggregate locally (shuffle eliminated).
	if q.prof.EnforceLocality && groupPlain && len(x.GroupBy) > 0 &&
		coveredBy(ds.dist, groupNames) {
		return complete(ds, grouped), nil
	}

	// Scalar aggregates (no GROUP BY) always pre-aggregate per worker and
	// finalize at the coordinator. Grouped ones do too when the estimated
	// number of groups is small (Section IV/V) — the cost-based choice of
	// phase 3 — and group after a shuffle on the group key when groups are
	// many (the Q18 case: 1.5B groups) or an aggregate is DISTINCT.
	preAggLimit := 64.0 * 1024
	if len(x.GroupBy) == 0 || !hasDistinct && q.prof.PreAggTree && q.estimator().Estimate(x) <= preAggLimit {
		return q.preAggregate(ds, x, specs), nil
	}
	shuffled, err := q.shuffle(ds, x.GroupBy, groupNames)
	if err != nil {
		return nil, err
	}
	return complete(shuffled, grouped), nil
}

// aggs places a HashAggregate over every operator of ds, where that one
// runs: the one place a distributed aggregate is constructed. A worker's
// asks for the profile's degree; the coordinator's runs serially. Over a
// typed stream the build reads the scan's batches through the aggregate's
// typed front end; over anything else (a join, an exchange, a filter) its
// row front end. The result has the aggregate's own schema and the zero
// distribution; a caller that knows better sets them after.
func (q *queryExec) aggs(ds *dstream, label string, groupBy []expr.Expr, specs []exec.AggSpec, mode exec.AggMode) *dstream {
	out := q.each(ds, label, func(in exec.Operator, ctx *exec.Ctx) exec.Operator {
		var agg *exec.HashAggregate
		if ds.typed {
			agg = exec.NewTypedHashAggregate(ctx, in.(exec.VecOperator), groupBy, specs, mode)
		} else {
			agg = exec.NewHashAggregate(ctx, in, groupBy, specs, mode)
		}
		if !ds.coord {
			agg.Parallel = q.prof.Parallelism
		}
		return agg
	})
	out.sch, out.dist = out.ops[0].Schema(), opt.DistInfo{}
	return out
}

// aggOutCols maps group input names to the aggregate's output column names.
func aggOutCols(x *plan.Agg, groupNames []string) []string {
	out := make([]string, len(groupNames))
	for i := range groupNames {
		out[i] = x.Schema().Cols[i].Name
	}
	return out
}

// coveredBy reports whether dist's columns all appear among the group
// columns (then each group lives on exactly one worker).
func coveredBy(d opt.DistInfo, groupNames []string) bool {
	if d.Kind != opt.DistPartitioned || len(d.Cols) == 0 {
		return false
	}
	for _, dc := range d.Cols {
		found := false
		for _, g := range groupNames {
			if dc == g {
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

// preAggregate splits the aggregation into worker partials that the
// coordinator merges and finalizes: up the tree topology when the profile
// allows (hierarchical aggregation; Section IV), gathered directly
// otherwise.
func (q *queryExec) preAggregate(ds *dstream, x *plan.Agg, specs []exec.AggSpec) *dstream {
	partials := q.aggs(ds, "HashAgg partial", x.GroupBy, specs, exec.AggPartial)
	// Group columns are positional in the partial output.
	groupRefs := exec.ColRefs(allIdx(len(x.GroupBy))...)
	var merged *dstream
	if q.prof.PreAggTree {
		merged = q.gatherTree(partials, func(ins []exec.Operator) exec.Operator {
			return exec.NewHashAggregate(nil, exec.NewUnion(ins...), groupRefs, specs, exec.AggMerge)
		})
	} else {
		merged = q.toCoord(partials)
	}
	final := q.aggs(merged, "HashAgg final", groupRefs, specs, exec.AggFinal)
	final.sch = x.Schema()
	return final
}

func (q *queryExec) distributeLimit(x *plan.Limit) (*dstream, error) {
	// Sort directly below: the paper's heap-based distributed top-k.
	s, topK := x.Child.(*plan.Sort)
	topK = topK && x.Offset == 0
	child := x.Child
	if topK {
		child = s.Child
	}
	ds, err := q.distribute(child)
	if err != nil {
		return nil, err
	}
	// Merging the workers' replicas would return each row once per worker.
	if ds.dist.Kind == opt.DistReplicated {
		ds = q.toCoord(ds)
	}
	switch {
	case topK:
		keys := planSortKeys(s.Keys)
		ds = q.each(ds, "TopK", func(in exec.Operator, ctx *exec.Ctx) exec.Operator {
			return exec.NewTopK(ctx, in, keys, int(x.N))
		})
		if ds.coord {
			return ds, nil
		}
		ds = q.gatherOrdered(ds, keys)
	case !ds.coord:
		// Any N+offset rows per worker suffice; trim on the coordinator.
		ds = q.toCoord(q.each(ds, "Limit", func(in exec.Operator, _ *exec.Ctx) exec.Operator {
			return exec.NewLimit(in, x.N+x.Offset, 0)
		}))
	}
	return q.each(ds, "Limit", func(in exec.Operator, _ *exec.Ctx) exec.Operator {
		return exec.NewLimit(in, x.N, x.Offset)
	}), nil
}

// toCoord brings a stream to the coordinator, unordered: a coordinator
// stream as it is; a replicated one from worker 0 alone, since pulling every
// replica would return each row once per worker (the paper assigns
// replicated-table scans to one worker) — the other replicas are never
// opened, so their spans are dropped; any other from every worker.
func (q *queryExec) toCoord(ds *dstream) *dstream {
	switch {
	case ds.coord:
		return ds
	case ds.dist.Kind == opt.DistReplicated:
		q.drop(ds.ops[1:])
		return q.gatherRecv(q.channel("one"), ds, ds.ops[:1])
	default:
		return q.gatherRecv(q.channel("g"), ds, ds.ops)
	}
}

// gather is the scaffold every gather shape shares: a coordinator-side span
// named gname, under it one span named sname per contributing worker (which
// adopts that worker's subtree, is charged the time of its send, and counts
// the rows, bytes and messages the worker puts on the wire through a
// CountingEndpoint), and a workerDriver that builds the coordinator's
// receive side with coordSide and runs send once per worker.
// The result is the coordinator stream of the driver, with schema sch.
func (q *queryExec) gather(gname, sname string, ops []exec.Operator, sch types.Schema, coordSide func() exec.Operator,
	send func(wi int, ectx *exec.Ctx, ep network.Endpoint, op exec.Operator) error) *dstream {
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
					start := time.Now()
					err := send(wi, ectx, eps[wi], ops[wi])
					sp.AddWall(time.Since(start))
					return err
				}
			}
			return fns
		},
	}
	return onCoord(q.attach(d, gsp), sch)
}

// gatherRecv gathers ops — all of ds's operators or some — over one channel
// into a single coordinator Recv. A typed stream goes out columnar, straight
// from the scan's batches; the wire format is the same either way.
func (q *queryExec) gatherRecv(ch string, ds *dstream, ops []exec.Operator) *dstream {
	coordEp, coordID := q.coord.Ep, q.coord.ID
	return q.gather("Gather", "Send", ops, ds.sch,
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
func (q *queryExec) gatherOrdered(ds *dstream, keys []exec.SortKey) *dstream {
	base := q.channel("m")
	coordEp, coordID := q.coord.Ep, q.coord.ID
	chOf := func(wi int) string { return fmt.Sprintf("%s.%d", base, wi) }
	return q.gather("GatherMerge", "Send", ds.ops, ds.sch,
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
func (q *queryExec) gatherTree(ds *dstream, combine func([]exec.Operator) exec.Operator) *dstream {
	spec := exec.TreeReduceSpec{
		Channel: q.channel("t"),
		Nodes:   append([]int{q.coord.ID}, q.c.WorkerIDs()...),
		Nmax:    q.c.Cfg.Nmax,
	}
	coordEp := q.coord.Ep
	return q.gather("TreeReduce", "TreeSend", ds.ops, ds.sch,
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
		idx := from.Find(c)
		if idx < 0 || idx >= to.Len() {
			return nil
		}
		out = append(out, to.Cols[idx].Name)
	}
	return out
}

// projectDist tracks partitioning columns through a projection: each dist
// column must appear as a plain passthrough column.
func projectDist(d opt.DistInfo, p *plan.Project) opt.DistInfo {
	if d.Kind != opt.DistPartitioned {
		return d
	}
	childSch := p.Child.Schema()
	out := opt.DistInfo{Kind: opt.DistPartitioned}
	for _, dc := range d.Cols {
		idx := childSch.Find(dc)
		mapped := ""
		for i, e := range p.Exprs {
			if c, ok := e.(*expr.Col); ok && idx >= 0 && c.Index == idx {
				mapped = p.Schema().Cols[i].Name
				break
			}
		}
		if mapped == "" {
			return opt.DistInfo{}
		}
		out.Cols = append(out.Cols, mapped)
	}
	return out
}
