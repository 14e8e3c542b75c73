package cluster

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/types"
)

// RunMetrics captures what one query execution did across the cluster —
// the real, counted quantities the performance model converts into
// simulated cluster-scale time.
//
// Network counters are exact for the query: every exchange channel carries
// the query id in its name and the fabric meter attributes traffic through
// a per-query scope, so concurrent queries cannot cross-talk. The worker
// counters (WorkRows, ScanRows, PagesRead, SpillBytes, StateBytes) are
// cluster-wide deltas over the query's execution window — under concurrent
// load they include work done by overlapping queries.
type RunMetrics struct {
	// CPU work: rows flowing through operators.
	WorkRows int64
	// ScanRows is rows produced by table scans (cheaper per row than
	// operator work; zero for pages avoided by data skipping).
	ScanRows int64
	// Disk: pages touched by scans, and pages skipped by data skipping.
	PagesRead    int64
	PagesSkipped int64
	PageBytes    int64 // PagesRead × page size
	// DecodeTypedPages counts the pages the typed scans decoded.
	DecodeTypedPages int64
	// DecodeBoxedPages is always 0: no scan decodes a page boxed, as a
	// column holds only its own kind. Nothing writes it; it stays for the
	// benchmark, whose page.decode_boxed_pages metric (bench/trace.go)
	// reads it.
	DecodeBoxedPages int64
	// PredRowSets counts the page sets (a row table's pages) whose scan
	// predicate has a conjunct with no compiled kernel, and so was
	// evaluated row by row (exec.Counters.PredRowSets).
	PredRowSets int64
	// BoxedRows counts rows the workers boxed between a typed producer and a
	// row consumer (exec.Counters.BoxedRows); zero when every scan fed a typed
	// aggregate build.
	BoxedRows int64
	// Spill/materialization volume (blocking shuffles, Grace joins,
	// external sorts).
	SpillBytes int64
	// Peak-ish operator state (hash tables, group tables, sort buffers):
	// the per-query memory working set, summed across workers.
	StateBytes int64
	// Network.
	NetBytes    int64
	NetMessages int64
	Connections int
	MaxDegree   int
	// Plan shape.
	Exchanges  int // number of exchange (shuffle/gather) boundaries
	ResultRows int
	// Wall is the end-to-end execution time at the coordinator.
	Wall time.Duration
}

// RunMetered executes a plan and reports metrics for it.
func (c *Cluster) RunMetered(root plan.Node) ([]types.Row, RunMetrics, error) {
	rows, m, _, err := c.runMetered(c.Coords[0], root, false, "", nil)
	return rows, m, err
}

// RunTraced executes a plan with per-operator tracing and returns the
// stitched query trace alongside the metrics. sql labels the trace.
func (c *Cluster) RunTraced(root plan.Node, sql string) ([]types.Row, RunMetrics, *obs.QueryTrace, error) {
	return c.runMetered(c.Coords[0], root, true, sql, nil)
}

// runMetered is the shared execution path: it allocates the query id,
// opens a meter scope on the query's channel prefix (subqueries add their
// own prefixes), optionally wires a tracer through distribution, runs the
// dataflow, and assembles the metrics. opts, when non-nil, threads the
// serving layer's per-query controls (kill switch, batch sizing,
// parallelism clamp) through distribution; a traced query that waited in
// the admission queue gets that wait recorded as an Admission span.
func (c *Cluster) runMetered(coord *CoordinatorNode, root plan.Node, traced bool, sql string, opts *QueryOptions) ([]types.Row, RunMetrics, *obs.QueryTrace, error) {
	q := c.newQueryExec(coord, opts)
	scope := c.Fabric.Meter().Scope(fmt.Sprintf("q%d.", q.qid))
	defer scope.Close()
	q.scope = scope
	// Mailboxes for the query's channel namespaces are freed once every
	// exchange loop has exited, whether the query completes or is killed
	// mid-stream.
	defer q.releaseWhenQuiet()
	var tr *obs.QueryTrace
	if traced {
		tr = obs.NewQueryTrace(q.qid, sql)
		q.tr = tr
		q.spans = map[exec.Operator]*obs.Span{}
		if opts != nil && opts.QueueWait > 0 {
			asp := tr.StartSpan("Admission", coord.ID)
			asp.AddWall(opts.QueueWait)
			asp.Finish()
		}
	}

	type snap struct {
		rows, spill, state, scanned, pagesRead int64
		decodeTyped, predRowSets, boxedRows    int64
	}
	before := make([]snap, len(c.Workers))
	for i, w := range c.Workers {
		bs := w.Store.Buf.Stats()
		before[i] = snap{
			rows:        w.execCtx.RowsProcessed.Load(),
			spill:       w.execCtx.SpillBytes.Load(),
			state:       w.execCtx.StateBytes.Load(),
			scanned:     w.Store.RowsScanned.Load(),
			pagesRead:   bs.Hits + bs.Misses, // logical page accesses
			decodeTyped: w.execCtx.DecodeTypedPages.Load(),
			predRowSets: w.execCtx.PredRowSets.Load(),
			boxedRows:   w.execCtx.BoxedRows.Load(),
		}
	}
	skippedBefore := c.totalSkipped()

	var m RunMetrics
	start := time.Now()
	coordOp, err := q.compile(root)
	if err != nil {
		return nil, m, tr, err
	}
	// Guard re-checks the kill switch on every coordinator pull, so KILL
	// surfaces within one batch boundary even while the plan is waiting on
	// a network message.
	rows, err := exec.Collect(exec.Guard(q.cancel(), coordOp))
	if err != nil {
		return nil, m, tr, err
	}
	m.Wall = time.Since(start)
	tr.SetWall(m.Wall)

	m.NetBytes = scope.TotalBytes()
	m.NetMessages = scope.TotalMessages()
	m.Connections = scope.Connections()
	m.MaxDegree = scope.MaxNodeDegree()
	m.Exchanges = q.xseq
	m.ResultRows = len(rows)
	for i, w := range c.Workers {
		m.WorkRows += w.execCtx.RowsProcessed.Load() - before[i].rows
		m.SpillBytes += w.execCtx.SpillBytes.Load() - before[i].spill
		m.StateBytes += w.execCtx.StateBytes.Load() - before[i].state
		m.ScanRows += w.Store.RowsScanned.Load() - before[i].scanned
		bs := w.Store.Buf.Stats()
		m.PagesRead += (bs.Hits + bs.Misses) - before[i].pagesRead
		m.DecodeTypedPages += w.execCtx.DecodeTypedPages.Load() - before[i].decodeTyped
		m.PredRowSets += w.execCtx.PredRowSets.Load() - before[i].predRowSets
		m.BoxedRows += w.execCtx.BoxedRows.Load() - before[i].boxedRows
	}
	m.PagesSkipped = c.totalSkipped() - skippedBefore
	m.PageBytes = m.PagesRead * int64(c.Cfg.PageSize)
	// Spill and operator state are tracked in per-worker exec contexts
	// shared by all operators, so they cannot be attributed to a single
	// span; charge the query-level delta to the trace's root operator.
	if sp := q.spanOf(coordOp); sp != nil {
		sp.AddSpill(m.SpillBytes)
		sp.AddState(m.StateBytes)
	}
	return rows, m, tr, nil
}

// totalSkipped sums predicate-cache skip decisions across fragments.
func (c *Cluster) totalSkipped() int64 {
	var total int64
	for _, w := range c.Workers {
		for _, fr := range w.frags {
			h, _ := fr.PredCache.Stats()
			total += h + fr.MinMax.Hits()
		}
		for _, fr := range w.colFrags {
			h, _ := fr.PredCache.Stats()
			total += h + fr.MinMax.Hits()
		}
	}
	return total
}
