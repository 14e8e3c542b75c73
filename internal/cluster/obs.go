package cluster

import (
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
)

// This file wires the obs tracing layer into query distribution. A traced
// queryExec carries a QueryTrace and wraps every operator it places — on
// workers and on the coordinator — in an exec.Traced charging a span; the
// spans link parent→child along the operator tree, including across the
// exchange boundaries (gather Send spans, shuffle CountingEndpoints), so a
// distributed query yields one stitched per-node trace. An untraced
// queryExec (tr == nil) takes none of these paths: operators are returned
// unwrapped and execution is byte-identical to the pre-obs engine.

// startSpan opens a span on the query's trace (nil when untraced).
func (q *queryExec) startSpan(op string, node int) *obs.Span {
	return q.tr.StartSpan(op, node)
}

// attach wraps op so its rows and time are charged to sp, links the spans
// of child operators beneath it, and records the mapping so operators
// placed later can adopt this one as a child. Returns op unchanged when sp
// is nil.
func (q *queryExec) attach(op exec.Operator, sp *obs.Span, children ...exec.Operator) exec.Operator {
	if sp == nil {
		return op
	}
	// Operators with intra-operator (morsel) parallelism report the worker
	// count they were actually granted on their own span.
	switch o := op.(type) {
	case *exec.HashAggregate:
		o.Trace = sp
	case *exec.Sort:
		o.Trace = sp
	case *exec.HashJoin:
		o.Trace = sp
	}
	for _, ch := range children {
		q.spanOf(ch).SetParent(sp)
	}
	w := exec.NewTraced(op, sp)
	q.spans[w] = sp
	return w
}

// wrap is attach with span creation — the common case for operators whose
// span needs no other wiring (scan spans are created first so the scan
// thread can write into them; exchange spans feed CountingEndpoints).
func (q *queryExec) wrap(name string, node int, op exec.Operator, children ...exec.Operator) exec.Operator {
	if q.tr == nil {
		return op
	}
	return q.attach(op, q.startSpan(name, node), children...)
}

// spanOf returns the span a wrapped operator charges into (nil when
// untraced or unwrapped).
func (q *queryExec) spanOf(op exec.Operator) *obs.Span {
	if q.tr == nil {
		return nil
	}
	return q.spans[op]
}

// drop takes the spans of ops — placed, but never to be opened — and the
// spans beneath them off the trace.
func (q *queryExec) drop(ops []exec.Operator) {
	if q.tr == nil {
		return
	}
	var roots []*obs.Span
	for _, op := range ops {
		roots = append(roots, q.spans[op])
		delete(q.spans, op)
	}
	q.tr.Drop(roots...)
}

// adopt maps derived to src's span: pass-through wrappers (Rename's schema
// override) add no work of their own, so parents link straight through.
func (q *queryExec) adopt(derived, src exec.Operator) {
	if q.tr == nil {
		return
	}
	if sp := q.spans[src]; sp != nil {
		q.spans[derived] = sp
	}
}

// registerClusterMetrics publishes the cluster's live counters into the
// registry as gauge functions: the subsystems keep their own atomics and
// the registry reads them at snapshot time, so registration costs nothing
// on the hot path.
func registerClusterMetrics(c *Cluster) {
	r := c.Reg
	// perWorker registers a gauge summing one per-worker value.
	perWorker := func(name string, of func(w *Worker) int64) {
		r.RegisterGaugeFunc(name, func() int64 {
			var n int64
			for _, w := range c.Workers {
				n += of(w)
			}
			return n
		})
	}
	perWorker("buffer.hits", func(w *Worker) int64 { return w.Store.Buf.Stats().Hits })
	perWorker("buffer.misses", func(w *Worker) int64 { return w.Store.Buf.Stats().Misses })
	perWorker("buffer.evictions", func(w *Worker) int64 { return w.Store.Buf.Stats().Evictions })
	perWorker("buffer.disk_writes", func(w *Worker) int64 { return w.Store.Buf.Stats().Writes })
	r.RegisterGaugeFunc("skipcache.skipped_total", c.totalSkipped)
	// Estimator health: how often the planner had to fall back to the
	// default row-count guess because a table had no collected statistics.
	r.RegisterGaugeFunc("opt.stats_default_fallback", func() int64 {
		var n int64
		seen := map[*catalog.Catalog]bool{}
		for _, cn := range c.Coords {
			if seen[cn.Cat] {
				continue
			}
			seen[cn.Cat] = true
			n += cn.Cat.DefaultStatsFallbacks()
		}
		return n
	})
	perWorker("storage.rows_scanned_total", func(w *Worker) int64 { return w.Store.RowsScanned.Load() })
	perWorker("exec.rows_processed_total", func(w *Worker) int64 { return w.execCtx.RowsProcessed.Load() })
	perWorker("exec.decode_typed_pages_total", func(w *Worker) int64 { return w.execCtx.DecodeTypedPages.Load() })
	perWorker("exec.pred_row_sets_total", func(w *Worker) int64 { return w.execCtx.PredRowSets.Load() })
	perWorker("exec.boxed_rows_total", func(w *Worker) int64 { return w.execCtx.BoxedRows.Load() })
	perWorker("exec.spill_bytes_total", func(w *Worker) int64 { return w.execCtx.SpillBytes.Load() })
	perWorker("exec.state_bytes_total", func(w *Worker) int64 { return w.execCtx.StateBytes.Load() })
	r.RegisterGaugeFunc("network.bytes_total", func() int64 { return c.Fabric.Meter().TotalBytes() })
	r.RegisterGaugeFunc("network.messages_total", func() int64 { return c.Fabric.Meter().TotalMessages() })
	r.RegisterGaugeFunc("network.connections", func() int64 { return int64(c.Fabric.Meter().Connections()) })
	r.RegisterGaugeFunc("network.max_degree", func() int64 { return int64(c.Fabric.Meter().MaxNodeDegree()) })
	r.RegisterGaugeFunc("network.mailboxes", func() int64 { return int64(c.Fabric.Mailboxes()) })
	r.RegisterGaugeFunc("wal.appends_total", func() int64 {
		var n int64
		for _, w := range c.Workers {
			n += w.Log.Appends()
		}
		for _, cn := range c.Coords {
			n += cn.XA.XALog.Appends()
		}
		return n
	})
	r.RegisterGaugeFunc("wal.flushes_total", func() int64 {
		var n int64
		for _, w := range c.Workers {
			n += w.Log.Flushes()
		}
		for _, cn := range c.Coords {
			n += cn.XA.XALog.Flushes()
		}
		return n
	})
	r.RegisterGaugeFunc("twopc.commits_total", func() int64 {
		var n int64
		for _, cn := range c.Coords {
			n += cn.XA.Commits()
		}
		return n
	})
	r.RegisterGaugeFunc("twopc.aborts_total", func() int64 {
		var n int64
		for _, cn := range c.Coords {
			n += cn.XA.Aborts()
		}
		return n
	})
	perWorker("txn.active", func(w *Worker) int64 { return int64(w.Txn.ActiveCount()) })
}
