package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// span is one harness-side interval around a public call into a layer.
// Spans of one statement share Op; Parent is the statement's root span.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Stmt    string `json:"stmt"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; dump writes them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func (t *tracer) begin(op, parent int, name, stmt string) int {
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Stmt: stmt,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e6
}

// phases are the harness spans of one SELECT, in call order.
var phases = []string{"parse", "plan", "compile", "open", "first_row", "drain", "close", "encode"}

// statement runs one SELECT the way ExecSQL does, but call by call, with a
// span around each public call. It returns the milliseconds per phase and
// of the whole statement.
func (t *tracer) statement(c *cluster.Cluster, q, sql string) (map[string]float64, float64, error) {
	t.ops++
	op := t.ops
	root := t.begin(op, 0, "statement", q)
	ms := map[string]float64{}
	var id int
	enter := func(name string) { id = t.begin(op, root, name, q) }
	leave := func(name string) { ms[name] = t.end(id) }

	enter("parse")
	sel, err := sqlparse.ParseSelect(sql)
	leave("parse")
	if err != nil {
		return nil, 0, err
	}
	enter("plan")
	node, err := c.Plan(sel)
	leave("plan")
	if err != nil {
		return nil, 0, err
	}
	enter("compile")
	cur, err := c.CompileDistributed(node)
	leave("compile")
	if err != nil {
		return nil, 0, err
	}
	enter("open")
	err = cur.Open()
	leave("open")
	if err != nil {
		return nil, 0, err
	}
	var rows []types.Row
	enter("first_row")
	r, more, err := cur.Next()
	leave("first_row")
	enter("drain")
	for more && err == nil {
		rows = append(rows, r)
		r, more, err = cur.Next()
	}
	leave("drain")
	enter("close")
	cerr := cur.Close()
	leave("close")
	if err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	enter("encode") // what the serving layer does with a result
	for _, r := range rows {
		_ = r.String()
	}
	leave("encode")
	return ms, t.end(root), nil
}

// spanBuckets maps the first word of an engine span's Op to the per-layer
// share it is charged to; labels not listed go to trace.other_share.
var spanBuckets = map[string]string{
	"Scan": "exec.scan_share", "IndexScan": "exec.scan_share",
	"Filter": "exec.filter_project_share", "Project": "exec.filter_project_share",
	"HashAgg": "exec.agg_share", "Distinct": "exec.agg_share",
	"HashJoin": "exec.join_share", "NestedLoopJoin": "exec.join_share",
	"Sort": "exec.sort_share", "TopK": "exec.sort_share", "Limit": "exec.sort_share",
	"Shuffle": "exec.exchange_share", "Broadcast": "exec.exchange_share", "Materialize": "exec.exchange_share",
	"Gather": "cluster.gather_share", "GatherMerge": "cluster.gather_share", "Send": "cluster.gather_share",
	"TreeReduce": "cluster.gather_share", "TreeSend": "cluster.gather_share",
}

// selfTimes adds each engine span's self time to its bucket: the span's
// wall minus the part its children cover. Engine spans carry a cumulative
// wall, not an interval, so coverage is estimated from placement: children
// on the parent's node run nested inside it (their walls add up), children
// on other nodes sit across an exchange and run side by side (the slowest
// one counts). A span the engine does not time (wall 0, the Send side of a
// gather) stands for what its own children cover.
func selfTimes(tr obs.TraceSnapshot, into map[string]float64) {
	kids := map[int64][]obs.SpanSnapshot{}
	for _, s := range tr.Spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var covered, effective func(s obs.SpanSnapshot) int64
	covered = func(s obs.SpanSnapshot) int64 {
		var nested, remote int64
		for _, k := range kids[s.ID] {
			if w := effective(k); k.Node == s.Node {
				nested += w
			} else if w > remote {
				remote = w
			}
		}
		return nested + remote
	}
	effective = func(s obs.SpanSnapshot) int64 {
		if s.WallNS > 0 {
			return s.WallNS
		}
		return covered(s)
	}
	for _, s := range tr.Spans {
		self := s.WallNS - covered(s)
		if self < 0 {
			self = 0
		}
		word, _, _ := strings.Cut(s.Op, " ")
		bucket, ok := spanBuckets[word]
		if !ok {
			bucket = "trace.other_share"
		}
		into[bucket] += float64(self)
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func regValues(c *cluster.Cluster) map[string]float64 {
	out := map[string]float64{}
	for _, m := range c.Reg.Snapshot() {
		out[m.Name] = m.Value
	}
	return out
}

// runTraced produces the per-layer metrics. It never feeds the end-to-end
// numbers: those come from an untraced run. Four sources, all outside the
// program: (a) harness spans around public calls, (b) the program's public
// counters (RunMetrics, registry deltas), (c) its public span tree from
// RunTraced, (d) layer probes.
func runTraced(cfg config) (*result, error) {
	e, err := setup(cfg.w, cfg.seed, filepath.Join(cfg.workRoot, "cluster"))
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	v, err := verifyBefore(e, cfg.workRoot)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	defer v.close()

	vals := map[string]float64{
		"tpch.generate_s":         e.genS,
		"storage.load_s":          e.loadS,
		"storage.load_rows_per_s": float64(e.base.Rows) / e.loadS,
		"skipcache.cold_pass_ms":  e.coldPassS * 1000,
	}
	exact := map[string]float64{}

	// (b) The workload's own operation mix at a quarter of the passes,
	// tracing off, with the public counters and the process's CPU time
	// read around it.
	passes := cfg.w.Passes / 4
	if passes < 1 {
		passes = 1
	}
	perPass := float64(passes * clientsOf(cfg.w))
	quiesce()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reg0, cpu0 := regValues(e.c), cpuSeconds()
	rec := &recorder{}
	ref := newRefresher(cfg.seed, e.base)
	var waits []float64
	if err := timedPhase(e, passes, rec, ref, &waits); err != nil {
		return nil, err
	}
	reg1, cpu1 := regValues(e.c), cpuSeconds()
	runtime.ReadMemStats(&m1)
	attempted, failed := rec.settle()
	delta := func(name string) float64 { return reg1[name] - reg0[name] }

	vals["host.cpu_s_per_pass"] = (cpu1 - cpu0) / perPass
	vals["host.cpu_util"] = (cpu1 - cpu0) / (rec.wallS * float64(runtime.NumCPU()))
	vals["host.allocs_mb_per_pass"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / perPass
	vals["host.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	vals["host.heap_mb_after"] = float64(m1.HeapInuse) / (1 << 20)
	if acc := delta("buffer.hits") + delta("buffer.misses"); acc > 0 {
		vals["buffer.hit_ratio"] = delta("buffer.hits") / acc
	}
	vals["buffer.evictions"] = delta("buffer.evictions") / perPass
	vals["buffer.disk_writes"] = delta("buffer.disk_writes") / perPass
	vals["wal.appends"] = delta("wal.appends_total") / perPass
	vals["wal.flushes"] = delta("wal.flushes_total") / perPass
	vals["twopc.commits"] = delta("twopc.commits_total") / perPass
	vals["twopc.aborts"] = delta("twopc.aborts_total") / perPass
	for name := range reg1 {
		if strings.HasPrefix(name, "srv.rejected.") {
			vals["srv.rejected"] += delta(name)
		}
	}
	byKind := rec.byKind()
	var all []float64
	writes := 0
	for kind, ms := range byKind {
		all = append(all, ms...)
		if isQuery(kind) {
			vals["query."+kind+"_ms"] = median(ms)
		} else {
			writes += len(ms)
		}
	}
	if cfg.w.Name == "serve_short" {
		vals["srv.latency_p99_ms"] = quantile(all, 0.99)
		vals["srv.queue_wait_p50_ms"] = median(waits)
		vals["srv.queue_wait_p95_ms"] = quantile(waits, 0.95)
	}
	if cfg.w.Name == "refresh_mix" {
		vals["txn.update_ms"] = median(byKind["update"])
		vals["txn.insert_ms"] = median(byKind["insert"])
		vals["txn.delete_ms"] = median(byKind["delete"])
		vals["wal.flushes_per_write"] = delta("wal.flushes_total") / float64(writes)
		vals["txn.write_ms"] = median(rec.halfMS(false))
		// One append is a cycle's orders and lineitems through Cluster.Load.
		rows := float64(ref.appendedLineitems + passes*appendOrders)
		vals["storage.append_rows_per_s"] = rows / (sum(byKind["append"]) / 1000)
		if err := v.verifyRefresh(e, passes, ref); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	v.close()

	// (a) Harness spans: every read statement of the workload, call by
	// call, next to the same statement through ExecSQL with no spans (their
	// ratio is trace.overhead) and through RunMetered for its counters.
	queries := tpch.Queries()
	tr := &tracer{t0: time.Now()}
	phaseMS := map[string]map[string][]float64{} // phase → query → samples
	for _, p := range phases {
		phaseMS[p] = map[string][]float64{}
	}
	traced, plain := map[string][]float64{}, map[string][]float64{}
	var spanned, covered float64
	var metered map[string]cluster.RunMetrics
	for rep := 0; rep < passes; rep++ {
		metered = map[string]cluster.RunMetrics{}
		for _, q := range e.w.Queries {
			t0 := time.Now()
			if _, err := e.c.ExecSQL(queries[q]); err != nil {
				return nil, fmt.Errorf("%s: %w", q, err)
			}
			plain[q] = append(plain[q], msSince(t0))

			ms, wall, err := tr.statement(e.c, q, queries[q])
			if err != nil {
				return nil, fmt.Errorf("traced %s: %w", q, err)
			}
			traced[q] = append(traced[q], wall)
			spanned += wall
			for p, x := range ms {
				phaseMS[p][q] = append(phaseMS[p][q], x)
				covered += x
			}

			sel, err := sqlparse.ParseSelect(queries[q])
			if err != nil {
				return nil, err
			}
			node, err := e.c.Plan(sel)
			if err != nil {
				return nil, err
			}
			if _, metered[q], err = e.c.RunMetered(node); err != nil {
				return nil, fmt.Errorf("metered %s: %w", q, err)
			}
		}
	}
	// perStmt: the mean over the workload's queries of each query's median.
	perStmt := func(phase ...string) float64 {
		var total float64
		for _, q := range e.w.Queries {
			for _, p := range phase {
				total += median(phaseMS[p][q])
			}
		}
		return total / float64(len(e.w.Queries))
	}
	vals["sqlparse.parse_us"] = perStmt("parse") * 1000
	vals["opt.plan_us"] = perStmt("plan") * 1000
	vals["cluster.compile_us"] = perStmt("compile") * 1000
	vals["cluster.first_row_ms"] = perStmt("open", "first_row")
	vals["cluster.drain_ms"] = perStmt("drain", "close")
	vals["srv.encode_us"] = perStmt("encode") * 1000
	vals["trace.coverage"] = covered / spanned
	var tracedSum, plainSum float64
	for _, q := range e.w.Queries {
		tracedSum += median(traced[q])
		plainSum += median(plain[q])
	}
	vals["trace.overhead"] = tracedSum / plainSum

	// RunMetrics of one pass (the last): counts, summed over the queries.
	var pagesRead, pagesSkipped float64
	for _, q := range e.w.Queries {
		rm := metered[q]
		vals["exec.work_rows"] += float64(rm.WorkRows)
		vals["exec.state_bytes"] += float64(rm.StateBytes)
		vals["exec.spill_bytes"] += float64(rm.SpillBytes)
		vals["storage.scan_rows"] += float64(rm.ScanRows)
		vals["page.decode_typed_pages"] += float64(rm.DecodeTypedPages)
		vals["page.decode_boxed_pages"] += float64(rm.DecodeBoxedPages)
		vals["network.net_bytes"] += float64(rm.NetBytes)
		vals["network.net_messages"] += float64(rm.NetMessages)
		vals["cluster.exchanges"] += float64(rm.Exchanges)
		if d := float64(rm.MaxDegree); d > vals["network.max_degree"] {
			vals["network.max_degree"] = d
		}
		pagesRead += float64(rm.PagesRead)
		pagesSkipped += float64(rm.PagesSkipped)
		exact[q+".scan_rows"] = float64(rm.ScanRows)
		exact[q+".pages_read"] = float64(rm.PagesRead)
		exact[q+".pages_skipped"] = float64(rm.PagesSkipped)
		exact[q+".result_rows"] = float64(rm.ResultRows)
	}
	vals["buffer.pages_read"] = pagesRead
	vals["skipcache.pages_skipped"] = pagesSkipped
	if pagesRead+pagesSkipped > 0 {
		vals["skipcache.skip_share"] = pagesSkipped / (pagesRead + pagesSkipped)
	}

	// (d) Layer probes.
	if err := probes(e, vals); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}

	// (c) The program's own span tree, last: RunTraced feeds the optimizer's
	// cardinality feedback, which may change later plans.
	self := map[string]float64{}
	var engine []obs.TraceSnapshot
	for _, q := range e.w.Queries {
		sel, err := sqlparse.ParseSelect(queries[q])
		if err != nil {
			return nil, err
		}
		node, err := e.c.Plan(sel)
		if err != nil {
			return nil, err
		}
		_, _, qt, err := e.c.RunTraced(node, q)
		if err != nil {
			return nil, fmt.Errorf("RunTraced %s: %w", q, err)
		}
		snap := qt.Snapshot()
		engine = append(engine, snap)
		selfTimes(snap, self)
	}
	var selfTotal float64
	for _, ns := range self {
		selfTotal += ns
	}
	for bucket, ns := range self {
		vals[bucket] = ns / selfTotal
	}
	vals["harness.verify_s"] = v.seconds

	if cfg.traceOut != "" {
		if err := dumpTrace(cfg.traceOut, tr.spans, engine); err != nil {
			return nil, err
		}
	}
	return &result{
		Correct:   failed == 0 && len(v.mismatches) == 0,
		Attempted: attempted + v.checks,
		Failed:    failed + len(v.mismatches),
		Metrics:   report(perLayer, vals),
		info: runInfo{
			Workload: cfg.w.Name, Seed: cfg.seed, Traced: true, SF: cfg.w.SF, Passes: passes,
			Clients: clientsOf(cfg.w), Samples: map[string]int{"ops": attempted, "traced_statements": tr.ops},
			VerifyS: v.seconds, Checks: v.checks, Mismatches: v.mismatches, Exact: exact, Host: host(),
		},
	}, nil
}

// dumpTrace writes the harness spans and the engine's span trees.
func dumpTrace(path string, spans []span, engine []obs.TraceSnapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		HarnessSpans []span              `json:"harness_spans"`
		EngineTraces []obs.TraceSnapshot `json:"engine_traces"`
	}{spans, engine})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
