package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/testutil"
	"repro/internal/types"
)

// planFor builds and optimizes a SELECT for direct RunTraced/RunMetered use.
func planFor(t *testing.T, c *Cluster, sql string) plan.Node {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	node, err := c.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// TestTraceSpanSumsMatchRunMetrics runs a distributed join with tracing and
// checks the acceptance invariant: the per-operator span counters sum to the
// query's RunMetrics totals. ScanRows and net bytes/messages must match
// exactly (scans write their own stats into spans; every exchange send goes
// through a counting endpoint and the meter scope sees the same channels).
// PagesRead differs by construction — spans count pages scans touched,
// RunMetrics counts all buffer accesses including headers and index pages —
// so it is checked as a lower bound.
func TestTraceSpanSumsMatchRunMetrics(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	sql := `SELECT c.c_name, SUM(o.o_totalprice)
		FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 50
		GROUP BY c.c_name`
	node := planFor(t, c, sql)
	rows, m, tr, err := c.RunTraced(node, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || m.ResultRows != len(rows) {
		t.Fatalf("rows=%d ResultRows=%d", len(rows), m.ResultRows)
	}
	var scanRows, pages, netBytes, netMsgs int64
	nodes := map[int]bool{}
	for _, s := range tr.Spans() {
		scanRows += s.ScanRows
		pages += s.PagesRead
		netBytes += s.NetBytes
		netMsgs += s.NetMsgs
		nodes[s.Node] = true
	}
	if scanRows != m.ScanRows {
		t.Errorf("span scan rows = %d, metrics = %d", scanRows, m.ScanRows)
	}
	if m.ScanRows == 0 {
		t.Error("join read no rows?")
	}
	if netBytes != m.NetBytes {
		t.Errorf("span net bytes = %d, metrics = %d", netBytes, m.NetBytes)
	}
	if netMsgs != m.NetMessages {
		t.Errorf("span net msgs = %d, metrics = %d", netMsgs, m.NetMessages)
	}
	if m.NetBytes == 0 {
		t.Error("distributed join moved no bytes?")
	}
	if pages == 0 || pages > m.PagesRead {
		t.Errorf("span pages = %d, metrics pages = %d (want 0 < span ≤ metrics)", pages, m.PagesRead)
	}
	// The trace must stitch across the exchange boundary: coordinator
	// (gather/final agg) plus every worker that scanned.
	if len(nodes) < 1+3 {
		t.Errorf("trace covers nodes %v, want coordinator + 3 workers", nodes)
	}
	if tr.Snapshot().WallNS <= 0 {
		t.Error("trace wall time not recorded")
	}
	// Untraced execution of the same plan returns the same row count and
	// also meters the network exactly (scope-based, not reset-based).
	node2 := planFor(t, c, sql)
	rows2, m2, err := c.RunMetered(node2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != len(rows) {
		t.Errorf("untraced rows = %d, traced = %d", len(rows2), len(rows))
	}
	if m2.NetBytes != m.NetBytes {
		t.Errorf("untraced net bytes = %d, traced = %d (tracing must not change traffic)", m2.NetBytes, m.NetBytes)
	}
}

// TestRunMeteredConcurrentNetIsolation is the regression test for the old
// reset-the-shared-meter scheme, where two overlapping RunMetered calls
// wiped each other's counters. With per-query scopes, each concurrent run
// must report exactly the bytes a solo run reports.
func TestRunMeteredConcurrentNetIsolation(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	sql := `SELECT c.c_nationkey, SUM(o.o_totalprice)
		FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey
		GROUP BY c.c_nationkey`
	_, solo, err := c.RunMetered(planFor(t, c, sql))
	if err != nil {
		t.Fatal(err)
	}
	if solo.NetBytes == 0 {
		t.Fatal("solo run moved no bytes; test needs a distributed plan")
	}
	const runs = 4
	ms := make([]RunMetrics, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		node := planFor(t, c, sql)
		wg.Add(1)
		go func(i int, node plan.Node) {
			defer wg.Done()
			_, ms[i], errs[i] = c.RunMetered(node)
		}(i, node)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if ms[i].NetBytes != solo.NetBytes || ms[i].NetMessages != solo.NetMessages {
			t.Errorf("concurrent run %d: net=%dB/%d msgs, solo=%dB/%d msgs",
				i, ms[i].NetBytes, ms[i].NetMessages, solo.NetBytes, solo.NetMessages)
		}
	}
}

// TestExplainAnalyzeSQL drives EXPLAIN ANALYZE end-to-end through ExecSQL
// and checks the rendered tree is multi-node and carries counters.
func TestExplainAnalyzeSQL(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	res, err := c.ExecSQL(`EXPLAIN ANALYZE SELECT c.c_name, o.o_totalprice
		FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Len() != 1 || res.Schema.Cols[0].Name != "plan" {
		t.Fatalf("schema = %v", res.Schema)
	}
	var text strings.Builder
	for _, r := range res.Rows {
		text.WriteString(r[0].S)
		text.WriteByte('\n')
	}
	out := text.String()
	for _, want := range []string{"Gather", "Scan", "[node 0]", "[node 1]", "[node 2]", "[node 3]", "rows=", "est=", "net=", "Totals:"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	// Plain EXPLAIN still renders the logical plan, not a trace.
	res, err = c.ExecSQL(`EXPLAIN SELECT c_name FROM customer`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || strings.Contains(res.Rows[0][0].S, "[node") {
		t.Errorf("plain EXPLAIN looks traced: %v", res.Rows)
	}
}

// TestTraceRecordsParallelWorkers pins the worker budget (so the granted
// degree does not depend on the host CPU count) and checks that morsel
// parallelism is observable: scan and worker-side aggregate spans carry the
// granted worker count, rendered as workers= in EXPLAIN ANALYZE output —
// whichever way the aggregate is distributed (every aggregate is built by
// aggs, so each worker-side one asks for the profile's degree).
func TestTraceRecordsParallelWorkers(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	shuffleGroupBy := HRDBMSProfile()
	shuffleGroupBy.PreAggTree = false
	for name, prof := range map[string]ExecProfile{"pre-aggregate": HRDBMSProfile(), "shuffle group-by": shuffleGroupBy} {
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{
				NumWorkers: 2,
				BaseDir:    t.TempDir(),
				PageSize:   4096,
				Nmax:       3,
				MemRows:    1 << 20,
				Profile:    prof,
				// Enough tokens that a scan (4) and an aggregate (4) can both be
				// granted their full requested degree on each worker.
				ParallelBudget: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if _, err := c.ExecSQL(`CREATE TABLE t (k INT, v VARCHAR(10), amt FLOAT) PARTITION BY HASH(k)`); err != nil {
				t.Fatal(err)
			}
			rows := make([]types.Row, 0, 3000)
			for i := int64(0); i < 3000; i++ {
				rows = append(rows, types.Row{
					types.NewInt(i),
					types.NewString([]string{"a", "b", "c"}[i%3]),
					types.NewFloat(float64(i % 97)),
				})
			}
			if _, err := c.Load("t", rows); err != nil {
				t.Fatal(err)
			}
			sql := `SELECT v, COUNT(*) FROM t GROUP BY v`
			node := planFor(t, c, sql)
			out, _, tr, err := c.RunTraced(node, sql)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 3 {
				t.Fatalf("got %d groups, want 3", len(out))
			}
			var scanWorkers, aggWorkers int64
			for _, s := range tr.Spans() {
				switch {
				case strings.HasPrefix(s.Op, "Scan"):
					scanWorkers = max(scanWorkers, s.Workers)
				case strings.HasPrefix(s.Op, "HashAgg") && s.Node != c.Coords[0].ID:
					aggWorkers = max(aggWorkers, s.Workers)
				}
			}
			if scanWorkers < 2 || aggWorkers < 2 {
				t.Errorf("max granted degree: scans %d, worker-side aggregates %d; want both parallel:\n%s", scanWorkers, aggWorkers, tr.Render())
			}
			if !strings.Contains(tr.Render(), "workers=") {
				t.Errorf("rendered trace missing workers=:\n%s", tr.Render())
			}
		})
	}
}

// TestTraceQueriesConfig checks that the TraceQueries switch records every
// session query into the trace store for /debug/queries.
func TestTraceQueriesConfig(t *testing.T) {
	c, _ := newCluster(t, 2, HRDBMSProfile())
	c.Cfg.TraceQueries = true
	if _, err := c.ExecSQL(`SELECT COUNT(*) FROM lineitem`); err != nil {
		t.Fatal(err)
	}
	// The store's flusher is asynchronous; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ts := c.Traces.Recent(); len(ts) > 0 {
			snap := ts[len(ts)-1].Snapshot()
			if !strings.Contains(snap.SQL, "lineitem") {
				t.Fatalf("stored trace sql = %q", snap.SQL)
			}
			if len(snap.Spans) == 0 {
				t.Fatal("stored trace has no spans")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trace never reached the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The registry observed the query latency histogram.
	if n := c.Reg.Histogram("query.seconds", querySecondsBounds).Total(); n == 0 {
		t.Error("query.seconds histogram not observed")
	}
}

// TestClusterRegistryMetricNames pins the cluster registry's full set of
// metrics, with their kinds, after one query: a renamed or dropped gauge
// breaks a dashboard or a benchmark that reads /metrics.
func TestClusterRegistryMetricNames(t *testing.T) {
	c, _ := newCluster(t, 2, HRDBMSProfile())
	if _, err := c.ExecSQL(`SELECT COUNT(*) FROM lineitem`); err != nil {
		t.Fatal(err)
	}
	// A per-worker gauge sums every worker's value, not one worker's.
	var scanned int64
	for _, w := range c.Workers {
		scanned += w.Store.RowsScanned.Load()
	}
	var got []string
	for _, m := range c.Reg.Snapshot() {
		got = append(got, m.Kind+" "+m.Name)
		if m.Name == "storage.rows_scanned_total" && (scanned == 0 || m.Value != float64(scanned)) {
			t.Errorf("storage.rows_scanned_total = %v, the workers scanned %d rows", m.Value, scanned)
		}
	}
	want := []string{
		"gauge buffer.disk_writes",
		"gauge buffer.evictions",
		"gauge buffer.hits",
		"gauge buffer.misses",
		"gauge exec.boxed_rows_total",
		"gauge exec.decode_boxed_pages_total",
		"gauge exec.decode_typed_pages_total",
		"gauge exec.pred_row_sets_total",
		"gauge exec.rows_processed_total",
		"gauge exec.spill_bytes_total",
		"gauge exec.state_bytes_total",
		"gauge network.bytes_total",
		"gauge network.connections",
		"gauge network.mailboxes",
		"gauge network.max_degree",
		"gauge network.messages_total",
		"gauge opt.stats_default_fallback",
		"histogram query.seconds",
		"gauge skipcache.skipped_total",
		"gauge storage.rows_scanned_total",
		"gauge twopc.aborts_total",
		"gauge twopc.commits_total",
		"gauge txn.active",
		"gauge wal.appends_total",
		"gauge wal.flushes_total",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("cluster registry holds\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// BenchmarkDistributedQuery compares the untraced path (nil tracer — the
// default for every query) against full tracing on a distributed join.
// The untraced arm is the overhead-vs-seed check: with tr == nil no span is
// allocated, no operator is wrapped, and the only added work per query is
// one meter-scope registration.
func BenchmarkDistributedQuery(b *testing.B) {
	c, err := New(Config{NumWorkers: 3, BaseDir: b.TempDir(), PageSize: 8192, Nmax: 3, Profile: HRDBMSProfile()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ddl := []string{
		`CREATE TABLE bk (k INT, grp INT, v FLOAT) PARTITION BY HASH(k)`,
		`CREATE TABLE bd (k INT, w FLOAT) PARTITION BY HASH(k)`,
	}
	for _, stmt := range ddl {
		if _, err := c.ExecSQL(stmt); err != nil {
			b.Fatal(err)
		}
	}
	var bkRows, bdRows []types.Row
	for i := int64(0); i < 2000; i++ {
		bkRows = append(bkRows, types.Row{types.NewInt(i), types.NewInt(i % 16), types.NewFloat(float64(i % 97))})
		bdRows = append(bdRows, types.Row{types.NewInt(i), types.NewFloat(float64(i % 13))})
	}
	if _, err := c.Load("bk", bkRows); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Load("bd", bdRows); err != nil {
		b.Fatal(err)
	}
	sql := `SELECT bk.grp, SUM(bd.w) FROM bk, bd WHERE bk.k = bd.k GROUP BY bk.grp`
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, traced bool) {
		for i := 0; i < b.N; i++ {
			node, err := c.Plan(sel)
			if err != nil {
				b.Fatal(err)
			}
			if traced {
				_, _, _, err = c.RunTraced(node, sql)
			} else {
				_, _, err = c.RunMetered(node)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}

// TestGatherTraceShowsWhatRan: a replicated stream is read from worker 0
// alone, so the trace keeps that one replica — EXPLAIN ANALYZE prints one
// Scan of a replicated table, not one per worker — and each Send under a
// Gather carries the rows it shipped and its time: their rows sum to the
// Gather's, replicated or partitioned.
func TestGatherTraceShowsWhatRan(t *testing.T) {
	c, _ := newCluster(t, 4, HRDBMSProfile())
	res, err := c.ExecSQL(`EXPLAIN ANALYZE SELECT count(*) FROM nation WHERE n_nationkey < 5`)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range res.Rows {
		text.WriteString(r[0].S)
		text.WriteByte('\n')
	}
	if n := strings.Count(text.String(), "Scan nation"); n != 1 {
		t.Errorf("%d Scan nation lines on 4 workers, want 1:\n%s", n, text.String())
	}
	for _, sql := range []string{
		`SELECT count(*) FROM nation WHERE n_nationkey < 5`,
		`SELECT c_custkey FROM customer WHERE c_acctbal > 0`,
	} {
		node := planFor(t, c, sql)
		_, _, tr, err := c.RunTraced(node, sql)
		if err != nil {
			t.Fatal(err)
		}
		spans := tr.Spans()
		gathers := 0
		for _, g := range spans {
			if g.Op != "Gather" {
				continue
			}
			gathers++
			var sent int64
			for _, s := range spans {
				if s.Parent != g.ID || s.Op != "Send" {
					continue
				}
				if s.WallNS <= 0 {
					t.Errorf("%s: Send on node %d has no time:\n%s", sql, s.Node, tr.Render())
				}
				sent += s.RowsOut
			}
			if g.RowsOut == 0 || sent != g.RowsOut {
				t.Errorf("%s: Sends shipped %d rows, the Gather returned %d:\n%s", sql, sent, g.RowsOut, tr.Render())
			}
		}
		if gathers == 0 {
			t.Errorf("%s: no Gather in the trace:\n%s", sql, tr.Render())
		}
	}
}
