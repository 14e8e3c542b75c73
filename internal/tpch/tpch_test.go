package tpch

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

func TestGeneratorDeterministicAndSized(t *testing.T) {
	d1 := Generate(0.001, 42)
	d2 := Generate(0.001, 42)
	if d1.TotalRows() != d2.TotalRows() {
		t.Fatal("generator not deterministic in row count")
	}
	for tbl, rows := range d1.Tables() {
		other := d2.Tables()[tbl]
		for i := range rows {
			if rows[i].String() != other[i].String() {
				t.Fatalf("%s row %d differs between runs", tbl, i)
			}
		}
	}
	sz := SizesFor(0.001)
	if len(d1.Orders) != sz.Orders || len(d1.Customer) != sz.Customer {
		t.Errorf("sizes: orders=%d customer=%d", len(d1.Orders), len(d1.Customer))
	}
	if len(d1.Region) != 5 || len(d1.Nation) != 25 {
		t.Errorf("fixed tables: %d regions, %d nations", len(d1.Region), len(d1.Nation))
	}
	if len(d1.PartSupp) != 4*len(d1.Part) {
		t.Errorf("partsupp = %d, want 4 per part", len(d1.PartSupp))
	}
	// Lineitems reference valid orders.
	if len(d1.Lineitem) < len(d1.Orders) {
		t.Errorf("lineitem = %d < orders = %d", len(d1.Lineitem), len(d1.Orders))
	}
}

func TestGeneratorDomains(t *testing.T) {
	d := Generate(0.001, 7)
	lo, hi := types.MustDate("1992-01-01"), types.MustDate("1999-01-01")
	for _, r := range d.Lineitem {
		qty := r[4].Float()
		if qty < 1 || qty > 50 {
			t.Fatalf("quantity %v out of range", qty)
		}
		disc := r[6].Float()
		if disc < 0 || disc > 0.10 {
			t.Fatalf("discount %v out of range", disc)
		}
		ship := r[10]
		if types.Compare(ship, lo) < 0 || types.Compare(ship, hi) > 0 {
			t.Fatalf("shipdate %v out of range", ship)
		}
		flag := r[8].Str()
		if flag != "N" && flag != "R" && flag != "A" {
			t.Fatalf("returnflag %q", flag)
		}
	}
}

// loadedCluster builds a cluster with TPC-H loaded at the scale factor.
func loadedCluster(t testing.TB, workers int, sf float64) (*cluster.Cluster, *Data) {
	t.Helper()
	return loadedClusterMem(t, workers, sf, 0)
}

// loadedClusterMem is loadedCluster with a per-operator row budget (0 = the
// default, which nothing at test scale exceeds).
func loadedClusterMem(t testing.TB, workers int, sf float64, memRows int) (*cluster.Cluster, *Data) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		NumWorkers: workers,
		BaseDir:    t.TempDir(),
		PageSize:   32 * 1024,
		Nmax:       3,
		MemRows:    memRows,
		Profile:    cluster.HRDBMSProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, ddl := range DDL() {
		if _, err := c.ExecSQL(ddl); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	d := Generate(sf, 20260706)
	for tbl, rows := range d.Tables() {
		if _, err := c.Load(tbl, rows); err != nil {
			t.Fatalf("load %s: %v", tbl, err)
		}
	}
	return c, d
}

func rowKey(r types.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if v.K == types.KindFloat {
			parts[i] = strconv.FormatFloat(v.F, 'g', 9, 64)
		} else {
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, "\t")
}

// parityCases is the table the parity suites run: the paper's 21 TPC-H
// queries, then every plan shape projection pushdown has a rule for.
func parityCases() (cases []pruneCase, numQueries int) {
	for _, qid := range QueryIDs() {
		cases = append(cases, pruneCase{name: qid, sql: Queries()[qid]})
	}
	return append(cases, pruneCases()...), len(cases)
}

// requireParity runs one case distributed — SQL through the optimizer as
// ExecSQL does, a hand-built plan pruned to the columns it uses — and
// single-node on the plan exactly as plan.Build made it, every scan whole,
// and requires the same rows. It returns the distributed run's rows and
// metrics.
func requireParity(t *testing.T, name string, pc pruneCase, c *cluster.Cluster, prov plan.TableProvider) ([]types.Row, cluster.RunMetrics) {
	t.Helper()
	var node plan.Node
	if pc.sql != "" {
		sel, err := sqlparse.ParseSelect(pc.sql)
		if err != nil {
			t.Fatalf("%s parse: %v", name, err)
		}
		if node, err = c.Plan(sel); err != nil {
			t.Fatalf("%s plan: %v", name, err)
		}
	} else {
		node = pc.plan(t, c.Catalog())
		if err := plan.PruneColumns(node); err != nil {
			t.Fatalf("%s prune: %v", name, err)
		}
	}
	got, m, err := c.RunMetered(node)
	if err != nil {
		t.Fatalf("%s distributed: %v", name, err)
	}
	op, err := plan.Execute(pc.plan(t, c.Catalog()), prov, exec.NewCtx(t.TempDir(), 0))
	if err != nil {
		t.Fatalf("%s reference: %v", name, err)
	}
	want, err := exec.Collect(op)
	if err != nil {
		t.Fatalf("%s reference run: %v", name, err)
	}
	// Sorted queries must match in order... but ties in ORDER BY keys
	// may legally permute, so compare as multisets (the ordered checks
	// live in cluster tests).
	requireSameRows(t, name, got, want)
	return got, m
}

// TestAllQueriesDistributedMatchReference is the correctness anchor of the
// whole reproduction: every one of the paper's 21 TPC-H queries, and every
// plan shape projection pushdown has a rule for (pruneCases), must produce
// identical results distributed — optimized, pruned to the columns it uses,
// over shuffles, co-location and tree aggregation, on 1 and on 4 workers —
// and single-node on the plan exactly as plan.Build made it, every scan
// whole. The 4-worker run of the 21 queries is also the executed-work gate:
// its counters must match testdata/counters.txt (checkCounters).
func TestAllQueriesDistributedMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-H suite skipped in -short mode")
	}
	cases, numQueries := parityCases()
	for _, workers := range []int{1, 4} {
		c, d := loadedCluster(t, workers, 0.002)
		if _, err := c.ExecSQL(`CREATE INDEX idx_supp ON supplier(s_suppkey)`); err != nil {
			t.Fatal(err)
		}
		prov := &plan.MemProvider{Cat: c.Catalog(), Rows: d.Tables()}
		nonEmpty := 0
		var counters []queryCounters
		for i, pc := range cases {
			name := fmt.Sprintf("%s, %d workers", pc.name, workers)
			got, m := requireParity(t, name, pc, c, prov)
			if i < numQueries {
				counters = append(counters, queryCounters{pc.name, countersOf(len(got), m)})
				if len(got) > 0 {
					nonEmpty++
				}
			}
			t.Logf("%s: %d rows", name, len(got))
		}
		if nonEmpty < 14 {
			t.Errorf("only %d of 21 queries returned rows — generator domains too sparse", nonEmpty)
		}
		if workers == 4 {
			checkCounters(t, counters)
		}
	}
}

// countersPath is the golden file of the 21 queries' executed work at SF0.002
// on 4 workers.
var countersPath = filepath.Join("testdata", "counters.txt")

// counterNames are the columns of countersPath after the query id. The
// first exactCounters reproduce exactly run to run, under -race, at any
// GOMAXPROCS and any ParallelBudget. The last two, the network's, are
// checked within netTolerance either way. A typed gather sends one message
// per scan batch, and a parallel scan fills a batch per thread, so how many
// it sends follows how many threads AcquireWorkers granted and which page
// sets each took; and the wire codec dictionary-codes strings once per
// message, so a message's size depends on which rows share it.
// RunMetrics.StateBytes is not recorded at all: every thread a blocking
// operator is granted charges its own partial table, so it too follows the
// grants, which depend on which tokens are free at that instant.
var counterNames = []string{
	"rows", "work_rows", "scan_rows", "pages_read", "pages_skipped",
	"decode_typed_pages", "pred_row_sets", "boxed_rows",
	"spill_bytes", "exchanges", "net_messages", "net_bytes",
}

const (
	exactCounters = 10
	netTolerance  = 0.10
)

// queryCounters is one line of countersPath.
type queryCounters struct {
	query string
	vals  []int64 // in counterNames order
}

func countersOf(rows int, m cluster.RunMetrics) []int64 {
	return []int64{
		int64(rows), m.WorkRows, m.ScanRows, m.PagesRead, m.PagesSkipped,
		m.DecodeTypedPages, m.PredRowSets, m.BoxedRows,
		m.SpillBytes, int64(m.Exchanges), m.NetMessages, m.NetBytes,
	}
}

// checkCounters compares the measured counters with countersPath, or
// rewrites the file under -update. A moved counter fails the test by query
// and name, in either direction: a deliberate cut updates the file too, and
// the diff says what the change did to the work each query executes. Under
// -update a network counter within netTolerance of the committed value keeps
// that value, so an -update that moves nothing rewrites no line.
func checkCounters(t *testing.T, got []queryCounters) {
	t.Helper()
	if *update {
		if old, err := readCounters(); err == nil && len(old) == len(got) {
			for i, q := range got {
				if old[i].query != q.query {
					continue
				}
				for j := exactCounters; j < len(counterNames); j++ {
					if netWithin(old[i].vals[j], q.vals[j]) {
						q.vals[j] = old[i].vals[j]
					}
				}
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# go test ./internal/tpch -run TestAllQueriesDistributedMatchReference -update\n")
		fmt.Fprintf(&b, "# SF0.002, 4 workers; net_messages and net_bytes within %.0f %%, the rest exact\n", netTolerance*100)
		w := tabwriter.NewWriter(&b, 0, 0, 1, ' ', tabwriter.AlignRight)
		fmt.Fprintf(w, "query\t%s\t\n", strings.Join(counterNames, "\t"))
		for _, q := range got {
			fmt.Fprintf(w, "%s", q.query)
			for _, v := range q.vals {
				fmt.Fprintf(w, "\t%d", v)
			}
			fmt.Fprintf(w, "\t\n")
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readCounters()
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d queries, the suite ran %d (regenerate with -update)", countersPath, len(want), len(got))
	}
	for i, q := range got {
		w := want[i]
		if w.query != q.query {
			t.Fatalf("%s holds %s where the suite ran %s (regenerate with -update)", countersPath, w.query, q.query)
		}
		if moved := movedCounters(w.vals, q.vals); len(moved) > 0 {
			t.Errorf("%s: %s (regenerate %s with -update if intended)", q.query, strings.Join(moved, ", "), countersPath)
		}
	}
}

// movedCounters names each counter of got that differs from want by more
// than it may: at all for the first exactCounters, beyond netTolerance of
// the golden value for the rest.
func movedCounters(want, got []int64) []string {
	var moved []string
	for j, name := range counterNames {
		g, x := got[j], want[j]
		if g == x || j >= exactCounters && netWithin(x, g) {
			continue
		}
		moved = append(moved, fmt.Sprintf("%s %d → %d", name, x, g))
	}
	return moved
}

// netWithin reports whether a network counter at got is within netTolerance
// of the golden want.
func netWithin(want, got int64) bool {
	return math.Abs(float64(got-want)) <= netTolerance*float64(want)
}

// TestCountersFileWellFormed checks testdata/counters.txt without running a
// query, so -short runs check it too: one line per query in QueryIDs order,
// and a value for every counter.
func TestCountersFileWellFormed(t *testing.T) {
	want, err := readCounters()
	if err != nil {
		t.Fatal(err)
	}
	ids := QueryIDs()
	if len(want) != len(ids) {
		t.Fatalf("%s holds %d queries, want %d", countersPath, len(want), len(ids))
	}
	for i, q := range want {
		if q.query != ids[i] {
			t.Errorf("line %d is %s, want %s", i+1, q.query, ids[i])
		}
		if len(q.vals) != len(counterNames) {
			t.Errorf("%s: %d values, want %d", q.query, len(q.vals), len(counterNames))
		}
	}
}

// TestMovedCountersTolerance: the exact counters fail on any move, either
// way; the network's pass within netTolerance and fail beyond it.
func TestMovedCountersTolerance(t *testing.T) {
	base := make([]int64, len(counterNames))
	for i := range base {
		base[i] = 1000
	}
	with := func(name string, v int64) []int64 {
		got := slices.Clone(base)
		got[slices.Index(counterNames, name)] = v
		return got
	}
	for _, tc := range []struct {
		name  string
		v     int64
		moved bool
	}{
		{"work_rows", 1001, true},
		{"work_rows", 999, true},
		{"exchanges", 1001, true},
		{"net_bytes", 1100, false},
		{"net_bytes", 900, false},
		{"net_bytes", 1101, true},
		{"net_messages", 899, true},
	} {
		moved := movedCounters(base, with(tc.name, tc.v))
		if got := len(moved) > 0; got != tc.moved {
			t.Errorf("%s 1000 → %d: moved %v, want %v", tc.name, tc.v, moved, tc.moved)
		}
		if tc.moved && (len(moved) != 1 || !strings.HasPrefix(moved[0], tc.name+" ")) {
			t.Errorf("%s 1000 → %d: moved %v, want only %s", tc.name, tc.v, moved, tc.name)
		}
	}
	if moved := movedCounters(base, base); len(moved) != 0 {
		t.Errorf("unchanged counters moved: %v", moved)
	}
}

// readCounters parses countersPath: '#' comment lines, one header line, then
// one line per query.
func readCounters() ([]queryCounters, error) {
	raw, err := os.ReadFile(countersPath)
	if err != nil {
		return nil, err
	}
	var out []queryCounters
	header := true
	for n, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != len(counterNames)+1 {
			return nil, fmt.Errorf("%s:%d: %d fields, want %d", countersPath, n+1, len(f), len(counterNames)+1)
		}
		if header {
			if strings.Join(f[1:], " ") != strings.Join(counterNames, " ") {
				return nil, fmt.Errorf("%s:%d: columns %v, want %v", countersPath, n+1, f[1:], counterNames)
			}
			header = false
			continue
		}
		q := queryCounters{query: f[0]}
		for _, s := range f[1:] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", countersPath, n+1, err)
			}
			q.vals = append(q.vals, v)
		}
		out = append(out, q)
	}
	return out, nil
}

// TestAllQueriesMatchReferenceUnderMemoryPressure is the same table on a
// cluster whose operators may hold 256 rows each: hash joins go through
// grace partitioning, aggregates and sorts through their spill runs, and
// the answers must not change. It is the only non-unit traffic that spills
// (scripts/deadcode.sh counts on it), so it also requires that spilling
// happened on a join query and on a DISTINCT, and that no worker kept a
// spill file.
func TestAllQueriesMatchReferenceUnderMemoryPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-H suite skipped in -short mode")
	}
	cases, _ := parityCases()
	c, d := loadedClusterMem(t, 4, 0.002, 256)
	if _, err := c.ExecSQL(`CREATE INDEX idx_supp ON supplier(s_suppkey)`); err != nil {
		t.Fatal(err)
	}
	prov := &plan.MemProvider{Cat: c.Catalog(), Rows: d.Tables()}
	joinSpills := 0
	for _, pc := range cases {
		_, m := requireParity(t, pc.name+", 256-row budget", pc, c, prov)
		if m.SpillBytes > 0 && strings.Contains(plan.Explain(pc.plan(t, c.Catalog())), "Join") {
			joinSpills++
		}
		if pc.name == "distinct-spills" && m.SpillBytes == 0 {
			t.Errorf("%s spilled nothing under a 256-row budget", pc.sql)
		}
	}
	if joinSpills == 0 {
		t.Error("no join query spilled under a 256-row budget: grace join is not being exercised")
	}
	for _, w := range c.Workers {
		left, err := os.ReadDir(filepath.Join(c.Cfg.BaseDir, fmt.Sprintf("tmp%d", w.ID)))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			t.Errorf("worker %d kept %d spill files, first %s", w.ID, len(left), left[0].Name())
		}
	}
}

// requireSameRows fails the test unless got and want hold the same rows,
// in any order.
func requireSameRows(t *testing.T, name string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: distributed %d rows, reference %d", name, len(got), len(want))
	}
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i := range want {
		g[i] = rowKey(got[i])
		w[i] = rowKey(want[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s row %d:\n got %s\nwant %s", name, i, g[i], w[i])
		}
	}
}

// TestAggregateColumnsHaveTheirKind: on 1 and on 4 workers, every non-NULL
// value in a result column an aggregate produces has the kind the plan
// declares for that column — whether the aggregate ran Complete or as
// Partial, Merge and Final. SUM of a FLOAT column is FLOAT even when every
// partial sum is integral (q1's sum_qty).
func TestAggregateColumnsHaveTheirKind(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-H suite skipped in -short mode")
	}
	for _, workers := range []int{1, 4} {
		c, _ := loadedCluster(t, workers, 0.002)
		checked := 0
		for _, qid := range QueryIDs() {
			sel, err := sqlparse.ParseSelect(Queries()[qid])
			if err != nil {
				t.Fatalf("%s parse: %v", qid, err)
			}
			node, err := c.Plan(sel)
			if err != nil {
				t.Fatalf("%s plan: %v", qid, err)
			}
			rows, _, err := c.RunMetered(node)
			if err != nil {
				t.Fatalf("%s: %v", qid, err)
			}
			for i, col := range node.Schema().Cols {
				if !aggregateColumn(node, i) {
					continue
				}
				for _, r := range rows {
					if v := r[i]; !v.IsNull() && v.K != col.Kind {
						t.Errorf("%s, %d workers: %s = %v is %v, its column is %v", qid, workers, col.Name, v, v.K, col.Kind)
						break
					}
				}
				checked++
			}
		}
		if checked < 20 {
			t.Errorf("%d workers: only %d aggregate columns checked", workers, checked)
		}
	}
}

// aggregateColumn reports whether column i of n's output is an aggregate's
// value, passed up unchanged through sorts, limits, filters and projections
// that reference it.
func aggregateColumn(n plan.Node, i int) bool {
	for {
		switch x := n.(type) {
		case *plan.Sort:
			n = x.Child
		case *plan.Limit:
			n = x.Child
		case *plan.Filter:
			n = x.Child
		case *plan.Project:
			c, ok := x.Exprs[i].(*expr.Col)
			if !ok {
				return false
			}
			n, i = x.Child, c.Index
		case *plan.Agg:
			return i >= len(x.GroupBy)
		default:
			return false
		}
	}
}

func TestQ1Shape(t *testing.T) {
	c, _ := loadedCluster(t, 2, 0.001)
	res, err := c.ExecSQL(Queries()["q1"])
	if err != nil {
		t.Fatal(err)
	}
	// Q1 groups by (returnflag, linestatus): at most 4 combinations exist
	// in dbgen data (A/F, N/F, N/O, R/F).
	if len(res.Rows) == 0 || len(res.Rows) > 4 {
		t.Fatalf("q1 groups = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[2].Float() <= 0 || r[9].Int() <= 0 {
			t.Errorf("q1 row with non-positive aggregates: %v", r)
		}
		// avg_qty must equal sum_qty / count.
		wantAvg := r[2].Float() / float64(r[9].Int())
		if diff := r[6].Float() - wantAvg; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("q1 avg inconsistent: %v vs %v", r[6].Float(), wantAvg)
		}
	}
}

func TestQ6SelectivityShape(t *testing.T) {
	c, d := loadedCluster(t, 2, 0.001)
	res, err := c.ExecSQL(Queries()["q6"])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("q6 rows = %d", len(res.Rows))
	}
	// Q6 filters a year + narrow discount band + quantity: must be a small
	// fraction of total lineitem revenue.
	var total float64
	for _, l := range d.Lineitem {
		total += l[5].Float() * l[6].Float()
	}
	if !res.Rows[0][0].IsNull() && res.Rows[0][0].Float() > total*0.2 {
		t.Errorf("q6 revenue %v suspiciously large vs %v", res.Rows[0][0].Float(), total)
	}
}

// TestColumnarTPCH runs scan-heavy queries against a COLUMNAR lineitem —
// the storage the paper used for both systems in the Q1 discussion.
func TestColumnarTPCH(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		NumWorkers: 3, BaseDir: t.TempDir(), PageSize: 16 * 1024,
		Nmax: 3, Profile: cluster.HRDBMSProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The schema DDL already makes the two scan-heavy tables COLUMNAR.
	for _, ddl := range DDL() {
		if !strings.Contains(ddl, "COLUMNAR") &&
			(strings.Contains(ddl, "CREATE TABLE lineitem") || strings.Contains(ddl, "CREATE TABLE orders")) {
			t.Fatal("lineitem/orders DDL lost the COLUMNAR storage clause")
		}
		if _, err := c.ExecSQL(ddl); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	d := Generate(0.001, 20260706)
	for tbl, rows := range d.Tables() {
		if _, err := c.Load(tbl, rows); err != nil {
			t.Fatalf("load %s: %v", tbl, err)
		}
	}
	prov := &plan.MemProvider{Cat: c.Catalog(), Rows: d.Tables()}
	for _, qid := range []string{"q1", "q3", "q6", "q12", "q18"} {
		sql := Queries()[qid]
		res, err := c.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s columnar: %v", qid, err)
		}
		sel, _ := sqlparse.ParseSelect(sql)
		node, err := plan.Build(sel, c.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		op, err := plan.Execute(node, prov, exec.NewCtx(t.TempDir(), 0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, qid+" columnar", res.Rows, want)
	}
}

// rowPredicateScans lists, by query, the one scan whose predicate is
// expected to take the row fallback, with its reason. Every other scan
// predicate of the 21 queries — comparisons, date ranges, BETWEEN, IN, LIKE,
// on columnar and row tables — has a vector kernel.
var rowPredicateScans = map[string]struct{ scan, why string }{
	"q22": {"Scan customer", "SUBSTRING(c_phone, 1, 2) IN (…): a function has no kernel"},
}

// TestAggregateFrontEnds pins which front end the workers' blocking
// operators are built with, and which input each worker join builds on, on a
// 4-worker cluster. q1 and q6 aggregate straight over the lineitem scan:
// every worker's partial aggregate must read typed batches (in=typed, a
// granted degree on the span) and no worker may box a row on the way; so
// must q22's average over the customer scan. A join is typed exactly when a
// table scan, columnar or row, is its probe, and an inner join
// builds on whichever input leaves a worker the smaller share (build=left
// when that is the planner's left): q12 and q9 probe with orders and with
// lineitem under four more joins (q9's part, broadcast as the join's right
// input, and q21's nation ⋈ supplier, its left, are built and probed by the
// lineitem scan where it lies; the supplier scan probes that nation join);
// q3's upper join, and q5's nation, customer, orders and lineitem joins,
// build on the smaller input below them and probe with the scan; q18's
// semi join filters orders before either inner join sees it, and its
// lineitem join then builds on the 30-odd rows left. A semi or anti
// join builds by the same rule and marks the left rows the probe matches:
// q21's semi and anti joins build on the ~200 l1 rows a worker keeps after
// the supplier join and probe with l2 and l3, q4's builds on its quarter of
// orders and q22's on the filtered customers, each probe a typed scan with
// no projection placed over it (the planner's projections there output
// their input unchanged). q7's joins run on the workers since its n1 × n2
// cross product does (each worker crosses the two replicated nation scans):
// the customer join builds on that pair and probes with the customer scan,
// the orders join builds on its result and probes with the orders scan, the
// lineitem join builds on the shuffled orders rows and probes with the
// lineitem scan, and the broadcast supplier is built on the right under a
// probe of joined rows. The workers box no more than the rows the filter
// and the table admitted plus the build sides, the rows of row tables read
// as rows included — under ceilings that q5 and q18 exceeded while lineitem
// was their build side (55,064 and 67,730), and q21, q4 and q22 while their
// semi and anti joins built on the right (120,500, 27,377 and 15,000). Every aggregate over a join reads rows.
// Every answer is plan.Execute's, whose operators all read rows and keep
// the planner's build side.
func TestAggregateFrontEnds(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-H suite skipped in -short mode")
	}
	// The aggregate cases stay at the scale the parity suites run at (past it
	// q1's float sums differ from plan.Execute's in the ninth digit); the join
	// ceilings are stated for SF0.01.
	t.Run("SF0.002", func(t *testing.T) {
		checkFrontEnds(t, 0.002, []frontEnds{
			{qid: "q1", typedAggs: 1},
			{qid: "q6", typedAggs: 1},
			{qid: "q3", rowAggs: 1, typedJoins: 2, leftBuilds: 1, typedLeftBuilds: 1, boxedMax: 500},
		})
	})
	t.Run("SF0.01", func(t *testing.T) {
		checkFrontEnds(t, 0.01, []frontEnds{
			{qid: "q12", rowAggs: 1, typedJoins: 1, leftBuilds: 0, boxedMax: 1000},
			{qid: "q9", rowAggs: 1, typedJoins: 1, rowJoins: 4, leftBuilds: 0, typedLeftBuilds: 0, boxedMax: 29500},
			{qid: "q5", rowAggs: 1, typedJoins: 4, rowJoins: 1, leftBuilds: 4, typedLeftBuilds: 4, boxedMax: 3000},
			{qid: "q18", typedAggs: 1, rowAggs: 1, typedJoins: 2, rowJoins: 1, leftBuilds: 1, typedLeftBuilds: 1, boxedMax: 3000},
			{qid: "q21", rowAggs: 1, typedJoins: 4, rowJoins: 1, leftBuilds: 5, typedLeftBuilds: 4, boxedMax: 47000},
			{qid: "q4", rowAggs: 1, typedJoins: 1, leftBuilds: 1, typedLeftBuilds: 1, boxedMax: 1700},
			{qid: "q22", typedAggs: 1, rowAggs: 1, typedJoins: 1, leftBuilds: 1, typedLeftBuilds: 1, boxedMax: 2550},
			{qid: "q7", rowAggs: 1, typedJoins: 3, rowJoins: 1, leftBuilds: 3, typedLeftBuilds: 3, boxedMax: 3000},
		})
	})
}

// frontEnds is what one query's trace must show on every worker.
type frontEnds struct {
	qid                  string
	typedAggs, rowAggs   int   // worker aggregates per worker, by front end
	typedJoins, rowJoins int   // worker joins per worker, by front end
	leftBuilds           int   // of those, the joins built on the planner's left input
	typedLeftBuilds      int   // of those, the ones whose probe is typed
	boxedMax             int64 // ceiling on RunMetrics.BoxedRows
}

func checkFrontEnds(t *testing.T, sf float64, cases []frontEnds) {
	c, d := loadedCluster(t, 4, sf)
	prov := &plan.MemProvider{Cat: c.Catalog(), Rows: d.Tables()}
	for _, q := range cases {
		qid := q.qid
		pc := pruneCase{name: qid, sql: Queries()[qid]}
		requireParity(t, qid, pc, c, prov)
		sel, err := sqlparse.ParseSelect(pc.sql)
		if err != nil {
			t.Fatal(err)
		}
		node, err := c.Plan(sel)
		if err != nil {
			t.Fatal(err)
		}
		_, m, tr, err := c.RunTraced(node, pc.sql)
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		spans := tr.Spans()
		typedScanUnder := map[int64]bool{} // by span id: a child is a columnar scan read as batches
		opOf := map[int64]string{}
		for _, sp := range spans {
			if sp.ColsTotal > 0 && sp.VecBatches > 0 && sp.Batches == 0 {
				typedScanUnder[sp.Parent] = true
			}
			opOf[sp.ID] = sp.Op
		}
		for _, sp := range spans {
			if strings.HasPrefix(sp.Op, "Scan ") && opOf[sp.Parent] == "Project" {
				t.Errorf("%s: a Project is placed over %s on node %d", qid, sp.Op, sp.Node)
			}
		}
		typedAggs, rowAggs, typedJoins, rowJoins, leftBuilds, typedLeftBuilds := 0, 0, 0, 0, 0, 0
		for _, sp := range spans {
			if sp.Node == c.Coords[0].ID {
				continue
			}
			switch {
			case strings.HasPrefix(sp.Op, "HashAgg"):
				if sp.In == "typed" {
					typedAggs++
				} else {
					rowAggs++
				}
				if sp.In == "" || sp.Workers < 1 {
					t.Errorf("%s: %s on node %d: in=%q workers=%d, want a front end and a degree", qid, sp.Op, sp.Node, sp.In, sp.Workers)
				}
			case sp.Op == "HashJoin":
				if sp.In == "typed" {
					typedJoins++
				} else {
					rowJoins++
				}
				if sp.BuildLeft {
					leftBuilds++
					if sp.In == "typed" {
						typedLeftBuilds++
					}
				}
				if (sp.In == "typed") != typedScanUnder[sp.ID] || sp.In == "" || sp.Workers < 1 {
					t.Errorf("%s: HashJoin on node %d: in=%q workers=%d, a columnar scan under it read as batches: %v",
						qid, sp.Node, sp.In, sp.Workers, typedScanUnder[sp.ID])
				}
			}
		}
		w := len(c.Workers)
		if typedAggs != q.typedAggs*w || rowAggs != q.rowAggs*w {
			t.Errorf("%s: %d worker aggregates in=typed and %d in=rows, want %d and %d on each of %d workers",
				qid, typedAggs, rowAggs, q.typedAggs, q.rowAggs, w)
		}
		if typedJoins != q.typedJoins*w || rowJoins != q.rowJoins*w || leftBuilds != q.leftBuilds*w || typedLeftBuilds != q.typedLeftBuilds*w {
			t.Errorf("%s: %d worker joins in=typed and %d in=rows, %d built on the left (%d typed); want %d, %d and %d (%d) on each of %d workers:\n%s",
				qid, typedJoins, rowJoins, leftBuilds, typedLeftBuilds, q.typedJoins, q.rowJoins, q.leftBuilds, q.typedLeftBuilds, w, tr.Render())
		}
		if m.BoxedRows > q.boxedMax {
			t.Errorf("%s: workers boxed %d rows, want at most %d", qid, m.BoxedRows, q.boxedMax)
		}
		if q.typedJoins > 0 && m.BoxedRows == 0 {
			t.Errorf("%s: BoxedRows = 0 though a typed join probe admitted rows — the counter is not wired", qid)
		}
		render := tr.Render()
		for in, n := range map[string]int{"typed": q.typedAggs, "rows": q.rowAggs} {
			if n > 0 && !strings.Contains(render, " in="+in+" workers=") {
				t.Errorf("%s: EXPLAIN ANALYZE does not show the aggregate's front end in=%s:\n%s", qid, in, render)
			}
		}
		if q.leftBuilds > 0 && !strings.Contains(render, " build=left in=") {
			t.Errorf("%s: EXPLAIN ANALYZE does not show which input built:\n%s", qid, render)
		}
	}
}

// TestScanPredicatesRunOnKernels runs the 21 queries on the 4-worker cluster
// and requires that no scan, columnar or row, evaluated its predicate row by
// row through expr.EvalBool but q22's customer scan: the fallback is for
// shapes without a kernel (CASE, functions), and a TPC-H scan that takes it
// silently pays boxing on every row of every page or page set it reads. The
// row-table scans of q2, q9, q16, q19 and q20, whose predicates hold LIKE,
// IN and BETWEEN over part and supplier (q9's and q16's LIKE over a boxed
// column), must each show pred=kernel.
func TestScanPredicatesRunOnKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-H suite skipped in -short mode")
	}
	c, _ := loadedCluster(t, 4, 0.002)
	kernelScans := 0
	rowTableKernels := map[string][]string{
		"q2": {"Scan part"}, "q9": {"Scan part"}, "q16": {"Scan part", "Scan supplier"}, "q19": {"Scan part"}, "q20": {"Scan part"},
	}
	for _, qid := range QueryIDs() {
		sql := Queries()[qid]
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		node, err := c.Plan(sel)
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		_, m, tr, err := c.RunTraced(node, sql)
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		onKernels := map[string]bool{}
		for _, sp := range tr.Spans() {
			if sp.PredKernel > 0 {
				kernelScans++
				onKernels[sp.Op] = true
			}
			if sp.PredRow > 0 {
				if want, ok := rowPredicateScans[qid]; ok && want.scan == sp.Op {
					t.Logf("%s: %s: %d pages or page sets on the row fallback (expected: %s)", qid, sp.Op, sp.PredRow, want.why)
					continue
				}
				t.Errorf("%s: %s evaluated its predicate row by row on %d pages or page sets", qid, sp.Op, sp.PredRow)
			}
		}
		if _, listed := rowPredicateScans[qid]; m.PredRowSets != 0 && !listed {
			t.Errorf("%s: RunMetrics.PredRowSets = %d, want 0", qid, m.PredRowSets)
		}
		for _, op := range rowTableKernels[qid] {
			if !onKernels[op] {
				t.Errorf("%s: %s shows no pred=kernel", qid, op)
			}
		}
	}
	if kernelScans == 0 {
		t.Fatal("no scan span reported a kernel-evaluated predicate — the counter is not wired")
	}
}
