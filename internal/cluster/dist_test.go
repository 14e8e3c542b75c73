package cluster

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

func schemaOf(names ...string) types.Schema {
	cols := make([]types.Column, len(names))
	for i, n := range names {
		cols[i] = types.Column{Name: n, Kind: types.KindInt}
	}
	return types.Schema{Cols: cols}
}

// TestPrunedPartitionColumnIsNotColocation: projection pushdown can remove
// the column a table is partitioned on from the stream that scans it. Such
// a stream must never be taken for co-located on some other column that
// merely shares the pruned one's bare name, as a suffix match of names
// would conclude.
func TestPrunedPartitionColumnIsNotColocation(t *testing.T) {
	c, _ := newCluster(t, 2, HRDBMSProfile())
	q := c.newQueryExec(c.Coords[0], nil)
	def, err := c.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}

	// At the source: a scan that does not emit its partition column is
	// spread at random as far as anything above it can tell.
	whole := plan.NewScan(def, "l1")
	if d := q.scanDist(whole); d.Kind != opt.DistPartitioned || len(d.Cols) != 1 || d.Cols[0] != "l1.l_orderkey" {
		t.Fatalf("whole scan: dist %+v, want partitioned on l1.l_orderkey", d)
	}
	pruned := plan.NewScan(def, "l1")
	pruned.Cols = []int{1, 2} // l_partkey, l_quantity
	if d := q.scanDist(pruned); d.Kind != opt.DistRandom {
		t.Fatalf("scan without its partition column: dist %+v, want random", d)
	}

	// And should a distribution ever name a column its stream does not
	// carry, no lookup may resolve it to another one. The stream below is
	// partitioned on l1.l_orderkey, which it lacks; it has a bare l_orderkey
	// (a projection's output, different values) and l2's.
	stale := opt.DistInfo{Kind: opt.DistPartitioned, Cols: []string{"l1.l_orderkey"}}
	sch := schemaOf("l_orderkey", "l2.l_orderkey", "l1.l_partkey")
	for i, name := range []string{"l_orderkey", "l2.l_orderkey"} {
		req, ok := keyNames([]expr.Expr{&expr.Col{Index: i, Name: name}}, sch)
		if !ok || req[0] != name {
			t.Fatalf("keyNames(%s) = %v, %v", name, req, ok)
		}
		if stale.PartitionedOn(req) {
			t.Errorf("PartitionedOn: stream partitioned on the pruned l1.l_orderkey taken as partitioned on %s", name)
		}
		if coveredBy(stale, req) {
			t.Errorf("coveredBy: pruned l1.l_orderkey taken as covered by group column %s", name)
		}
	}
	child := plan.NewProject(whole, []expr.Expr{&expr.Col{Index: 1, Name: "l1.l_partkey"}}, []string{"l_orderkey"})
	passthrough := plan.NewProject(child, []expr.Expr{&expr.Col{Index: 0, Name: "l_orderkey"}}, []string{"k"})
	if d := projectDist(stale, passthrough); d.Kind != opt.DistRandom {
		t.Errorf("projectDist: pruned l1.l_orderkey followed through a projection of another column: %+v", d)
	}
	if cols := mapColsByPosition(stale.Cols, sch, schemaOf("a", "b", "c")); cols != nil {
		t.Errorf("mapColsByPosition: pruned l1.l_orderkey renamed to %v", cols)
	}

	// A key spelled differently from the schema still matches the column it
	// is bound to: names are compared as the schema has them.
	live := opt.DistInfo{Kind: opt.DistPartitioned, Cols: []string{"l2.l_orderkey"}}
	req, _ := keyNames([]expr.Expr{&expr.Col{Index: 1, Name: "L2.L_ORDERKEY"}}, sch)
	if !live.PartitionedOn(req) || !coveredBy(live, append(req, "l1.l_partkey")) {
		t.Errorf("live partition column not recognised under the schema's name %v", req)
	}
}

// TestToCoord: toCoord is the one way a stream reaches the coordinator. A
// stream already there is returned as it is and opens no channel; a
// replicated one is read from worker 0 alone, since every worker holds all
// of it; any other is gathered from every worker.
func TestToCoord(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	q := c.newQueryExec(c.Coords[0], nil)
	defer q.releaseWhenQuiet()
	sch := schemaOf("w")
	// Worker wi's operator yields the one row wi.
	onWorkers := func(d opt.DistInfo) *dstream {
		ds := &dstream{sch: sch, dist: d}
		for wi := range c.Workers {
			ds.ops = append(ds.ops, exec.NewSource(sch, []types.Row{{types.NewInt(int64(wi))}}))
		}
		return ds
	}
	readFrom := func(ds *dstream) []int64 {
		t.Helper()
		out := q.toCoord(ds)
		if !out.coord || len(out.ops) != 1 {
			t.Fatalf("toCoord returned %d operators, coord=%v", len(out.ops), out.coord)
		}
		rows, err := exec.Collect(out.ops[0])
		if err != nil {
			t.Fatal(err)
		}
		var ws []int64
		for _, r := range rows {
			ws = append(ws, r[0].Int())
		}
		slices.Sort(ws)
		return ws
	}

	src := exec.NewSource(sch, []types.Row{{types.NewInt(7)}})
	there := onCoord(src, sch)
	xseq := q.xseq
	if got := q.toCoord(there); got != there || got.ops[0] != src || q.xseq != xseq {
		t.Errorf("coordinator stream: toCoord made a new stream or opened %d channels", q.xseq-xseq)
	}
	if got := readFrom(onWorkers(opt.DistInfo{Kind: opt.DistReplicated})); !slices.Equal(got, []int64{0}) {
		t.Errorf("replicated stream: read the rows of workers %v, want worker 0's alone", got)
	}
	partitioned := opt.DistInfo{Kind: opt.DistPartitioned, Cols: []string{"w"}}
	if got := readFrom(onWorkers(partitioned)); !slices.Equal(got, []int64{0, 1, 2}) {
		t.Errorf("partitioned stream: read the rows of workers %v, want all three", got)
	}
}

// TestGroupByColumnNamedLikePrunedPartitionColumn runs the shape end to end:
// lineitem is partitioned on l_orderkey, the query never reads it, and
// groups by another column renamed to l_orderkey. Grouping locally as if
// co-located would split groups across workers.
func TestGroupByColumnNamedLikePrunedPartitionColumn(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT x.l_orderkey, count(*), sum(x.q) FROM (SELECT l_partkey AS l_orderkey, l_quantity AS q FROM lineitem) x
		 GROUP BY x.l_orderkey`, false)
	checkAgainstReference(t, c, data,
		`SELECT l_partkey, count(*) FROM lineitem, orders WHERE l_partkey = o_custkey GROUP BY l_partkey`, false)
}

// tpchCluster is 4 workers holding TPC-H at SF0.01.
func tpchCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{NumWorkers: 4, BaseDir: t.TempDir(), PageSize: 32 * 1024, Nmax: 3, Profile: HRDBMSProfile()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, ddl := range tpch.DDL() {
		if _, err := c.ExecSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for tbl, rows := range tpch.Generate(0.01, 20260706).Tables() {
		if _, err := c.Load(tbl, rows); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestRepeatedKeyColumnsSpreadTheShuffle: q9's last join equates
// (l_suppkey, l_partkey, p_partkey, s_suppkey) with (ps_suppkey, ps_partkey,
// ps_partkey, ps_suppkey), so each partsupp column enters the shuffle key
// twice. The key hash must still spread the rows: both of the join's
// shuffles deliver rows to every worker.
func TestRepeatedKeyColumnsSpreadTheShuffle(t *testing.T) {
	c := tpchCluster(t)
	sql := tpch.Queries()["q9"]
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	node, err := c.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	_, _, tr, err := c.RunTraced(node, sql)
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byID := map[int64]obs.SpanSnapshot{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	// The last join is the one on each worker with no join above it.
	top := map[int64]bool{}
	for _, sp := range spans {
		if sp.Op != "HashJoin" {
			continue
		}
		under := false
		for p := sp.Parent; p != 0 && !under; p = byID[p].Parent {
			under = byID[p].Op == "HashJoin"
		}
		top[sp.ID] = !under
	}
	shuffles := map[int]int{} // by node: the last join's shuffles that delivered rows
	for _, sp := range spans {
		if sp.Op == "Shuffle" && top[sp.Parent] && sp.RowsOut > 0 {
			shuffles[sp.Node]++
		}
	}
	for _, w := range c.Workers {
		if shuffles[w.ID] != 2 {
			t.Errorf("node %d: %d of the last join's two shuffles delivered rows:\n%s", w.ID, shuffles[w.ID], tr.Render())
			break
		}
	}
}

// TestSmallPlacedLeftInputIsBroadcast: a join whose left input is small and
// already placed on its key, and whose right is not, replicates the left and
// leaves the right where it lies — supplier ⋈ lineitem broadcasts the
// supplier scan and shuffles no lineitem. A semi or anti join of the same
// shape emits its left rows, so it never replicates them: it shuffles.
func TestSmallPlacedLeftInputIsBroadcast(t *testing.T) {
	c := tpchCluster(t)
	explain := func(sql string) string {
		t.Helper()
		res, err := c.ExecSQL("EXPLAIN ANALYZE " + sql)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, r := range res.Rows {
			lines = append(lines, r[0].S)
		}
		return strings.Join(lines, "\n")
	}
	// under reports whether a line naming op has a line naming child right
	// below it, one level deeper.
	under := func(out, op, child string) bool {
		lines := strings.Split(out, "\n")
		depth := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
		for i := 0; i+1 < len(lines); i++ {
			if strings.Contains(lines[i], op) && strings.Contains(lines[i+1], child) && depth(lines[i+1]) > depth(lines[i]) {
				return true
			}
		}
		return false
	}
	out := explain("SELECT count(*) FROM supplier, lineitem WHERE s_suppkey = l_suppkey")
	if !under(out, "Broadcast", "Scan supplier") || strings.Contains(out, "Shuffle") {
		t.Errorf("supplier ⋈ lineitem: want a Broadcast over the supplier scan and no Shuffle:\n%s", out)
	}
	for _, not := range []string{"", "NOT "} {
		sql := "SELECT count(*) FROM supplier WHERE " + not +
			"EXISTS (SELECT * FROM lineitem WHERE l_suppkey = s_suppkey AND l_quantity > 49)"
		out := explain(sql)
		if strings.Contains(out, "Broadcast") || !strings.Contains(out, "Shuffle") {
			t.Errorf("%s: want the lineitem side shuffled and nothing broadcast:\n%s", sql, out)
		}
	}
}

// TestNoKeyJoinsMatchReference: a join with no equality keys runs on the
// workers once an input is replicated — each worker crosses its share of the
// other input, or a second replica, with the replica — and answers as the
// single-node reference does at 1, 3 and 4 workers. Two replicated inputs
// give a replicated result, which a count, a DISTINCT and a top-k must each
// read once: from one worker, whose join is then the only one in the trace.
// A semi join whose left input is replicated and whose right is
// partitioned still runs on the coordinator: on the workers each would
// emit its replica's rows that match its own share of the right.
func TestNoKeyJoinsMatchReference(t *testing.T) {
	cases := []struct {
		sql     string
		left    string // the table the no-key join's left input scans
		ordered bool
		onCoord bool // the join runs on the coordinator
		readOne bool // both inputs are replicated: one worker's join runs
	}{
		{sql: `SELECT count(*) FROM nation n1, nation n2 WHERE n1.n_nationkey < n2.n_nationkey`, left: "n", ordered: true, readOne: true},
		{sql: `SELECT DISTINCT n1.n_name FROM nation n1, nation n2 WHERE n1.n_nationkey <> n2.n_nationkey`, left: "n", readOne: true},
		{sql: `SELECT n1.n_name, n2.n_name FROM nation n1, nation n2 WHERE n1.n_nationkey < n2.n_nationkey
			ORDER BY n2.n_name DESC, n1.n_name LIMIT 2`, left: "n", ordered: true, readOne: true},
		{sql: `SELECT n1.n_name, n2.n_name FROM nation n1, nation n2 WHERE n1.n_nationkey <> n2.n_nationkey`, left: "n", readOne: true},
		{sql: `SELECT c_name, n_name FROM customer, nation WHERE c_nationkey < n_nationkey`, left: "customer"},
		{sql: `SELECT n_name, c_name FROM nation, customer WHERE n_nationkey > c_nationkey AND c_acctbal > 0`, left: "nation"},
		{sql: `SELECT count(*) FROM customer WHERE EXISTS (SELECT * FROM nation WHERE n_nationkey > c_nationkey)`,
			left: "customer", ordered: true},
		{sql: `SELECT c_name FROM customer WHERE NOT EXISTS (SELECT * FROM nation WHERE n_nationkey > c_nationkey)`,
			left: "customer"},
		{sql: `SELECT n_name FROM nation WHERE EXISTS (SELECT * FROM customer WHERE c_nationkey > n_nationkey)`,
			left: "nation", onCoord: true},
	}
	for _, workers := range []int{1, 3, 4} {
		c, data := newCluster(t, workers, HRDBMSProfile())
		for _, tc := range cases {
			checkAgainstReference(t, c, data, tc.sql, tc.ordered)
			sel, err := sqlparse.ParseSelect(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			node, err := c.Plan(sel)
			if err != nil {
				t.Fatal(err)
			}
			j := noKeyJoin(node)
			if j == nil || !strings.HasPrefix(j.Left.Schema().Cols[0].Name, tc.left) {
				t.Fatalf("%s: want a join with no equality keys over a left input scanning %s:\n%s", tc.sql, tc.left, plan.Explain(node))
			}
			_, _, tr, err := c.RunTraced(node, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			coord, onWorkers, wantOnWorkers := 0, 0, workers
			if tc.readOne {
				wantOnWorkers = 1
			}
			for _, sp := range tr.Spans() {
				switch {
				case sp.Op != "NestedLoopJoin":
				case sp.Node == c.Coords[0].ID:
					coord++
				default:
					onWorkers++
				}
			}
			if tc.onCoord && (coord != 1 || onWorkers != 0) || !tc.onCoord && (coord != 0 || onWorkers != wantOnWorkers) {
				t.Errorf("%d workers, %s: %d nested-loop joins on the coordinator and %d on the workers, want them on the coordinator: %v\n%s",
					workers, tc.sql, coord, onWorkers, tc.onCoord, tr.Render())
			}
		}
	}
}

// noKeyJoin returns the first join with no equality keys in plan n.
func noKeyJoin(n plan.Node) *plan.Join {
	if j, ok := n.(*plan.Join); ok && len(j.EquiLeft) == 0 {
		return j
	}
	for _, ch := range n.Children() {
		if j := noKeyJoin(ch); j != nil {
			return j
		}
	}
	return nil
}
