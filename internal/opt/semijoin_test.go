package opt

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

// semiCat is a catalog shaped like TPC-H at SF0.01 where the semi join
// pushdown decides: orders (15,000 rows) joined to lineitem on the order key
// multiplies each order by four; supplier (100) joined to the one nation
// named 'CANADA' keeps one in 25. Its rows are few, for the tests that run
// a plan; a third of the orders have a NULL customer key.
func semiCat(t *testing.T) (*catalog.Catalog, *plan.MemProvider) {
	t.Helper()
	cat := catalog.New()
	add := func(name string, cols []string, kinds []types.Kind, rows int64, ndv ...int64) {
		addTable(t, cat, name, cols, kinds, rows, ndv...)
	}
	ints := []types.Kind{types.KindInt, types.KindInt}
	add("orders", []string{"o_orderkey", "o_custkey"}, ints, 15000, 15000, 1000)
	add("lineitem", []string{"l_orderkey", "l_quantity"}, ints, 60000, 15000, 50)
	add("customer", []string{"c_custkey", "c_acctbal"}, ints, 1500, 1500, 1000)
	add("supplier", []string{"s_suppkey", "s_nationkey"}, ints, 100, 100, 25)
	add("nation", []string{"n_nationkey", "n_name"}, []types.Kind{types.KindInt, types.KindString}, 25, 25, 25)
	add("partsupp", []string{"ps_partkey", "ps_suppkey"}, ints, 8000, 2000, 100)

	i := func(v int64) types.Value { return types.NewInt(v) }
	prov := &plan.MemProvider{Cat: cat, Rows: map[string][]types.Row{}}
	for k := int64(0); k < 30; k++ {
		cust := i(k % 7)
		if k%3 == 0 {
			cust = types.Null
		}
		prov.Rows["orders"] = append(prov.Rows["orders"], types.Row{i(k), cust})
		for l := int64(0); l < k%4; l++ {
			prov.Rows["lineitem"] = append(prov.Rows["lineitem"], types.Row{i(k), i(l + 1)})
		}
	}
	for k := int64(0); k < 5; k++ {
		prov.Rows["customer"] = append(prov.Rows["customer"], types.Row{i(k), i(10 * k)})
	}
	return cat, prov
}

// addTable creates a table hash-partitioned on its first column, with
// rows rows and exact distinct counts for its first len(ndv) columns.
func addTable(t *testing.T, cat *catalog.Catalog, name string, cols []string, kinds []types.Kind, rows int64, ndv ...int64) {
	t.Helper()
	sch := types.Schema{}
	for i, c := range cols {
		sch.Cols = append(sch.Cols, types.Column{Name: c, Kind: kinds[i]})
	}
	def := &catalog.TableDef{Name: name, Schema: sch,
		Part: catalog.Partitioning{Kind: catalog.PartHash, Cols: cols[:1]}}
	if err := cat.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	stats := &catalog.TableStats{RowCount: rows, Cols: map[string]*catalog.ColumnStats{}}
	for i, n := range ndv {
		stats.Cols[cols[i]] = &catalog.ColumnStats{NDV: n, NDVExact: true}
	}
	cat.SetStats(name, stats)
}

// buildSQL plans sql as written.
func buildSQL(t *testing.T, cat *catalog.Catalog, sql string) plan.Node {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// optimizeSQL plans sql as written and as OptimizeOpts rewrites it.
func optimizeSQL(t *testing.T, cat *catalog.Catalog, sql string) (built, optimized plan.Node) {
	t.Helper()
	optimized, err := OptimizeOpts(buildSQL(t, cat, sql), cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireTree(t, optimized)
	return buildSQL(t, cat, sql), optimized
}

// requireTree fails if any node of the plan is reachable by two paths.
func requireTree(t *testing.T, n plan.Node) {
	t.Helper()
	seen := map[plan.Node]bool{}
	plan.Walk(n, func(m plan.Node) {
		if seen[m] {
			t.Fatalf("%s is reachable twice:\n%s", m.Describe(), plan.Explain(n))
		}
		seen[m] = true
	})
}

// executeRows runs a plan over the provider's rows.
func executeRows(t *testing.T, prov *plan.MemProvider, n plan.Node) []types.Row {
	t.Helper()
	op, err := plan.Execute(n, prov, exec.NewCtx(t.TempDir(), 0))
	if err != nil {
		t.Fatalf("%v\n%s", err, plan.Explain(n))
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// requireSameRows fails unless got holds exactly want's rows, as multisets.
func requireSameRows(t *testing.T, want, got []types.Row, optimized plan.Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rewritten plan returns %d rows, want %d\n%s", len(got), len(want), plan.Explain(optimized))
	}
	count := map[string]int{}
	for _, r := range want {
		count[r.String()]++
	}
	for _, r := range got {
		if count[r.String()]--; count[r.String()] < 0 {
			t.Fatalf("rewritten plan returns %v more often than the plan as written\n%s", r, plan.Explain(optimized))
		}
	}
}

// semiJoinOf returns the plan's one semi or anti join.
func semiJoinOf(t *testing.T, n plan.Node) *plan.Join {
	t.Helper()
	var found *plan.Join
	plan.Walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok && j.Type != exec.JoinInner {
			if found != nil {
				t.Fatalf("more than one semi or anti join:\n%s", plan.Explain(n))
			}
			found = j
		}
	})
	if found == nil {
		t.Fatalf("no semi or anti join:\n%s", plan.Explain(n))
	}
	return found
}

// requirePushed fails unless the plan's semi or anti join filters the scan
// of table, and requirePushed(…, "") unless it still sits over an inner join.
func requirePushed(t *testing.T, n plan.Node, table string) {
	t.Helper()
	j := semiJoinOf(t, n)
	if table == "" {
		if in, ok := j.Left.(*plan.Join); !ok || in.Type != exec.JoinInner {
			t.Fatalf("%s moved below the inner join under it:\n%s", j.Type, plan.Explain(n))
		}
		return
	}
	if s, ok := j.Left.(*plan.Scan); !ok || s.Table.Name != table {
		t.Fatalf("%s does not filter the %s scan:\n%s", j.Type, table, plan.Explain(n))
	}
}

// TestSemiJoinPushdownQ18: q18's IN (… HAVING sum(…) > …) over orders ⋈
// customer ⋈ lineitem moves below both inner joins onto the orders scan.
func TestSemiJoinPushdownQ18(t *testing.T) {
	cat, _ := semiCat(t)
	_, optimized := optimizeSQL(t, cat, `SELECT c_custkey, o_orderkey, sum(l_quantity)
		FROM customer, orders, lineitem
		WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 300)
		AND c_custkey = o_custkey AND o_orderkey = l_orderkey
		GROUP BY c_custkey, o_orderkey`)
	requirePushed(t, optimized, "orders")
}

// TestSemiJoinPushdownDeclinesSelectiveJoin: under q20's semi join, supplier
// ⋈ nation = 'CANADA' keeps one supplier in 25, so the semi join tests fewer
// rows where it is.
func TestSemiJoinPushdownDeclinesSelectiveJoin(t *testing.T) {
	cat, _ := semiCat(t)
	_, optimized := optimizeSQL(t, cat, `SELECT s_suppkey FROM supplier, nation
		WHERE s_nationkey = n_nationkey AND n_name = 'CANADA'
		AND s_suppkey IN (SELECT ps_suppkey FROM partsupp)`)
	requirePushed(t, optimized, "")
}

// TestSemiJoinPushdownDeclinesColumnOfBothInputs: in a self-join both inputs
// carry a column the bare name o_orderkey finds, so the semi join could
// rebind to the other copy; it stays.
func TestSemiJoinPushdownDeclinesColumnOfBothInputs(t *testing.T) {
	cat, _ := semiCat(t)
	_, optimized := optimizeSQL(t, cat, `SELECT o1.o_custkey FROM orders o1, orders o2
		WHERE o1.o_custkey = o2.o_custkey
		AND o_orderkey IN (SELECT l_orderkey FROM lineitem)`)
	requirePushed(t, optimized, "")
}

// TestSemiJoinPushdownDeclinesResidualOverBothInputs: the EXISTS residual
// reads lineitem's l_quantity beside the orders key, so no single input of
// the orders ⋈ lineitem join binds the semi join's probe side.
func TestSemiJoinPushdownDeclinesResidualOverBothInputs(t *testing.T) {
	cat, _ := semiCat(t)
	_, optimized := optimizeSQL(t, cat, `SELECT o_orderkey FROM orders, lineitem
		WHERE o_orderkey = l_orderkey
		AND EXISTS (SELECT * FROM customer WHERE c_custkey = o_custkey AND c_acctbal > l_quantity)`)
	requirePushed(t, optimized, "")
}

// TestAntiJoinPushdownKeepsNullProbeKeys: NOT EXISTS over orders ⋈ lineitem
// moves onto the orders scan, and the orders whose customer key is NULL —
// which match no customer, so the anti join keeps them — come out exactly as
// plan.Execute of the plan as written returns them.
func TestAntiJoinPushdownKeepsNullProbeKeys(t *testing.T) {
	cat, prov := semiCat(t)
	built, optimized := optimizeSQL(t, cat, `SELECT o_orderkey, o_custkey, l_quantity FROM orders, lineitem
		WHERE o_orderkey = l_orderkey
		AND NOT EXISTS (SELECT * FROM customer WHERE c_custkey = o_custkey)`)
	requirePushed(t, optimized, "orders")
	want, got := executeRows(t, prov, built), executeRows(t, prov, optimized)
	nulls := 0
	for _, r := range want {
		if r[1].IsNull() {
			nulls++
		}
	}
	if nulls == 0 || nulls == len(want) {
		t.Fatalf("%d of %d rows have a NULL probe key — the case tests nothing", nulls, len(want))
	}
	requireSameRows(t, want, got, optimized)
}
