package tpch

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// pruneCase is one plan shape projection pushdown must get right: as SQL,
// or, for shapes the builder never produces (it puts a Project or an Agg
// under every Sort), as a hand-built plan. scans maps a scan's alias (a
// second scan under the same alias is "alias#2", in plan order) to the
// columns it must emit after plan.PruneColumns: "*" for all of them
// (Cols == nil), "" for none.
type pruneCase struct {
	name  string
	sql   string
	build func(cat *catalog.Catalog) plan.Node
	scans map[string]string
	// explain, when set, must appear in the pruned plan's EXPLAIN text.
	explain string
}

func (pc pruneCase) plan(t testing.TB, cat *catalog.Catalog) plan.Node {
	t.Helper()
	if pc.build != nil {
		return pc.build(cat)
	}
	sel, err := sqlparse.ParseSelect(pc.sql)
	if err != nil {
		t.Fatalf("%s: parse: %v", pc.name, err)
	}
	node, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatalf("%s: build: %v", pc.name, err)
	}
	return node
}

func mustTable(cat *catalog.Catalog, name string) *catalog.TableDef {
	def, err := cat.Table(name)
	if err != nil {
		panic(err)
	}
	return def
}

// nationRegion is nation ⋈ region on the region key, both scans whole.
func nationRegion(cat *catalog.Catalog) *plan.Join {
	return &plan.Join{
		Left:      plan.NewScan(mustTable(cat, "nation"), "nation"),
		Right:     plan.NewScan(mustTable(cat, "region"), "region"),
		Type:      exec.JoinInner,
		EquiLeft:  []expr.Expr{&expr.Col{Index: 2, Name: "nation.n_regionkey"}},
		EquiRight: []expr.Expr{&expr.Col{Index: 0, Name: "region.r_regionkey"}},
	}
}

func pruneCases() []pruneCase {
	return []pruneCase{
		{name: "q1", sql: Queries()["q1"], scans: map[string]string{
			"lineitem": "l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus"}},
		{name: "q6", sql: Queries()["q6"], scans: map[string]string{
			"lineitem": "l_extendedprice, l_discount"}},
		{name: "q5", sql: Queries()["q5"], scans: map[string]string{
			"lineitem": "l_orderkey, l_suppkey, l_extendedprice, l_discount",
			"orders":   "o_orderkey, o_custkey",
			"nation":   "n_nationkey, n_name, n_regionkey"}},
		// A self-join: qualified references keep each alias's own columns,
		// and the SELECT * under each EXISTS shrinks to what the join uses.
		{name: "q21", sql: Queries()["q21"], scans: map[string]string{
			"l1": "l_orderkey, l_suppkey", "l2": "l_orderkey, l_suppkey", "l3": "l_orderkey, l_suppkey",
			"supplier": "s_suppkey, s_name, s_nationkey", "orders": "o_orderkey", "nation": "n_nationkey"}},
		{name: "select-star", sql: `SELECT * FROM nation, region WHERE n_regionkey = r_regionkey`,
			scans: map[string]string{"nation": "*", "region": "*"}},
		{name: "distinct-over-join-items", sql: `SELECT DISTINCT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey`,
			scans: map[string]string{"nation": "n_name, n_regionkey", "region": "r_regionkey, r_name"}},
		{name: "order-by-unselected", sql: `SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY r_name, n_name`,
			scans: map[string]string{"nation": "n_name, n_regionkey", "region": "r_regionkey, r_name"}},
		// Sort straight over a join: its keys are positions in a schema that
		// narrows under it (r_name $5 → $3, n_name $1 → $0).
		{name: "sort-over-unprojected-join", build: func(cat *catalog.Catalog) plan.Node {
			sorted := &plan.Sort{Child: nationRegion(cat), Keys: []plan.SortItem{{Col: 5}, {Col: 1, Desc: true}}}
			return plan.NewProject(sorted, []expr.Expr{&expr.Col{Index: 1, Name: "nation.n_name"}}, []string{"n_name"})
		}, scans: map[string]string{"nation": "n_name, n_regionkey", "region": "r_regionkey, r_name"},
			explain: "Sort [$3 asc, $0 desc]"},
		// A DISTINCT (a grouping by every column) straight over a join:
		// dropping any column would change which rows are duplicates, so
		// nothing under it is pruned.
		{name: "distinct-over-unprojected-join", build: func(cat *catalog.Catalog) plan.Node {
			j := nationRegion(cat)
			sch := j.Schema()
			groupBy := make([]expr.Expr, sch.Len())
			names := make([]string, sch.Len())
			for i, c := range sch.Cols {
				groupBy[i], names[i] = &expr.Col{Index: i, Name: c.Name}, c.Name
			}
			d := plan.NewAgg(j, groupBy, nil, names)
			return plan.NewProject(d, []expr.Expr{&expr.Col{Index: 5, Name: "region.r_name"}}, []string{"r_name"})
		}, scans: map[string]string{"nation": "*", "region": "*"}},
		{name: "semi-join-right", sql: `SELECT o_orderpriority FROM orders WHERE EXISTS (
				SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)`,
			scans: map[string]string{"orders": "o_orderkey, o_orderpriority", "lineitem": "l_orderkey"}},
		{name: "anti-join-right", sql: `SELECT c_name FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)`,
			scans: map[string]string{"customer": "c_custkey, c_name", "orders": "o_custkey"}},
		{name: "uncorrelated-exists", sql: `SELECT r_name FROM region WHERE EXISTS (SELECT * FROM nation WHERE n_name = 'PERU')`,
			scans: map[string]string{"region": "r_name", "nation": ""}},
		{name: "derived-table", sql: `SELECT x.a FROM (SELECT n_name AS a, n_comment AS b, n_regionkey AS c FROM nation) x WHERE x.c = 1`,
			scans: map[string]string{"nation": "n_name, n_regionkey"}, explain: "Project [nation.n_name, nation.n_regionkey]"},
		{name: "derived-aggregate", sql: `SELECT k FROM (SELECT o_custkey AS k, sum(o_totalprice) AS total, count(*) AS cnt
				FROM orders GROUP BY o_custkey) x WHERE total > 300000`,
			scans: map[string]string{"orders": "o_custkey, o_totalprice"}},
		{name: "scalar-subquery", sql: `SELECT s_name FROM supplier WHERE s_acctbal > (SELECT avg(s_acctbal) FROM supplier)`,
			scans: map[string]string{"supplier": "s_name, s_acctbal", "supplier#2": "s_acctbal"}},
		{name: "count-star", sql: `SELECT count(*) FROM lineitem`, scans: map[string]string{"lineitem": ""}},
		{name: "count-star-filtered", sql: `SELECT count(*) FROM orders WHERE o_orderstatus = 'F'`,
			scans: map[string]string{"orders": ""}},
		{name: "count-star-cross-join", sql: `SELECT count(*) FROM nation, region`,
			scans: map[string]string{"nation": "", "region": ""}},
		// A sort with no aggregate under it sorts every lineitem row: the one
		// shape whose sort workers spill runs under a small row budget.
		{name: "order-by-unaggregated", sql: `SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice, l_orderkey`,
			scans: map[string]string{"lineitem": "l_orderkey, l_extendedprice"}},
		// Two items under one output name: each group key is its own item,
		// so rows that differ only in the second are still two rows.
		{name: "distinct-shared-name", sql: `SELECT DISTINCT n_regionkey AS k, n_nationkey AS k FROM nation`,
			scans: map[string]string{"nation": "n_nationkey, n_regionkey"}},
		// The same under a sort by an unselected column: the trim above the
		// sort binds each item by name.
		{name: "shared-name-order-by-unselected", sql: `SELECT n_regionkey AS k, n_nationkey AS k FROM nation ORDER BY n_name`,
			scans: map[string]string{"nation": "n_nationkey, n_name, n_regionkey"}},
		// DISTINCT over a partitioned table is a grouping by every column.
		{name: "distinct-partitioned", sql: `SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem`,
			scans: map[string]string{"lineitem": "l_returnflag, l_linestatus"}},
		// A DISTINCT of about as many rows as it reads: under a small row
		// budget its groups spill (TestAllQueriesMatchReferenceUnderMemoryPressure).
		{name: "distinct-spills", sql: `SELECT DISTINCT l_orderkey, l_suppkey FROM lineitem`,
			scans: map[string]string{"lineitem": "l_orderkey, l_suppkey"}},
		// Reads through the supplier index: the fetched rows narrow too.
		{name: "index-scan", sql: `SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = 7`,
			scans: map[string]string{"supplier": "s_name, s_acctbal"}},
	}
}

// scanCols records alias → emitted columns for every scan of the plan and,
// after the node they belong to, of the scalar subquery plans inside its
// predicates.
func scanCols(n plan.Node, out map[string]string) {
	subplans := func(e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) {
			if s, ok := x.(*plan.ScalarSubquery); ok {
				scanCols(s.Plan, out)
			}
		})
	}
	switch x := n.(type) {
	case *plan.Scan:
		key := x.Alias
		for i := 2; ; i++ {
			if _, dup := out[key]; !dup {
				break
			}
			key = fmt.Sprintf("%s#%d", x.Alias, i)
		}
		if x.Cols == nil {
			out[key] = "*"
		} else {
			names := make([]string, len(x.Cols))
			for i, c := range x.Cols {
				names[i] = x.Table.Schema.Cols[c].Name
			}
			out[key] = strings.Join(names, ", ")
		}
		subplans(x.Pred)
	}
	for _, c := range n.Children() {
		scanCols(c, out)
	}
	if f, ok := n.(*plan.Filter); ok {
		subplans(f.Pred)
	}
}

// TestPruneColumns pins the exact columns each scan emits after projection
// pushdown, on the shapes where the required-columns pass has a decision to
// make. It runs plan.PruneColumns on plan.Build's output — no optimizer, so
// no statistics are involved.
func TestPruneColumns(t *testing.T) {
	c, err := cluster.New(cluster.Config{NumWorkers: 1, BaseDir: t.TempDir(), PageSize: 16 * 1024, Nmax: 3, Profile: cluster.HRDBMSProfile()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, ddl := range DDL() {
		if _, err := c.ExecSQL(ddl); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	for _, pc := range pruneCases() {
		t.Run(pc.name, func(t *testing.T) {
			node := pc.plan(t, c.Catalog())
			if err := plan.PruneColumns(node); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			scanCols(node, got)
			for alias, want := range pc.scans {
				if cols, ok := got[alias]; !ok || cols != want {
					t.Errorf("scan %s emits [%s], want [%s]\n%s", alias, cols, want, plan.Explain(node))
				}
			}
			if pc.explain != "" && !strings.Contains(plan.Explain(node), pc.explain) {
				t.Errorf("pruned plan lacks %q:\n%s", pc.explain, plan.Explain(node))
			}
			// Pruning again finds nothing more to remove.
			before := plan.Explain(node)
			if err := plan.PruneColumns(node); err != nil {
				t.Fatal(err)
			}
			if after := plan.Explain(node); after != before {
				t.Errorf("second pruning changed the plan:\n%s\nto:\n%s", before, after)
			}
		})
	}
}
