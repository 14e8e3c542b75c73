package opt

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

func testCat(t *testing.T) (*catalog.Catalog, *plan.MemProvider) {
	t.Helper()
	cat := catalog.New()
	add := func(name string, cols []types.Column, rows int64, ndv map[string]int64) {
		def := &catalog.TableDef{
			Name:   name,
			Schema: types.Schema{Cols: cols},
			Part:   catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{cols[0].Name}},
		}
		if err := cat.CreateTable(def); err != nil {
			t.Fatal(err)
		}
		stats := &catalog.TableStats{RowCount: rows, Cols: map[string]*catalog.ColumnStats{}}
		for col, n := range ndv {
			// Hand-authored test stats are declared exact so uniqueness
			// proofs (NDV == row count) keep working.
			stats.Cols[col] = &catalog.ColumnStats{NDV: n, NDVExact: true}
		}
		cat.SetStats(name, stats)
	}
	add("big", []types.Column{
		{Name: "b_key", Kind: types.KindInt}, {Name: "b_fk", Kind: types.KindInt},
	}, 1000000, map[string]int64{"b_key": 1000000, "b_fk": 1000})
	add("mid", []types.Column{
		{Name: "m_key", Kind: types.KindInt}, {Name: "m_fk", Kind: types.KindInt},
	}, 10000, map[string]int64{"m_key": 10000, "m_fk": 100})
	add("small", []types.Column{
		{Name: "s_key", Kind: types.KindInt}, {Name: "s_val", Kind: types.KindString},
	}, 100, map[string]int64{"s_key": 100})

	prov := &plan.MemProvider{Cat: cat, Rows: map[string][]types.Row{}}
	for i := int64(0); i < 60; i++ {
		prov.Rows["big"] = append(prov.Rows["big"], types.Row{types.NewInt(i), types.NewInt(i % 10)})
	}
	for i := int64(0); i < 20; i++ {
		prov.Rows["mid"] = append(prov.Rows["mid"], types.Row{types.NewInt(i), types.NewInt(i % 5)})
	}
	for i := int64(0); i < 5; i++ {
		prov.Rows["small"] = append(prov.Rows["small"], types.Row{types.NewInt(i), types.NewString("v")})
	}
	return cat, prov
}

func TestEstimatorScan(t *testing.T) {
	cat, _ := testCat(t)
	est := &Estimator{Cat: cat}
	sel, _ := sqlparse.ParseSelect("SELECT b_key FROM big")
	node, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Walk to the scan.
	var scan plan.Node
	plan.Walk(node, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			scan = s
		}
	})
	if got := est.Estimate(scan); got != 1000000 {
		t.Errorf("scan estimate = %v", got)
	}
	// Filter reduces the estimate.
	sel2, _ := sqlparse.ParseSelect("SELECT b_key FROM big WHERE b_key = 5")
	node2, _ := plan.Build(sel2, cat)
	var scan2 plan.Node
	plan.Walk(node2, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			scan2 = s
		}
	})
	got := est.Estimate(scan2)
	if got > 2 { // 1e6 / NDV(1e6) = 1
		t.Errorf("eq estimate = %v, want ~1", got)
	}
}

func TestEstimatorJoinAndAgg(t *testing.T) {
	cat, _ := testCat(t)
	est := &Estimator{Cat: cat}
	sel, _ := sqlparse.ParseSelect(
		"SELECT m_fk, count(*) FROM big, mid WHERE b_fk = m_key GROUP BY m_fk")
	node, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	var agg, join plan.Node
	plan.Walk(node, func(n plan.Node) {
		switch n.(type) {
		case *plan.Agg:
			agg = n
		case *plan.Join:
			join = n
		}
	})
	jc := est.Estimate(join)
	// |big|*|mid| / max(NDV(b_fk), NDV(m_key)) = 1e6*1e4/1e4 = 1e6.
	if jc < 1e5 || jc > 1e7 {
		t.Errorf("join estimate = %v", jc)
	}
	ac := est.Estimate(agg)
	if ac > 200 { // NDV(m_fk) = 100
		t.Errorf("agg estimate = %v", ac)
	}
}

func TestOptimizePreservesResults(t *testing.T) {
	cat, prov := testCat(t)
	// A 3-way join written in the worst order (big first).
	sql := `SELECT small.s_key, count(*) AS c
		FROM big, mid, small
		WHERE big.b_fk = mid.m_key AND mid.m_fk = small.s_key
		GROUP BY small.s_key ORDER BY small.s_key`
	sel, _ := sqlparse.ParseSelect(sql)
	raw, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	rawOp, err := plan.Execute(raw, prov, exec.NewCtx(t.TempDir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Collect(rawOp)
	if err != nil {
		t.Fatal(err)
	}

	sel2, _ := sqlparse.ParseSelect(sql)
	built, err := plan.Build(sel2, cat)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := OptimizeOpts(built, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	optOp, err := plan.Execute(optimized, prov, exec.NewCtx(t.TempDir(), 0))
	if err != nil {
		t.Fatalf("%v\nplan:\n%s", err, plan.Explain(optimized))
	}
	got, err := exec.Collect(optOp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("optimized returned %d rows, want %d\nplan:\n%s", len(got), len(want), plan.Explain(optimized))
	}
	for i := range want {
		for c := range want[i] {
			if types.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestOptimizeAvoidsBigFirst(t *testing.T) {
	cat, _ := testCat(t)
	sql := `SELECT count(*) FROM big, mid, small
		WHERE big.b_fk = mid.m_key AND mid.m_fk = small.s_key`
	sel, _ := sqlparse.ParseSelect(sql)
	built, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := OptimizeOpts(built, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The DP enumerator picks the cost-optimal left-deep order; whatever
	// it is, the 1M-row table must not be the deepest-left (driver) leaf.
	var deepest *plan.Scan
	var findLeft func(n plan.Node)
	findLeft = func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok {
			findLeft(j.Left)
			return
		}
		if s, ok := n.(*plan.Scan); ok {
			deepest = s
		}
		if len(n.Children()) > 0 {
			findLeft(n.Children()[0])
		}
	}
	findLeft(optimized)
	if deepest == nil || deepest.Table.Name == "big" {
		name := "<none>"
		if deepest != nil {
			name = deepest.Table.Name
		}
		t.Errorf("optimized order starts with %s, want a small relation\nplan:\n%s", name, plan.Explain(optimized))
	}
}

func TestGreedyStartsSmall(t *testing.T) {
	cat, _ := testCat(t)
	est := &Estimator{Cat: cat}
	tbl := func(name string) *catalog.TableDef {
		def, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return def
	}
	leaves := []plan.Node{
		&plan.Scan{Table: tbl("big")},
		&plan.Scan{Table: tbl("mid")},
		&plan.Scan{Table: tbl("small")},
	}
	conds := []expr.Expr{
		&expr.Bin{Op: expr.OpEq, L: &expr.Col{Index: -1, Name: "b_fk"}, R: &expr.Col{Index: -1, Name: "m_key"}},
		&expr.Bin{Op: expr.OpEq, L: &expr.Col{Index: -1, Name: "m_fk"}, R: &expr.Col{Index: -1, Name: "s_key"}},
	}
	order := greedyOrder(leaves, conds, est)
	if s, ok := order[0].(*plan.Scan); !ok || s.Table.Name != "small" {
		t.Errorf("greedy order starts with %s, want small", order[0].Describe())
	}
}

// TestDPNeverWorseThanGreedy pins the enumerator's core invariant: dpOrder
// minimizes exactly the metric PlanCost reports, so its plan can never cost
// more than the greedy plan — or any other permutation — of the same
// leaves. This holds by construction (both run the shared costModel), and
// the test keeps it that way.
func TestDPNeverWorseThanGreedy(t *testing.T) {
	cat, _ := testCat(t)
	est := &Estimator{Cat: cat}
	o := Options{Workers: 4}
	tbl := func(name string) *catalog.TableDef {
		def, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return def
	}
	leaves := []plan.Node{
		&plan.Scan{Table: tbl("big")},
		&plan.Scan{Table: tbl("mid")},
		&plan.Scan{Table: tbl("small")},
	}
	conds := []expr.Expr{
		&expr.Bin{Op: expr.OpEq, L: &expr.Col{Index: -1, Name: "b_fk"}, R: &expr.Col{Index: -1, Name: "m_key"}},
		&expr.Bin{Op: expr.OpEq, L: &expr.Col{Index: -1, Name: "m_fk"}, R: &expr.Col{Index: -1, Name: "s_key"}},
	}
	dp := dpOrder(leaves, conds, est, o)
	if dp == nil {
		t.Fatal("dpOrder declined a 3-relation cluster")
	}
	dpCost := planCost(dp, conds, est, o)
	greedy := greedyOrder(leaves, conds, est)
	if gc := planCost(greedy, conds, est, o); dpCost > gc*1.0000001 {
		t.Errorf("dp cost %g > greedy cost %g", dpCost, gc)
	}
	// Exhaustive: no permutation of the leaves beats the DP plan.
	var perm func(cur, rest []plan.Node)
	perm = func(cur, rest []plan.Node) {
		if len(rest) == 0 {
			if c := planCost(cur, conds, est, o); dpCost > c*1.0000001 {
				t.Errorf("dp cost %g > permutation cost %g (%v)", dpCost, c, cur)
			}
			return
		}
		for i := range rest {
			next := append(append([]plan.Node{}, rest[:i]...), rest[i+1:]...)
			perm(append(cur, rest[i]), next)
		}
	}
	perm(nil, leaves)
}

func TestSelectivityShapes(t *testing.T) {
	cat, _ := testCat(t)
	est := &Estimator{Cat: cat}
	mk := func(sql string) float64 {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		node, err := plan.Build(sel, cat)
		if err != nil {
			t.Fatal(err)
		}
		var scan plan.Node
		plan.Walk(node, func(n plan.Node) {
			if s, ok := n.(*plan.Scan); ok {
				scan = s
			}
		})
		return est.Estimate(scan)
	}
	full := mk("SELECT b_key FROM big")
	eq := mk("SELECT b_key FROM big WHERE b_fk = 1")
	rng := mk("SELECT b_key FROM big WHERE b_key < 100")
	both := mk("SELECT b_key FROM big WHERE b_fk = 1 AND b_key < 100")
	if !(eq < rng && rng < full) {
		t.Errorf("selectivity ordering: eq=%v rng=%v full=%v", eq, rng, full)
	}
	if both >= eq {
		t.Errorf("conjunction should be more selective: both=%v eq=%v", both, eq)
	}
}

func TestEquivalenceClassesEnableReordering(t *testing.T) {
	cat, prov := testCat(t)
	// big.b_fk = mid.m_key AND mid.m_key = small.s_key: transitively
	// big.b_fk = small.s_key, which the greedy enumerator may exploit.
	sql := `SELECT count(*) FROM big, mid, small
		WHERE big.b_fk = mid.m_key AND mid.m_key = small.s_key`
	sel, _ := sqlparse.ParseSelect(sql)
	built, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := OptimizeOpts(built, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Execute(optimized, prov, exec.NewCtx(t.TempDir(), 0))
	if err != nil {
		t.Fatalf("%v\nplan:\n%s", err, plan.Explain(optimized))
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Reference without optimization.
	sel2, _ := sqlparse.ParseSelect(sql)
	raw, _ := plan.Build(sel2, cat)
	rawOp, _ := plan.Execute(raw, prov, exec.NewCtx(t.TempDir(), 0))
	want, err := exec.Collect(rawOp)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != want[0][0].Int() {
		t.Fatalf("equivalence-augmented plan changed the answer: %v vs %v", rows[0], want[0])
	}
	// No cross join should remain: every Join must have equi keys.
	plan.Walk(optimized, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && len(j.EquiLeft) == 0 && j.Residual == nil {
			t.Errorf("cross join survived:\n%s", plan.Explain(optimized))
		}
	})
}

func TestGroupByPushdownThroughJoin(t *testing.T) {
	cat, prov := testCat(t)
	// Mark small.s_key as a unique key via stats (NDV == rows) — it already
	// is in testCat (100/100). big.b_fk has 1000 NDV over 1e6 rows: the
	// pushed aggregation shrinks 1000x, passing the cost gate.
	sql := `SELECT b_fk, sum(b_key) AS s, count(*) AS c
		FROM big, small WHERE big.b_fk = small.s_key
		GROUP BY b_fk ORDER BY b_fk`
	sel, _ := sqlparse.ParseSelect(sql)
	raw, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	rawOp, _ := plan.Execute(raw, prov, exec.NewCtx(t.TempDir(), 0))
	want, err := exec.Collect(rawOp)
	if err != nil {
		t.Fatal(err)
	}

	sel2, _ := sqlparse.ParseSelect(sql)
	built, _ := plan.Build(sel2, cat)
	optimized, err := OptimizeOpts(built, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The rewrite must have moved the aggregation BELOW the join.
	pushed := false
	plan.Walk(optimized, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok {
			plan.Walk(j.Left, func(m plan.Node) {
				if _, isAgg := m.(*plan.Agg); isAgg {
					pushed = true
				}
			})
		}
	})
	if !pushed {
		t.Fatalf("group-by not pushed below join:\n%s", plan.Explain(optimized))
	}
	op, err := plan.Execute(optimized, prov, exec.NewCtx(t.TempDir(), 0))
	if err != nil {
		t.Fatalf("%v\nplan:\n%s", err, plan.Explain(optimized))
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pushed plan: %d rows, want %d\n%s", len(got), len(want), plan.Explain(optimized))
	}
	for i := range want {
		for c := range want[i] {
			if types.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestGroupByPushdownDeclined(t *testing.T) {
	cat, _ := testCat(t)
	// mid.m_fk is NOT unique (NDV 100 over 10000 rows): rule must decline.
	sql := `SELECT b_fk, count(*) FROM big, mid
		WHERE big.b_fk = mid.m_fk GROUP BY b_fk`
	sel, _ := sqlparse.ParseSelect(sql)
	built, _ := plan.Build(sel, cat)
	optimized, err := OptimizeOpts(built, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(optimized, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok {
			plan.Walk(j.Left, func(m plan.Node) {
				if _, isAgg := m.(*plan.Agg); isAgg {
					t.Errorf("group-by pushed despite non-unique right key:\n%s", plan.Explain(optimized))
				}
			})
			plan.Walk(j.Right, func(m plan.Node) {
				if _, isAgg := m.(*plan.Agg); isAgg {
					t.Errorf("group-by pushed to right side?!")
				}
			})
		}
	})
}

// planCost scores a fixed left-deep order with the same model dpOrder
// minimizes over, so dpOrder's result never costs more than any other
// order of the same leaves.
func planCost(order []plan.Node, conds []expr.Expr, est *Estimator, o Options) float64 {
	if len(order) == 0 {
		return 0
	}
	m := newCostModel(order, conds, est, o)
	total := 0.0
	S := uint64(1)
	d := m.dist[0]
	for i := 1; i < len(order); i++ {
		stepCost, outDist := m.step(S, d, i)
		total += stepCost
		d = outDist
		S |= 1 << uint(i)
	}
	return total
}

// TestClusterOrderIsDPOrder pins that an inner-join cluster is enumerated
// once: the plan's left-deep leaf order is dpOrder's over the cluster's
// leaves and conditions, not that of a second enumeration over a prefix of
// the tree the first one assembled. s1 and s2 are the same table under two
// aliases, so the order below them is an exact cost tie that only one
// enumeration of the whole cluster settles as dpOrder does. A leaf holding
// its own three-way cluster (here under a semi join) is still reordered.
func TestClusterOrderIsDPOrder(t *testing.T) {
	cat, _ := testCat(t)
	est := &Estimator{Cat: cat}
	o := Options{Workers: 4}
	scan := func(table, alias string) *plan.Scan {
		def, err := cat.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		return plan.NewScan(def, alias)
	}
	eq := func(l, r string) expr.Expr {
		return &expr.Bin{Op: expr.OpEq, L: &expr.Col{Index: -1, Name: l}, R: &expr.Col{Index: -1, Name: r}}
	}
	describe := func(ns []plan.Node) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Describe()
		}
		return out
	}
	// requireDPOrder checks that the cluster at n joins its leaves in
	// dpOrder's order over leaves and conds.
	requireDPOrder := func(what string, n plan.Node, leaves []plan.Node, conds []expr.Expr) {
		t.Helper()
		var got []plan.Node
		for j, ok := n.(*plan.Join); ok && j.Type == exec.JoinInner; j, ok = n.(*plan.Join) {
			got = append([]plan.Node{j.Right}, got...)
			n = j.Left
		}
		got = append([]plan.Node{n}, got...)
		want := dpOrder(leaves, augmentWithEquivalences(conds), est, o)
		same := len(want) > 0 && len(got) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = got[i] == want[i]
		}
		if !same {
			t.Fatalf("%s: join order %v, want dpOrder's %v", what, describe(got), describe(want))
		}
	}
	assemble := func(leaves []plan.Node, conds []expr.Expr) plan.Node {
		tree, err := plan.AssembleJoins(append([]plan.Node(nil), leaves...), conds)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	conds := []expr.Expr{eq("big.b_fk", "mid.m_key"), eq("mid.m_fk", "s1.s_key"), eq("mid.m_fk", "s2.s_key")}

	leaves := []plan.Node{scan("big", ""), scan("mid", ""), scan("small", "s1"), scan("small", "s2")}
	out, err := rewriteJoins(assemble(leaves, conds), est, o)
	if err != nil {
		t.Fatal(err)
	}
	requireDPOrder("four-leaf cluster", out, leaves, conds)

	// The same cluster with s2 under a semi join, over a three-way cluster
	// written big-first, which dpOrder never leaves in place.
	inner := []plan.Node{scan("big", "b2"), scan("mid", "m2"), scan("small", "s2")}
	innerConds := []expr.Expr{eq("b2.b_fk", "m2.m_key"), eq("m2.m_fk", "s2.s_key")}
	if dpOrder(inner, augmentWithEquivalences(innerConds), est, o)[0] == inner[0] {
		t.Fatal("fixture: dpOrder keeps big first")
	}
	semi := &plan.Join{Type: exec.JoinSemi, Left: assemble(inner, innerConds), Right: scan("small", "s3"),
		EquiLeft:  []expr.Expr{&expr.Col{Index: -1, Name: "s2.s_key"}},
		EquiRight: []expr.Expr{&expr.Col{Index: -1, Name: "s3.s_key"}}}
	leaves = []plan.Node{scan("big", ""), scan("mid", ""), scan("small", "s1"), semi}
	if out, err = rewriteJoins(assemble(leaves, conds), est, o); err != nil {
		t.Fatal(err)
	}
	requireDPOrder("cluster over a semi join", out, leaves, conds)
	requireDPOrder("cluster under the semi join", semi.Left, inner, innerConds)
}
