package tpch

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// qError is the standard cardinality-estimation metric: max(est/act, act/est).
func qError(est, act float64) float64 {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	return math.Max(est/act, act/est)
}

// TestQErrorGolden pins the statistics model's estimation quality on TPC-H
// SF0.01: full scans (row counts), range filters (the histogram path), and
// 2–4 way joins (NDV-based equality selectivity). The bounds are golden —
// loose enough for sketch/sample noise, tight enough that a regression to
// magic-constant selectivities (1/3 per range predicate, fixed join
// fanouts) fails immediately.
func TestQErrorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H stats build skipped in -short mode")
	}
	c, d := loadedCluster(t, 4, 0.01)
	prov := &plan.MemProvider{Cat: c.Catalog(), Rows: d.Tables()}
	est := &opt.Estimator{Cat: c.Catalog()}

	cases := []struct {
		name string
		sql  string
		// pick chooses the plan node whose estimate is scored; nil means
		// score the root.
		pick func(plan.Node) plan.Node
		maxQ float64
	}{
		{
			name: "scan-lineitem",
			sql:  "SELECT l_orderkey FROM lineitem",
			pick: firstScan, maxQ: 1.05,
		},
		{
			name: "scan-orders",
			sql:  "SELECT o_orderkey FROM orders",
			pick: firstScan, maxQ: 1.05,
		},
		{
			name: "range-shipdate-year",
			sql: `SELECT l_orderkey FROM lineitem
			      WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'`,
			pick: firstScan, maxQ: 1.3,
		},
		{
			name: "range-quantity",
			sql:  "SELECT l_orderkey FROM lineitem WHERE l_quantity < 24",
			pick: firstScan, maxQ: 1.3,
		},
		{
			name: "range-discount-between",
			sql:  "SELECT l_orderkey FROM lineitem WHERE l_discount BETWEEN 0.05 AND 0.07",
			pick: firstScan, maxQ: 1.6,
		},
		{
			name: "join-2way-orders-customer",
			sql: `SELECT o_orderkey FROM orders, customer
			      WHERE o_custkey = c_custkey`,
			pick: firstJoin, maxQ: 1.5,
		},
		{
			name: "join-3way-lineitem-orders-customer",
			sql: `SELECT l_orderkey FROM lineitem, orders, customer
			      WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey`,
			pick: firstJoin, maxQ: 2.0,
		},
		{
			name: "join-4way-with-nation",
			sql: `SELECT l_orderkey FROM lineitem, orders, customer, nation
			      WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
			        AND c_nationkey = n_nationkey`,
			pick: firstJoin, maxQ: 2.5,
		},
		{
			name: "join-filtered-orders-lineitem",
			sql: `SELECT l_orderkey FROM lineitem, orders
			      WHERE l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15'`,
			pick: firstJoin, maxQ: 2.0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := sqlparse.ParseSelect(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			node, err := plan.Build(sel, c.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			node, err = opt.OptimizeOpts(node, c.Catalog(), opt.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			target := node
			if tc.pick != nil {
				if target = tc.pick(node); target == nil {
					t.Fatalf("no target node in plan:\n%s", plan.Explain(node))
				}
			}
			op, err := plan.Execute(target, prov, exec.NewCtx(t.TempDir(), 0))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := exec.Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			act := float64(len(rows))
			e := est.Estimate(target)
			if q := qError(e, act); q > tc.maxQ {
				t.Errorf("q-error %.2f > %.2f (est %.0f, actual %.0f)\n%s",
					q, tc.maxQ, e, act, plan.Explain(target))
			}
		})
	}
}

// firstScan returns the first Scan (with its pushed predicate) in the plan.
func firstScan(n plan.Node) plan.Node {
	var out plan.Node
	plan.Walk(n, func(m plan.Node) {
		if out == nil {
			if _, ok := m.(*plan.Scan); ok {
				out = m
			}
		}
	})
	return out
}

// firstJoin returns the topmost Join in the plan (Walk is pre-order).
func firstJoin(n plan.Node) plan.Node {
	var out plan.Node
	plan.Walk(n, func(m plan.Node) {
		if out == nil {
			if _, ok := m.(*plan.Join); ok {
				out = m
			}
		}
	})
	return out
}
