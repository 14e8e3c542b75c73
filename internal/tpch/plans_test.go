package tpch

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// update rewrites the golden files under testdata — the plans
// (TestGoldenPlans) and counters.txt (TestAllQueriesDistributedMatchReference)
// — instead of checking against them.
var update = flag.Bool("update", false, "rewrite the testdata golden files (plans/, counters.txt) with current output")

// TestGoldenPlans pins the optimized plan of every TPC-H query at SF0.01,
// seed 20260706, 4 workers. The golden files capture everything the
// cost-based optimizer decides — join order from DP enumeration, the
// shuffle-vs-broadcast dist= annotation per join, predicate pushdown, and
// group-by placement — so any change to statistics, costing, or enumeration
// shows up as a reviewable plan diff instead of a silent regression.
// Regenerate intentionally with:
//
//	go test ./internal/tpch -run TestGoldenPlans -update
func TestGoldenPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H stats build skipped in -short mode")
	}
	c, _ := loadedCluster(t, 4, 0.01)
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "plans"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	queries := Queries()
	for _, qid := range QueryIDs() {
		sql := queries[qid]
		t.Run(qid, func(t *testing.T) {
			sel, err := sqlparse.ParseSelect(sql)
			if err != nil {
				t.Fatal(err)
			}
			node, err := c.Plan(sel)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.Explain(node)
			path := filepath.Join("testdata", "plans", qid+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden plan (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan drift for %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
					qid, got, string(want))
			}
		})
	}
}

// TestOptimizedPlansAreTrees: no node of any query's optimized plan is
// reachable by two paths. The optimizer copies what it plans twice (the key
// source of the magic-set rewrite) because the estimator memoizes by node
// pointer and plan.Rebind rebinds a node in place, for one parent only.
func TestOptimizedPlansAreTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H stats build skipped in -short mode")
	}
	c, _ := loadedCluster(t, 4, 0.01)
	queries := Queries()
	for _, qid := range QueryIDs() {
		sel, err := sqlparse.ParseSelect(queries[qid])
		if err != nil {
			t.Fatal(err)
		}
		node, err := c.Plan(sel)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[plan.Node]bool{}
		plan.Walk(node, func(m plan.Node) {
			if seen[m] {
				t.Errorf("%s: %s is reachable twice:\n%s", qid, m.Describe(), plan.Explain(node))
			}
			seen[m] = true
		})
	}
}
