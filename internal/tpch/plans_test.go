package tpch

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// update rewrites the golden files under testdata — the plans
// (TestGoldenPlans) and counters.txt (TestAllQueriesDistributedMatchReference)
// — instead of checking against them.
var update = flag.Bool("update", false, "rewrite the testdata golden files (plans/, counters.txt) with current output")

// TestGoldenPlans pins the optimized plan of every TPC-H query at SF0.01,
// seed 20260706, 4 workers, and where a run of it placed its operators. The
// plan captures everything the cost-based optimizer decides — join order
// from DP enumeration, predicate pushdown, projection pushdown and group-by
// placement — so any change to statistics, costing, or enumeration shows up
// as a reviewable plan diff instead of a silent regression. The footer
// (placement) is what a traced run of that plan did: which operators ran on
// the coordinator, and which exchanges moved rows between nodes, shuffle or
// broadcast among them. A plan depends on the query and the catalog alone,
// so planning and running every query again after all of them ran must
// repeat both. Regenerate intentionally with:
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
	// Every query is planned and explained before any runs: a run resolves
	// the plan's scalar subqueries in place.
	planAll := func() (map[string]plan.Node, map[string]string) {
		nodes, explained := map[string]plan.Node{}, map[string]string{}
		for _, qid := range QueryIDs() {
			sel, err := sqlparse.ParseSelect(queries[qid])
			if err != nil {
				t.Fatal(err)
			}
			if nodes[qid], err = c.Plan(sel); err != nil {
				t.Fatalf("%s: %v", qid, err)
			}
			explained[qid] = plan.Explain(nodes[qid])
		}
		return nodes, explained
	}
	nodes, explained := planAll()
	footers := map[string]string{}
	for _, qid := range QueryIDs() {
		t.Run(qid, func(t *testing.T) {
			_, _, tr, err := c.RunTraced(nodes[qid], queries[qid])
			if err != nil {
				t.Fatal(err)
			}
			footers[qid] = placement(c, tr.Spans())
			got := explained[qid] + footers[qid]
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
	nodes, again := planAll()
	for _, qid := range QueryIDs() {
		t.Run(qid+"/again", func(t *testing.T) {
			if again[qid] != explained[qid] {
				t.Errorf("%s planned differently after the runs\ngot:\n%s\nwant:\n%s", qid, again[qid], explained[qid])
			}
			want, ran := footers[qid]
			if !ran {
				t.Skip("the first run failed")
			}
			_, _, tr, err := c.RunTraced(nodes[qid], queries[qid])
			if err != nil {
				t.Fatal(err)
			}
			if got := placement(c, tr.Spans()); got != want {
				t.Errorf("%s placed differently on its second run\ngot:%s\nwant:%s", qid, got, want)
			}
		})
	}
}

// placement is the golden footer of one traced run, scalar subqueries
// included: the operators that ran on the coordinator, and the exchanges,
// each counted once however many nodes it spans (a Shuffle or Broadcast has
// a span on every worker; a Gather, GatherMerge or TreeReduce one on the
// coordinator), by label.
func placement(c *cluster.Cluster, spans []obs.SpanSnapshot) string {
	onCoord, moved := map[string]int{}, map[string]int{}
	for _, sp := range spans {
		switch sp.Op {
		case "Shuffle", "Broadcast":
			if sp.Node == c.Workers[0].ID {
				moved[sp.Op]++
			}
		case "Gather", "GatherMerge", "TreeReduce":
			moved[sp.Op]++
		default:
			if sp.Node == c.Coords[0].ID {
				onCoord[sp.Op]++
			}
		}
	}
	return "\non the coordinator: " + tally(onCoord) + "\nexchanges: " + tally(moved) + "\n"
}

// tally renders label counts as "a ×2, b ×1", sorted by label.
func tally(n map[string]int) string {
	if len(n) == 0 {
		return "none"
	}
	labels := make([]string, 0, len(n))
	for label := range n {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for i, label := range labels {
		labels[i] = fmt.Sprintf("%s ×%d", label, n[label])
	}
	return strings.Join(labels, ", ")
}

// TestJoinsOnCoordinator reads the golden footers and counts the joins each
// query ran on the coordinator, where one node joins all of both inputs. A
// join with a replicated input runs on the workers, so only the joins over a
// grouped aggregate that is tree-reduced to the coordinator are left there:
// q15's, q17's and q20's, which wait on the aggregate being finished on the
// workers instead.
func TestJoinsOnCoordinator(t *testing.T) {
	want := map[string]int{"q15": 1, "q17": 1, "q20": 2}
	for _, qid := range QueryIDs() {
		golden, err := os.ReadFile(filepath.Join("testdata", "plans", qid+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		_, footer, ok := strings.Cut(string(golden), "\non the coordinator: ")
		if !ok {
			t.Fatalf("%s: the golden plan has no footer", qid)
		}
		footer, _, _ = strings.Cut(footer, "\n")
		joins := 0
		for _, item := range strings.Split(footer, ", ") {
			label, count, _ := strings.Cut(item, " ×")
			if label == "HashJoin" || label == "NestedLoopJoin" {
				n, err := strconv.Atoi(count)
				if err != nil {
					t.Fatalf("%s: footer item %q: %v", qid, item, err)
				}
				joins += n
			}
		}
		if joins != want[qid] {
			t.Errorf("%s: %d joins on the coordinator, want %d (%s)", qid, joins, want[qid], footer)
		}
	}
}

// TestOptimizedPlansAreTrees: no node of any query's optimized plan is
// reachable by two paths. The optimizer copies what it plans twice (the key
// source of the magic-set rewrite) because plan.Rebind rebinds a node in
// place, for one parent only.
// Nor does any node's schema, the scalar subquery plans' included, name one
// column twice: a column's schema name is its identity, and every lookup
// of it is exact.
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
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			plan.Walk(n, func(m plan.Node) {
				if seen[m] {
					t.Errorf("%s: %s is reachable twice:\n%s", qid, m.Describe(), plan.Explain(node))
				}
				seen[m] = true
				names := map[string]bool{}
				for _, c := range m.Schema().Cols {
					if names[c.Name] {
						t.Errorf("%s: %s names %s twice in %s", qid, m.Describe(), c.Name, m.Schema())
					}
					names[c.Name] = true
				}
				for _, s := range plan.ScalarsOf(m) {
					walk(s.Plan)
				}
			})
		}
		walk(node)
	}
}
