package tpch

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// planSink keeps BenchmarkPlanTPCH's plans live.
var planSink plan.Node

// BenchmarkPlanTPCH times Cluster.Plan — build, optimize, rebind — on the
// SF0.01 catalog of a 4-worker cluster, for the queries with the largest
// inner-join clusters: q2 (two clusters, one under a decorrelated
// subquery), q5, q8 (eight relations) and q9. Each iteration plans from a
// fresh parse; the parse is not timed.
//
//	go test ./internal/tpch -run '^$' -bench BenchmarkPlanTPCH
func BenchmarkPlanTPCH(b *testing.B) {
	c, _ := loadedCluster(b, 4, 0.01)
	queries := Queries()
	for _, qid := range []string{"q2", "q5", "q8", "q9"} {
		b.Run(qid, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sel, err := sqlparse.ParseSelect(queries[qid])
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if planSink, err = c.Plan(sel); err != nil {
					b.Fatalf("%s: %v", qid, err)
				}
			}
		})
	}
}
