package exec

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

func benchRows(n int, keys int) []types.Row {
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i % keys)),
			types.NewFloat(float64(i) * 1.5),
			types.NewString(fmt.Sprintf("payload-%06d", i)),
		}
	}
	return rows
}

// BenchmarkHashJoinBuildProbe joins a large probe side into a small build
// (one match a probe row) and, shaped like q21's per-worker lineitem build
// at SF0.01, a large build — 15,000 rows over 3,750 keys — into a 60,000-row
// probe (four matches a probe row). Each has a miss-heavy twin whose probe
// keys span ten times the build's, so nine probe rows in ten find no build
// row and are turned away by the table's lookup alone. build-heavy-swapped
// is build-heavy with the planner's inputs the other way round — the 15,000
// rows on the left, as lineitem is under q5's join with orders — built on
// the small left side (BuildLeft), so the output is build ++ probe.
func BenchmarkHashJoinBuildProbe(b *testing.B) {
	sch := intSchema("k", "v", "s")
	for _, c := range []struct {
		name             string
		probe, probeKeys int
		build, buildKeys int
		buildLeft        bool
	}{
		{"probe-heavy", 50000, 1000, 1000, 1000, false},
		{"probe-miss", 50000, 10000, 1000, 1000, false},
		{"build-heavy", 60000, 3750, 15000, 3750, false},
		{"build-heavy-swapped", 60000, 3750, 15000, 3750, true},
		{"build-heavy-miss", 60000, 37500, 15000, 3750, false},
	} {
		probeRows := benchRows(c.probe, c.probeKeys)
		buildRows := benchRows(c.build, c.buildKeys)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(probeRows)))
			for i := 0; i < b.N; i++ {
				j := NewHashJoin(nil, NewSource(sch, probeRows), NewSource(sch, buildRows),
					ColRefs(0), ColRefs(0), JoinInner, nil, 2)
				if c.buildLeft {
					j.BuildLeft()
				}
				if _, err := Collect(j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHashAggregateThroughput(b *testing.B) {
	sch := intSchema("k", "v", "s")
	rows := benchRows(100000, 64)
	specs := []AggSpec{
		{Kind: AggSum, Arg: ColRefs(1)[0], Name: "s"},
		{Kind: AggCount, Name: "c"},
	}
	b.SetBytes(int64(len(rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewHashAggregate(nil, NewSource(sch, rows), ColRefs(0), specs, AggComplete)
		if _, err := Collect(agg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortInMemory(b *testing.B) {
	sch := intSchema("k", "v", "s")
	rows := benchRows(100000, 1<<30)
	b.SetBytes(int64(len(rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSort(nil, NewSource(sch, rows), []SortKey{{Col: 1, Desc: true}})
		if _, err := Collect(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortExternal(b *testing.B) {
	ctx := NewCtx(b.TempDir(), 10000)
	sch := intSchema("k", "v", "s")
	rows := benchRows(100000, 1<<30)
	b.SetBytes(int64(len(rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSort(ctx, NewSource(sch, rows), []SortKey{{Col: 1}})
		if _, err := Collect(s); err != nil {
			b.Fatal(err)
		}
	}
}

var benchLineitem struct {
	once sync.Once
	rows []types.Row
	sch  types.Schema
}

// benchLineitemData generates the SF0.05 lineitem table once per process.
func benchLineitemData() ([]types.Row, types.Schema) {
	benchLineitem.once.Do(func() {
		d := tpch.Generate(0.05, 1)
		benchLineitem.rows = d.Lineitem
		cols := make([]types.Column, len(d.Lineitem[0]))
		for i, v := range d.Lineitem[0] {
			cols[i] = types.Column{Name: fmt.Sprintf("l%d", i), Kind: v.K}
		}
		benchLineitem.sch = types.Schema{Cols: cols}
	})
	return benchLineitem.rows, benchLineitem.sch
}

var benchFrag struct {
	once sync.Once
	fr   *storage.Fragment
	err  error
}

// benchLineitemFragment loads SF0.05 lineitem into a real row fragment once
// per process, so parallel-vs-serial benchmarks scan actual pages through
// the buffer manager rather than a resident slice.
func benchLineitemFragment(b *testing.B) *storage.Fragment {
	b.Helper()
	benchFrag.once.Do(func() {
		rows, sch := benchLineitemData()
		dir, err := os.MkdirTemp("", "hrdbms-bench-*")
		if err != nil {
			benchFrag.err = err
			return
		}
		ns, err := storage.NewNodeStore(storage.NodeConfig{
			NodeID: 0, BaseDir: dir, NumDisks: 2,
			PageSize: 4096, BufFrames: 2048, BufStripes: 4,
		})
		if err != nil {
			benchFrag.err = err
			return
		}
		def := &catalog.TableDef{
			Name:   "lineitem",
			Schema: sch,
			Part:   catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"l0"}},
		}
		fr, err := storage.OpenFragment(ns, def)
		if err != nil {
			benchFrag.err = err
			return
		}
		if _, err := fr.Load(rows); err != nil {
			benchFrag.err = err
			return
		}
		benchFrag.fr = fr
	})
	if benchFrag.err != nil {
		b.Fatal(benchFrag.err)
	}
	return benchFrag.fr
}

// BenchmarkParallelVsSerial measures morsel-driven intra-node parallelism
// on the two hot pipelines the tentpole targets: a fragment scan → filter →
// hash-aggregate over SF0.05 lineitem, and an external sort of the same
// table. Each parallel variant first checks its output is byte-identical
// to serial (the aggregates are order-independent, and the sort key is
// lineitem's unique primary key), then reports rows/s.
//
// The speedup is bounded by min(workers, idle CPUs): on a single-core host
// (GOMAXPROCS=1) goroutines cannot overlap, so the parallel variants only
// measure the morsel machinery's overhead there (expect parity to ~15%
// slower, never a speedup). The cpus metric records the host context so
// ratios are comparable across machines.
func BenchmarkParallelVsSerial(b *testing.B) {
	b.Logf("NumCPU=%d GOMAXPROCS=%d (speedup requires multi-core)", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	rows, sch := benchLineitemData()
	fr := benchLineitemFragment(b)
	pred := func() expr.Expr {
		return &expr.Bin{Op: expr.OpLt, L: col(4), R: &expr.Const{V: types.NewFloat(25)}}
	}
	// Order-independent aggregates (count, int sum, whole-valued float sum,
	// min/max) keep parallel output byte-identical to serial.
	specs := func() []AggSpec {
		return []AggSpec{
			{Kind: AggCount, Name: "c"},
			{Kind: AggSum, Arg: col(1), Name: "sk"},
			{Kind: AggSum, Arg: col(4), Name: "sq"},
			{Kind: AggMin, Arg: col(10), Name: "mn"},
			{Kind: AggMax, Arg: col(10), Name: "mx"},
		}
	}
	scanAgg := func(parallel int) Operator {
		ctx := NewCtx("", 0)
		ctx.SetParallelBudget(parallel)
		cfg := ScanConfig{Pred: pred(), Parallel: parallel, Ctx: ctx}
		agg := NewHashAggregate(ctx, NewRowScan(fr, "l", cfg), ColRefs(8), specs(), AggComplete)
		agg.Parallel = parallel
		return agg
	}
	sortKeys := []SortKey{{Col: 0}, {Col: 3}}
	extSort := func(parallel int) Operator {
		ctx := NewCtx(os.TempDir(), 50000) // ~6 spill runs over SF0.05
		ctx.SetParallelBudget(parallel)
		s := NewSort(ctx, NewSource(sch, rows), sortKeys)
		s.Parallel = parallel
		return s
	}
	golden := func(b *testing.B, build func(parallel int) Operator, ordered bool) {
		b.Helper()
		want, err := Collect(build(1))
		if err != nil {
			b.Fatal(err)
		}
		got, err := Collect(build(4))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(want) {
			b.Fatalf("parallel produced %d rows, serial %d", len(got), len(want))
		}
		g := make([]string, len(got))
		w := make([]string, len(want))
		for i := range got {
			g[i], w[i] = got[i].String(), want[i].String()
		}
		if !ordered {
			sort.Strings(g)
			sort.Strings(w)
		}
		for i := range g {
			if g[i] != w[i] {
				b.Fatalf("parallel output differs from serial at row %d:\n  got  %s\n  want %s", i, g[i], w[i])
			}
		}
	}
	run := func(b *testing.B, build func() Operator) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := Collect(build())
			if err != nil {
				b.Fatal(err)
			}
			if len(out) == 0 {
				b.Fatal("empty output")
			}
		}
		b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		b.ReportMetric(float64(runtime.NumCPU()), "cpus")
	}
	golden(b, scanAgg, false)
	b.Run("scan-agg-serial", func(b *testing.B) { run(b, func() Operator { return scanAgg(1) }) })
	b.Run("scan-agg-parallel-4", func(b *testing.B) { run(b, func() Operator { return scanAgg(4) }) })
	golden(b, extSort, true)
	b.Run("sort-serial", func(b *testing.B) { run(b, func() Operator { return extSort(1) }) })
	b.Run("sort-parallel-4", func(b *testing.B) { run(b, func() Operator { return extSort(4) }) })
}

func BenchmarkTopKVsFullSort(b *testing.B) {
	sch := intSchema("k", "v", "s")
	rows := benchRows(100000, 1<<30)
	b.Run("topk-10", func(b *testing.B) {
		b.SetBytes(int64(len(rows)))
		for i := 0; i < b.N; i++ {
			tk := NewTopK(nil, NewSource(sch, rows), []SortKey{{Col: 1, Desc: true}}, 10)
			if _, err := Collect(tk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sort-then-limit", func(b *testing.B) {
		b.SetBytes(int64(len(rows)))
		for i := 0; i < b.N; i++ {
			s := NewLimit(NewSort(nil, NewSource(sch, rows), []SortKey{{Col: 1, Desc: true}}), 10, 0)
			if _, err := Collect(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
