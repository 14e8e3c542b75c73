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
	"repro/internal/vec"
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

// batchSource serves prebuilt typed batches, the same ones on every run, so
// an aggregate benchmark times the aggregate and not the building of its
// input. Only a degree-1 build may read it: nothing is copied.
type batchSource struct {
	*Source
	batches []*vec.Batch
	next    int
}

func newBatchSource(sch types.Schema, rows []types.Row, size int) *batchSource {
	s := &batchSource{Source: NewSource(sch, nil)}
	for lo := 0; lo < len(rows); lo += size {
		s.batches = append(s.batches, vec.FromRows(sch, rows[lo:min(lo+size, len(rows))]))
	}
	return s
}

func (s *batchSource) Open() error { s.next = 0; return nil }

func (s *batchSource) NextVec() (*vec.Batch, bool, error) {
	if s.next == len(s.batches) {
		return nil, false, nil
	}
	s.next++
	return s.batches[s.next-1], true, nil
}

// runAggBench runs the aggregate build builds b.N times and reports the
// time per input row.
func runAggBench(b *testing.B, rows int, build func() *HashAggregate) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(build()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkAggregateQ1Shape is q1's aggregate over typed 1,024-row batches:
// two dictionary string keys with 4 combinations, and q1's eight aggregates,
// two of them over arithmetic kernels, at degree 1.
func BenchmarkAggregateQ1Shape(b *testing.B) {
	sch := types.Schema{Cols: []types.Column{
		{Name: "l_quantity", Kind: types.KindFloat}, {Name: "l_extendedprice", Kind: types.KindFloat},
		{Name: "l_discount", Kind: types.KindFloat}, {Name: "l_tax", Kind: types.KindFloat},
		{Name: "l_returnflag", Kind: types.KindString}, {Name: "l_linestatus", Kind: types.KindString},
	}}
	combos := [][2]string{{"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}}
	rows := make([]types.Row, 100_000)
	for i := range rows {
		c := combos[(i*7)%len(combos)]
		rows[i] = types.Row{
			types.NewFloat(float64(1 + i%50)), types.NewFloat(900 + float64(i%1000)),
			types.NewFloat(float64(i%11) / 100), types.NewFloat(float64(i%9) / 100),
			types.NewString(c[0]), types.NewString(c[1]),
		}
	}
	one := &expr.Const{V: types.NewFloat(1)}
	price := &expr.Bin{Op: expr.OpMul, L: col(1), R: &expr.Bin{Op: expr.OpSub, L: one, R: col(2)}}
	charge := &expr.Bin{Op: expr.OpMul, L: price, R: &expr.Bin{Op: expr.OpAdd, L: one, R: col(3)}}
	specs := []AggSpec{
		{Kind: AggSum, Arg: col(0), Name: "sum_qty"}, {Kind: AggSum, Arg: col(1), Name: "sum_base_price"},
		{Kind: AggSum, Arg: price, Name: "sum_disc_price"}, {Kind: AggSum, Arg: charge, Name: "sum_charge"},
		{Kind: AggAvg, Arg: col(0), Name: "avg_qty"}, {Kind: AggAvg, Arg: col(1), Name: "avg_price"},
		{Kind: AggAvg, Arg: col(2), Name: "avg_disc"}, {Kind: AggCount, Name: "count_order"},
	}
	src := newBatchSource(sch, rows, 1024)
	runAggBench(b, len(rows), func() *HashAggregate {
		return NewTypedHashAggregate(NewCtx("", 0), src, ColRefs(4, 5), specs, AggComplete)
	})
}

// BenchmarkAggregateDistinctIntKeys files 100,000 distinct INT keys, a count
// and a FLOAT sum each, through each front end at degree 1.
func BenchmarkAggregateDistinctIntKeys(b *testing.B) {
	sch := types.Schema{Cols: []types.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindFloat}}}
	rows := make([]types.Row, 100_000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i) * 7919), types.NewFloat(float64(i) * 0.5)}
	}
	specs := []AggSpec{{Kind: AggCount, Name: "c"}, {Kind: AggSum, Arg: col(1), Name: "s"}}
	b.Run("rows", func(b *testing.B) {
		runAggBench(b, len(rows), func() *HashAggregate {
			return NewHashAggregate(NewCtx("", 0), NewSource(sch, rows), ColRefs(0), specs, AggComplete)
		})
	})
	b.Run("typed", func(b *testing.B) {
		src := newBatchSource(sch, rows, 1024)
		runAggBench(b, len(rows), func() *HashAggregate {
			return NewTypedHashAggregate(NewCtx("", 0), src, ColRefs(0), specs, AggComplete)
		})
	})
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
