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
// semi-mark and anti-mark are q21's semi and anti joins on one worker: 600
// left rows against a 15,000-row right with four rows a key, under q21's
// "another supplier" residual, built on the left as a mark join; semi-right
// and anti-right are the same joins built on the right, their 15,000 rows
// filed in the table.
func BenchmarkHashJoinBuildProbe(b *testing.B) {
	sch := intSchema("k", "v", "s")
	// Over left ++ right: the left row's v differs from the right row's.
	otherRow := &expr.Bin{Op: expr.OpNe, L: col(1), R: col(sch.Len() + 1)}
	for _, c := range []struct {
		name             string
		probe, probeKeys int
		build, buildKeys int
		buildLeft        bool
		jt               JoinType
	}{
		{"probe-heavy", 50000, 1000, 1000, 1000, false, JoinInner},
		{"probe-miss", 50000, 10000, 1000, 1000, false, JoinInner},
		{"build-heavy", 60000, 3750, 15000, 3750, false, JoinInner},
		{"build-heavy-swapped", 60000, 3750, 15000, 3750, true, JoinInner},
		{"build-heavy-miss", 60000, 37500, 15000, 3750, false, JoinInner},
		{"semi-mark", 15000, 3750, 600, 600, true, JoinSemi},
		{"semi-right", 600, 600, 15000, 3750, false, JoinSemi},
		{"anti-mark", 15000, 3750, 600, 600, true, JoinAnti},
		{"anti-right", 600, 600, 15000, 3750, false, JoinAnti},
	} {
		probeRows := benchRows(c.probe, c.probeKeys)
		buildRows := benchRows(c.build, c.buildKeys)
		var residual expr.Expr
		if c.jt != JoinInner {
			residual = otherRow
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(probeRows)))
			for i := 0; i < b.N; i++ {
				j := NewHashJoin(nil, NewSource(sch, probeRows), NewSource(sch, buildRows),
					ColRefs(0), ColRefs(0), c.jt, residual, 2)
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
// two of them over arithmetic kernels, at degree 1. The literal 1 is an INT,
// as the parser makes it, so the kernels widen it to a float as q1's do.
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
	one := &expr.Const{V: types.NewInt(1)}
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
	ns   *storage.NodeStore
	dir  string
	err  error
}

// TestMain runs the package's tests and benchmarks, then closes the node
// store benchLineitemFragment loaded and removes its directory.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchFrag.ns != nil {
		benchFrag.ns.Close()
	}
	if benchFrag.dir != "" {
		os.RemoveAll(benchFrag.dir)
	}
	os.Exit(code)
}

// benchLineitemFragment loads SF0.05 lineitem into a real row fragment once
// per process, so parallel-vs-serial benchmarks scan actual pages through
// the buffer manager rather than a resident slice. TestMain removes it.
func benchLineitemFragment(b *testing.B) *storage.Fragment {
	b.Helper()
	benchFrag.once.Do(func() {
		rows, sch := benchLineitemData()
		dir, err := os.MkdirTemp("", "hrdbms-bench-*")
		if err != nil {
			benchFrag.err = err
			return
		}
		benchFrag.dir = dir
		ns, err := storage.NewNodeStore(storage.NodeConfig{
			NodeID: 0, BaseDir: dir, NumDisks: 2,
			PageSize: 4096, BufFrames: 2048, BufStripes: 4,
		})
		if err != nil {
			benchFrag.err = err
			return
		}
		benchFrag.ns = ns
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

// BenchmarkRowScan scans a row fragment shaped like partsupp — partkey,
// suppkey, availqty, supplycost and a 199-byte comment — at degree 1,
// emitting partkey, suppkey and supplycost under a predicate on availqty,
// which it does not emit: one that passes one row in 200, and one that
// passes every row. It reports ns/row and allocs/row over the rows scanned.
func BenchmarkRowScan(b *testing.B) {
	const n = 20000
	sch := types.NewSchema(
		types.Column{Name: "ps_partkey", Kind: types.KindInt},
		types.Column{Name: "ps_suppkey", Kind: types.KindInt},
		types.Column{Name: "ps_availqty", Kind: types.KindInt},
		types.Column{Name: "ps_supplycost", Kind: types.KindFloat},
		types.Column{Name: "ps_comment", Kind: types.KindString},
	)
	ns, err := storage.NewNodeStore(storage.NodeConfig{NodeID: 0, BaseDir: b.TempDir(), NumDisks: 1, BufFrames: 512, BufStripes: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer ns.Close()
	fr, err := storage.OpenFragment(ns, &catalog.TableDef{Name: "partsupp", Schema: sch})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i / 4)),
			types.NewInt(int64(i % 100)),
			types.NewInt(int64(i * 7919 % 10000)), // a permutation of 0..9999, twice
			types.NewFloat(float64(i%1000) + 0.25),
			types.NewString(fmt.Sprintf("%0199d", i)),
		}
	}
	if _, err := fr.Load(rows); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  int64 // availqty < max passes
		want int
	}{{"1-in-200", 50, n / 200}, {"all-pass", 10000, n}} {
		b.Run(c.name, func(b *testing.B) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred := &expr.Bin{Op: expr.OpLt, L: &expr.Col{Index: 2, Name: "ps_availqty"}, R: &expr.Const{V: types.NewInt(c.max)}}
				out, err := Collect(NewRowScan(fr, "", ScanConfig{Pred: pred, Cols: []int{0, 1, 3}, Parallel: 1}))
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != c.want {
					b.Fatalf("%d rows passed, want %d", len(out), c.want)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			scanned := float64(n) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/scanned, "ns/row")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/scanned, "allocs/row")
		})
	}
}

// BenchmarkStringCellForms times the two layouts a row-table scan can give a
// string column, for one batch of DefaultBatchRows cells holding d distinct
// values: each cell appended to a fresh batch's column by appendCell and the
// batch then boxed into rows (Materialize, as the row consumers' shim does)
// — coded into the batch's dictionary, or boxed as a string at once. The
// crossover, near d = DefaultBatchRows/4, is where distributeScan's
// boxedStrings draws its line.
func BenchmarkStringCellForms(b *testing.B) {
	const n = DefaultBatchRows
	sch := types.Schema{Cols: []types.Column{{Name: "s", Kind: types.KindString}}}
	for _, d := range []int{64, 256, 1024} {
		cells := make([]types.Cell, n)
		for i := range cells {
			cells[i] = types.Cell{K: types.KindString, S: fmt.Appendf(nil, "Supplier#%09d, street %05d", i%d, i%d*7)}
		}
		for _, form := range []vec.Form{vec.FormStr, vec.FormBoxed} {
			name := map[vec.Form]string{vec.FormStr: "coded", vec.FormBoxed: "boxed"}[form]
			b.Run(fmt.Sprintf("%s/distinct=%d", name, d), func(b *testing.B) {
				var slab []types.Row
				for it := 0; it < b.N; it++ {
					bt := vec.New(sch)
					if form == vec.FormBoxed {
						bt.Cols[0].Form, bt.Cols[0].Dict = vec.FormBoxed, nil
					}
					for i := range cells {
						if err := appendCell(&bt.Cols[0], &cells[i]); err != nil {
							b.Fatal(err)
						}
					}
					bt.N = n
					slab = bt.Materialize(slab)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
			})
		}
	}
}

// BenchmarkScanPredicate times the columnar scan's predicate layer — the
// predicate's columns decoded, its conjuncts narrowing the selection, the
// emitted columns materialized at the survivors — at degree 1 over a
// lineitem fragment of SF0.01 (60,175 rows), with no page set skipped.
// The predicates and emitted columns are those of the lineitem scans of
// q6, q12 and q19 in plan order, of probe.filter_sum_ms, and of q1, whose
// predicate keeps nearly every row, so its emitted columns dominate. Each
// checks its row count against Expr.Eval over the generated rows; ns/row is
// per row scanned. q19-part-rows is the row-table scan's twin: q19's part
// predicate (benchPartScanQ19).
func BenchmarkScanPredicate(b *testing.B) {
	rows := tpch.Generate(0.01, 1).Lineitem
	names := []string{"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate",
		"l_commitdate", "l_receiptdate", "l_shipinstruct", "l_shipmode", "l_comment"}
	cols := make([]types.Column, len(names))
	c := map[string]*expr.Col{}
	for i, name := range names {
		cols[i] = types.Column{Name: name, Kind: rows[0][i].K}
		c[name] = &expr.Col{Index: i, Name: name}
	}
	ns, err := storage.NewNodeStore(storage.NodeConfig{NodeID: 0, BaseDir: b.TempDir(), NumDisks: 1, BufFrames: 4096, BufStripes: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer ns.Close()
	fr, err := storage.OpenColumnarFragment(ns, &catalog.TableDef{Name: "lineitem", Schema: types.Schema{Cols: cols}, Columnar: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fr.Load(rows); err != nil {
		b.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		b.Fatal(err)
	}
	date := func(s string) *expr.Const { return &expr.Const{V: types.MustDate(s)} }
	for _, q := range []struct {
		name string
		pred expr.Expr
		emit []string
	}{
		{"q6", and(and(and(&expr.Bin{Op: expr.OpGe, L: c["l_shipdate"], R: date("1994-01-01")}, lt(c["l_shipdate"], date("1995-01-01"))),
			between(c["l_discount"], cf(0.05), cf(0.07), false)), lt(c["l_quantity"], ci(24))),
			[]string{"l_extendedprice", "l_discount"}},
		{"q12", and(and(and(and(in(c["l_shipmode"], false, cs("MAIL"), cs("SHIP")), lt(c["l_commitdate"], c["l_receiptdate"])),
			lt(c["l_shipdate"], c["l_commitdate"])), &expr.Bin{Op: expr.OpGe, L: c["l_receiptdate"], R: date("1994-01-01")}),
			lt(c["l_receiptdate"], date("1995-01-01"))),
			[]string{"l_orderkey", "l_shipmode"}},
		{"q19", and(and(in(c["l_shipmode"], false, cs("AIR"), cs("REG AIR")), eq(c["l_shipinstruct"], cs("DELIVER IN PERSON"))),
			between(c["l_quantity"], ci(1), ci(30), false)),
			[]string{"l_partkey", "l_quantity", "l_extendedprice", "l_discount"}},
		{"discount>0.05", gt(c["l_discount"], cf(0.05)), []string{"l_extendedprice"}},
		{"q1", &expr.Bin{Op: expr.OpLe, L: c["l_shipdate"], R: date("1998-09-02")},
			[]string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"}},
	} {
		want := 0
		for _, r := range rows {
			if keep, err := expr.EvalBool(q.pred, r); err != nil {
				b.Fatal(err)
			} else if keep {
				want++
			}
		}
		var emit []int
		for _, name := range q.emit {
			emit = append(emit, c[name].Index)
		}
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := NewCtx("", 0)
				scan := NewVecColumnarScan(fr, "", ScanConfig{Pred: q.pred, Cols: emit, Parallel: 1, Ctx: ctx})
				if err := scan.Open(); err != nil {
					b.Fatal(err)
				}
				got := 0
				for {
					vb, ok, err := scan.NextVec()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					got += vb.Rows()
				}
				if err := scan.Close(); err != nil {
					b.Fatal(err)
				}
				if got != want || ctx.PredRowSets.Load() != 0 {
					b.Fatalf("%d rows passed, want %d; %d page sets off the kernels", got, want, ctx.PredRowSets.Load())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(rows))/float64(b.N), "ns/row")
		})
	}
	b.Run("q19-part-rows", benchPartScanQ19)
}

// benchPartScanQ19 times the row-table scan's predicate layer: q19's
// three-branch OR over an SF0.02 part fragment of 16 KiB row pages, at
// degree 1, emitting the part scan's columns of q19's plan to a typed
// consumer. Its row count is checked against Expr.Eval over the generated
// rows; ns/row is per row scanned.
func benchPartScanQ19(b *testing.B) {
	rows := tpch.Generate(0.02, 1).Part
	names := []string{"p_partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size", "p_container", "p_retailprice", "p_comment"}
	cols := make([]types.Column, len(names))
	c := map[string]*expr.Col{}
	for i, name := range names {
		cols[i] = types.Column{Name: name, Kind: rows[0][i].K}
		c[name] = &expr.Col{Index: i, Name: name}
	}
	ns, err := storage.NewNodeStore(storage.NodeConfig{NodeID: 0, BaseDir: b.TempDir(), NumDisks: 1, PageSize: 16 << 10, BufFrames: 1024, BufStripes: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer ns.Close()
	fr, err := storage.OpenFragment(ns, &catalog.TableDef{Name: "part", Schema: types.Schema{Cols: cols}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fr.Load(rows); err != nil {
		b.Fatal(err)
	}
	branch := func(brand string, containers []string, size int64) expr.Expr {
		var in []expr.Expr
		for _, ct := range containers {
			in = append(in, cs(ct))
		}
		return and(and(eq(c["p_brand"], cs(brand)), &expr.InList{E: c["p_container"], Vals: in}), between(c["p_size"], ci(1), ci(size), false))
	}
	or := func(l, r expr.Expr) expr.Expr { return &expr.Bin{Op: expr.OpOr, L: l, R: r} }
	pred := or(or(branch("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 5),
		branch("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10)),
		branch("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 15))
	want := 0
	for _, r := range rows {
		if keep, err := expr.EvalBool(pred, r); err != nil {
			b.Fatal(err)
		} else if keep {
			want++
		}
	}
	emit := []int{c["p_partkey"].Index, c["p_brand"].Index, c["p_size"].Index, c["p_container"].Index}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewCtx("", 0)
		scan := NewRowScan(fr, "", ScanConfig{Pred: pred, Cols: emit, Parallel: 1, Ctx: ctx})
		if err := scan.Open(); err != nil {
			b.Fatal(err)
		}
		got := 0
		for {
			vb, ok, err := scan.NextVec()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			got += vb.Rows()
		}
		if err := scan.Close(); err != nil {
			b.Fatal(err)
		}
		if got != want || ctx.PredRowSets.Load() != 0 {
			b.Fatalf("%d rows passed, want %d; %d pages off the kernels", got, want, ctx.PredRowSets.Load())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(rows))/float64(b.N), "ns/row")
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
