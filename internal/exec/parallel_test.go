package exec

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/tpch"
	"repro/internal/types"
)

var parLineitem struct {
	once sync.Once
	rows []types.Row
	sch  types.Schema
}

// parLineitemData generates the SF0.01 lineitem table once per process
// (~60k rows), the golden input for parallel/serial parity checks.
func parLineitemData() ([]types.Row, types.Schema) {
	parLineitem.once.Do(func() {
		d := tpch.Generate(0.01, 1)
		parLineitem.rows = d.Lineitem
		cols := make([]types.Column, len(d.Lineitem[0]))
		for i, v := range d.Lineitem[0] {
			cols[i] = types.Column{Name: fmt.Sprintf("l%d", i), Kind: v.K}
		}
		parLineitem.sch = types.Schema{Cols: cols}
	})
	return parLineitem.rows, parLineitem.sch
}

func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// assertSameRowSet compares two results as multisets (aggregate output
// order is unspecified).
func assertSameRowSet(t *testing.T, got, want []types.Row) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("got %d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %s, want %s", i, g[i], w[i])
		}
	}
}

// lineitemAggSpecs is a representative aggregate list whose results are
// order-independent, so parallel output is byte-identical to serial: count,
// an int sum, a whole-valued float sum (l_quantity is 1..50, exact in a
// double in any fold order), an avg of exact sums, and min/max. Fractional
// float sums are order-sensitive in the last ulp and are checked separately
// with a tolerance (TestParallelAggFloatSums).
func lineitemAggSpecs() []AggSpec {
	return []AggSpec{
		{Kind: AggCount, Name: "c"},
		{Kind: AggSum, Arg: col(1), Name: "sk"},
		{Kind: AggSum, Arg: col(4), Name: "sq"},
		{Kind: AggAvg, Arg: col(4), Name: "aq"},
		{Kind: AggMin, Arg: col(10), Name: "mn"},
		{Kind: AggMax, Arg: col(10), Name: "mx"},
	}
}

// TestParallelAggParity: the partitioned parallel aggregate must produce
// exactly the serial aggregate's groups, for few groups, many groups, and
// under a memory budget that forces partition-affine spilling.
func TestParallelAggParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	rows, sch := parLineitemData()
	cases := []struct {
		name    string
		groupBy []expr.Expr
		memRows int
	}{
		{"few-groups", ColRefs(8, 9), 0},
		{"many-groups", ColRefs(0), 0},
		{"many-groups-spill", ColRefs(0), 512},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sctx := NewCtx(t.TempDir(), tc.memRows)
			serial := NewHashAggregate(sctx, NewSource(sch, rows), tc.groupBy, lineitemAggSpecs(), AggComplete)
			want, err := Collect(serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, degree := range []int{2, 4} {
				pctx := NewCtx(t.TempDir(), tc.memRows)
				pctx.SetParallelBudget(degree)
				agg := NewHashAggregate(pctx, NewSource(sch, rows), tc.groupBy, lineitemAggSpecs(), AggComplete)
				agg.Parallel = degree
				got, err := Collect(agg)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRowSet(t, got, want)
			}
		})
	}
}

// TestParallelAggFloatSums: fractional float sums are not associative, so
// parallel fold order may move the last ulp; the parallel aggregate must
// still agree with serial to full double precision (relative 1e-9).
func TestParallelAggFloatSums(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	rows, sch := parLineitemData()
	specs := []AggSpec{
		{Kind: AggSum, Arg: col(5), Name: "sp"},
		{Kind: AggAvg, Arg: col(6), Name: "ad"},
	}
	collect := func(parallel int) map[string][]float64 {
		ctx := NewCtx(t.TempDir(), 0)
		ctx.SetParallelBudget(parallel)
		agg := NewHashAggregate(ctx, NewSource(sch, rows), ColRefs(8), specs, AggComplete)
		agg.Parallel = parallel
		out, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string][]float64{}
		for _, r := range out {
			m[r[0].String()] = []float64{r[1].Float(), r[2].Float()}
		}
		return m
	}
	want := collect(1)
	got := collect(4)
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("group %s missing", k)
		}
		for i := range w {
			diff := g[i] - w[i]
			if diff < 0 {
				diff = -diff
			}
			scale := w[i]
			if scale < 0 {
				scale = -scale
			}
			if scale < 1 {
				scale = 1
			}
			if diff/scale > 1e-9 {
				t.Errorf("group %s agg %d: got %v, want %v", k, i, g[i], w[i])
			}
		}
	}
}

// TestParallelAggPartialMergeParity: parallel worker-side partials merged
// and finalized must equal the fully serial pipeline (the distributed
// pre-aggregation path with ExecProfile.Parallelism on).
func TestParallelAggPartialMergeParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	rows, sch := parLineitemData()
	specs := lineitemAggSpecs()
	serial := NewHashAggregate(nil, NewSource(sch, rows), ColRefs(8), specs, AggComplete)
	want, err := Collect(serial)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(t.TempDir(), 0)
	ctx.SetParallelBudget(4)
	partial := NewHashAggregate(ctx, NewSource(sch, rows), ColRefs(8), specs, AggPartial)
	partial.Parallel = 4
	final := NewHashAggregate(nil, partial, ColRefs(0), specs, AggFinal)
	got, err := Collect(final)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRowSet(t, got, want)
}

// TestParallelSortParity: parallel run generation must yield the exact
// serial output sequence when sort keys are unique ((orderkey, linenumber)
// is lineitem's primary key), in memory and spilling.
func TestParallelSortParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	rows, sch := parLineitemData()
	keys := []SortKey{{Col: 0}, {Col: 3, Desc: true}}
	for _, memRows := range []int{0, 1024} {
		t.Run(fmt.Sprintf("mem%d", memRows), func(t *testing.T) {
			sctx := NewCtx(t.TempDir(), memRows)
			want, err := Collect(NewSort(sctx, NewSource(sch, rows), keys))
			if err != nil {
				t.Fatal(err)
			}
			for _, degree := range []int{2, 4} {
				pctx := NewCtx(t.TempDir(), memRows)
				pctx.SetParallelBudget(degree)
				s := NewSort(pctx, NewSource(sch, rows), keys)
				s.Parallel = degree
				got, err := Collect(s)
				if err != nil {
					t.Fatal(err)
				}
				g, w := rowStrings(got), rowStrings(want)
				if len(g) != len(w) {
					t.Fatalf("got %d rows, want %d", len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("degree %d: row %d: got %s, want %s", degree, i, g[i], w[i])
					}
				}
			}
		})
	}
}

// parTestFragment loads rows into a real row fragment so scan parity runs
// against actual pages, morsels, and the buffer manager.
func parTestFragment(t *testing.T, rows []types.Row, sch types.Schema) *storage.Fragment {
	t.Helper()
	ns, err := storage.NewNodeStore(storage.NodeConfig{
		NodeID: 0, BaseDir: t.TempDir(), NumDisks: 2,
		PageSize: 4096, BufFrames: 256, BufStripes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	def := &catalog.TableDef{
		Name:   "lineitem",
		Schema: sch,
		Part:   catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"l0"}},
	}
	fr, err := storage.OpenFragment(ns, def)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Load(rows); err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestParallelScanAggParity: the full pipeline — parallel fragment scan
// with predicate pushdown feeding a parallel aggregate — must match the
// serial pipeline row for row.
func TestParallelScanAggParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	rows, sch := parLineitemData()
	fr := parTestFragment(t, rows, sch)
	pred := func() expr.Expr {
		return &expr.Bin{Op: expr.OpLt, L: col(4), R: &expr.Const{V: types.NewFloat(25)}}
	}
	build := func(ctx *Ctx, parallel int) Operator {
		cfg := ScanConfig{Pred: pred(), Parallel: parallel, Ctx: ctx}
		sc := NewRowScan(fr, "l", cfg)
		agg := NewHashAggregate(ctx, sc, ColRefs(8), lineitemAggSpecs(), AggComplete)
		agg.Parallel = parallel
		return agg
	}
	want, err := Collect(build(NewCtx(t.TempDir(), 0), 1))
	if err != nil {
		t.Fatal(err)
	}
	pctx := NewCtx(t.TempDir(), 0)
	pctx.SetParallelBudget(8)
	got, err := Collect(build(pctx, 4))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRowSet(t, got, want)
}

// TestParallelTinyBudgetRace drives every parallel operator with a tiny
// worker budget and tiny slabs — the configuration that maximizes
// cross-worker interleaving under `go test -race` — and checks the results
// still match serial execution. (1-page morsels are swept where the
// parameter lives, in storage's TestParallelScanParity.)
func TestParallelTinyBudgetRace(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	rows, sch := parLineitemData()
	rows = rows[:5000]
	fr := parTestFragment(t, rows, sch)

	mkCtx := func(budget int) *Ctx {
		ctx := NewCtx(t.TempDir(), 256)
		ctx.SetParallelBudget(budget)
		ctx.BatchRows = 8
		return ctx
	}
	scanAgg := func(ctx *Ctx, parallel int) Operator {
		cfg := ScanConfig{Parallel: parallel, Ctx: ctx}
		agg := NewHashAggregate(ctx, NewRowScan(fr, "l", cfg), ColRefs(0), lineitemAggSpecs(), AggComplete)
		agg.Parallel = parallel
		return agg
	}
	want, err := Collect(scanAgg(mkCtx(0), 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 2, 7} {
		got, err := Collect(scanAgg(mkCtx(budget), 8))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRowSet(t, got, want)
	}

	keys := []SortKey{{Col: 0}, {Col: 3}}
	wantSorted, err := Collect(NewSort(mkCtx(0), NewSource(sch, rows), keys))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSort(mkCtx(2), NewSource(sch, rows), keys)
	s.Parallel = 8
	gotSorted, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	g, w := rowStrings(gotSorted), rowStrings(wantSorted)
	if len(g) != len(w) {
		t.Fatalf("got %d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %s, want %s", i, g[i], w[i])
		}
	}
}
