package exec

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/tpch"
	"repro/internal/types"
)

// schemaFor infers a schema from a sample row (the exec layer only needs
// names and kinds for metadata; tpch rows carry their kinds in the values).
func schemaFor(r types.Row) types.Schema {
	cols := make([]types.Column, len(r))
	for i, v := range r {
		cols[i] = types.Column{Name: fmt.Sprintf("c%d", i), Kind: v.K}
	}
	return types.Schema{Cols: cols}
}

// assertSameRows compares two results as multisets, order-insensitive.
func assertSameRows(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count = %d, want %d", len(got), len(want))
	}
	counts := make(map[string]int, len(want))
	for _, r := range want {
		counts[r.String()]++
	}
	for _, r := range got {
		counts[r.String()]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("row %q: multiset difference %+d", k, -c)
		}
	}
}

// slabSource is a Source that emits slabs of n rows, so tests drive slab
// boundaries through the operators above it.
func slabSource(sch types.Schema, rows []types.Row, n int) *Source {
	s := NewSource(sch, rows)
	s.batch = n
	return s
}

// TestCursorRoundTrip checks the one row-at-a-time reader: a cursor over a
// slab operator hands back every row, in order, across slab boundaries, and
// can be re-opened.
func TestCursorRoundTrip(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2}, []int64{3}, []int64{4}, []int64{5}, []int64{6}, []int64{7})
	cur := NewCursor(slabSource(intSchema("a"), rows, 3))
	for pass := 0; pass < 2; pass++ {
		if err := cur.Open(); err != nil {
			t.Fatal(err)
		}
		for i, want := range rows {
			r, ok, err := cur.Next()
			if err != nil || !ok {
				t.Fatalf("pass %d row %d: ok=%v err=%v", pass, i, ok, err)
			}
			if r[0].Int() != want[0].Int() {
				t.Fatalf("pass %d row %d = %v, want %v", pass, i, r, want)
			}
		}
		if _, ok, err := cur.Next(); ok || err != nil {
			t.Fatalf("pass %d: cursor past the end: ok=%v err=%v", pass, ok, err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchRowParityPipeline runs a scan→filter→project→aggregate pipeline
// at several slab sizes — the source really emits 1-, 7- and 1024-row slabs
// — and checks every group against its closed-form sum and count.
func TestBatchRowParityPipeline(t *testing.T) {
	const n, groups, cut = 5000, 37, 99
	var rows []types.Row
	for i := int64(0); i < n; i++ {
		rows = append(rows, types.Row{types.NewInt(i % groups), types.NewInt(i)})
	}
	// Group g holds v+1 for v = first, first+37, ..., last with v > cut.
	want := make(map[int64][2]int64, groups)
	for g := int64(0); g < groups; g++ {
		first := g + (cut+1-g+groups-1)/groups*groups
		cnt := (n-1-first)/groups + 1
		last := first + (cnt-1)*groups
		want[g] = [2]int64{cnt*(first+last)/2 + cnt, cnt}
	}
	sch := intSchema("g", "v")
	for _, batchRows := range []int{1, 7, 1024} {
		ctx := NewCtx("", 0)
		ctx.BatchRows = batchRows
		f := NewFilter(ctx, slabSource(sch, rows, batchRows), gt(col(1), ci(cut)))
		p := NewProject(ctx, f, []expr.Expr{col(0), add(col(1), ci(1))}, []string{"g", "v1"})
		got, err := Collect(NewHashAggregate(ctx, p, ColRefs(0), []AggSpec{
			{Kind: AggSum, Arg: col(1), Name: "s"},
			{Kind: AggCount, Name: "c"},
		}, AggComplete))
		if err != nil {
			t.Fatalf("batch=%d: %v", batchRows, err)
		}
		if len(got) != groups {
			t.Fatalf("batch=%d: groups = %d, want %d", batchRows, len(got), groups)
		}
		for _, r := range got {
			if w := want[r[0].Int()]; r[1].Int() != w[0] || r[2].Int() != w[1] {
				t.Fatalf("batch=%d: group %d = (sum %d, count %d), want (%d, %d)",
					batchRows, r[0].Int(), r[1].Int(), r[2].Int(), w[0], w[1])
			}
		}
	}
}

// TestGraceJoinSpillParity golden-compares a spilling grace hash join with
// the same join held in memory, on TPC-H SF0.01.
func TestGraceJoinSpillParity(t *testing.T) {
	d := tpch.Generate(0.01, 42)
	lineSch := schemaFor(d.Lineitem[0])
	ordSch := schemaFor(d.Orders[0])
	run := func(memRows int) ([]types.Row, *Ctx) {
		ctx := NewCtx(t.TempDir(), memRows)
		j := NewHashJoin(ctx, NewSource(lineSch, d.Lineitem), NewSource(ordSch, d.Orders),
			ColRefs(0), ColRefs(0), JoinInner, nil, 2)
		out, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		return out, ctx
	}
	want, memCtx := run(0)
	got, spillCtx := run(2000) // orders(15000) overflows: grace join
	if memCtx.SpillFiles.Load() != 0 || spillCtx.SpillFiles.Load() == 0 {
		t.Fatalf("spill files: in-memory=%d (want 0), budgeted=%d (want >0)",
			memCtx.SpillFiles.Load(), spillCtx.SpillFiles.Load())
	}
	if len(want) != len(d.Lineitem) {
		t.Fatalf("join rows = %d, want %d (every lineitem has an order)", len(want), len(d.Lineitem))
	}
	assertSameRows(t, got, want)
}

// TestSortSpillParity compares the exact output sequence of an external
// (spilling) sort with the in-memory sort of the same TPC-H rows.
func TestSortSpillParity(t *testing.T) {
	d := tpch.Generate(0.01, 7)
	rows := d.Lineitem[:20000]
	sch := schemaFor(rows[0])
	keys := []SortKey{{Col: 4, Desc: true}, {Col: 0}, {Col: 3}}
	run := func(memRows int) ([]types.Row, *Ctx) {
		ctx := NewCtx(t.TempDir(), memRows)
		out, err := Collect(NewSort(ctx, NewSource(sch, rows), keys))
		if err != nil {
			t.Fatal(err)
		}
		return out, ctx
	}
	want, memCtx := run(0)
	got, spillCtx := run(1000)
	if memCtx.SpillFiles.Load() != 0 || spillCtx.SpillFiles.Load() == 0 {
		t.Fatalf("spill files: in-memory=%d (want 0), budgeted=%d (want >0)",
			memCtx.SpillFiles.Load(), spillCtx.SpillFiles.Load())
	}
	if len(got) != len(want) {
		t.Fatalf("sorted rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("sorted output diverges at row %d:\n  spilled:   %v\n  in-memory: %v", i, got[i], want[i])
		}
	}
}

// TestSendAllHonorsWireBatchRows pins the Ctx.BatchRows knob to the wire:
// message counts on the fabric meter must match ceil(rows/batch) data
// messages plus one EOF.
func TestSendAllHonorsWireBatchRows(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	cases := []struct {
		name     string
		ctx      *Ctx
		rows     int
		wantMsgs int64
	}{
		{"explicit-5", func() *Ctx { c := NewCtx("", 0); c.BatchRows = 5; return c }(), 15, 3 + 1},
		{"explicit-5-remainder", func() *Ctx { c := NewCtx("", 0); c.BatchRows = 5; return c }(), 17, 4 + 1},
		{"default-128", nil, 300, 3 + 1}, // ceil(300/128)=3 data + EOF
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fabric := network.NewFabric([]int{0, 1}, 64)
			defer fabric.CloseAll()
			sch := intSchema("a")
			var rows []types.Row
			for i := 0; i < tc.rows; i++ {
				rows = append(rows, types.Row{types.NewInt(int64(i))})
			}
			ep1, _ := fabric.Endpoint(1)
			if err := SendAll(tc.ctx, ep1, 0, "knob", NewSource(sch, rows)); err != nil {
				t.Fatal(err)
			}
			ep0, _ := fabric.Endpoint(0)
			got, err := Collect(NewRecv(ep0, "knob", 1, sch))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.rows {
				t.Fatalf("received %d rows, want %d", len(got), tc.rows)
			}
			if n := fabric.Meter().TotalMessages(); n != tc.wantMsgs {
				t.Errorf("wire messages = %d, want %d", n, tc.wantMsgs)
			}
		})
	}
}

// TestShuffleTinyBatchRows exercises the batched shuffle with a slab size
// small enough that every code path crosses slab boundaries repeatedly.
func TestShuffleTinyBatchRows(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	const n, perNode = 3, 100
	ids := []int{0, 1, 2}
	fabric := network.NewFabric(ids, 256)
	defer fabric.CloseAll()
	spec := ShuffleSpec{Channel: "tiny", Nodes: ids}
	results := make([][]types.Row, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			ctx := NewCtx("", 0)
			ctx.BatchRows = 3
			ep, err := fabric.Endpoint(i)
			if err != nil {
				errs[i] = err
				return
			}
			var rows []types.Row
			for k := 0; k < perNode; k++ {
				rows = append(rows, types.Row{
					types.NewInt(int64((i*perNode + k) % 16)),
					types.NewInt(int64(i*perNode + k)),
				})
			}
			sh, err := NewShuffle(ctx, ep, spec, NewSource(intSchema("k", "v"), rows), ColRefs(0), types.Schema{})
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = Collect(sh)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	checkShuffleCorrect(t, results, n, n*perNode)
}

// TestHashAggregateNextBatchWindows drives the aggregate's batch interface
// directly: slabs must respect Ctx.BatchRows, never be empty, and cover
// every group exactly once.
func TestHashAggregateNextBatchWindows(t *testing.T) {
	ctx := NewCtx("", 0)
	ctx.BatchRows = 7
	var rows []types.Row
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, types.Row{types.NewInt(i % 100), types.NewInt(i)})
	}
	agg := NewHashAggregate(ctx, NewSource(intSchema("g", "v"), rows), ColRefs(0),
		[]AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
	if err := agg.Open(); err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	seen := map[int64]bool{}
	for {
		b, ok, err := agg.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(b) == 0 || len(b) > 7 {
			t.Fatalf("aggregate slab size = %d, want 1..7", len(b))
		}
		for _, r := range b {
			if seen[r[0].Int()] {
				t.Fatalf("group %d delivered twice", r[0].Int())
			}
			seen[r[0].Int()] = true
			if r[1].Int() != 10 {
				t.Fatalf("group %d count = %d, want 10", r[0].Int(), r[1].Int())
			}
		}
	}
	if len(seen) != 100 {
		t.Fatalf("groups = %d, want 100", len(seen))
	}
}

// TestTracedBatchCounts verifies that a traced operator counts rows and
// also counts slabs.
func TestTracedBatchCounts(t *testing.T) {
	sch := intSchema("x")
	var rows []types.Row
	for i := int64(0); i < 3000; i++ {
		rows = append(rows, types.Row{types.NewInt(i)})
	}
	tr := obs.NewQueryTrace(1, "")
	sp := tr.StartSpan("Source", 0)
	op := NewTraced(NewSource(sch, rows), sp)
	got, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("collected %d rows", len(got))
	}
	snap := tr.Spans()[0]
	if snap.RowsOut != int64(len(rows)) {
		t.Errorf("span rows_out = %d, want %d", snap.RowsOut, len(rows))
	}
	// 3000 rows at the default 1024-row slab = 3 slabs.
	if snap.Batches != 3 {
		t.Errorf("span batches = %d, want 3", snap.Batches)
	}
}
