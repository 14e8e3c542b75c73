package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/testutil"
	"repro/internal/tpch"
	"repro/internal/types"
)

func lt(l, r expr.Expr) *expr.Bin { return &expr.Bin{Op: expr.OpLt, L: l, R: r} }
func cf(v float64) *expr.Const    { return &expr.Const{V: types.NewFloat(v)} }
func cs(s string) *expr.Const     { return &expr.Const{V: types.NewString(s)} }

// TestVecRowParityPipeline runs the same scan→filter→project→aggregate
// pipeline on the slab operators and on the typed vector operators (two
// independent implementations) at several batch sizes, and demands
// identical results. The vector operators must be native (not silent
// fallbacks to the boxed engine).
func TestVecRowParityPipeline(t *testing.T) {
	var rows []types.Row
	for i := int64(0); i < 5000; i++ {
		rows = append(rows, types.Row{types.NewInt(i % 37), types.NewInt(i)})
	}
	sch := intSchema("g", "v")
	rowPipe := func(ctx *Ctx) Operator {
		f := NewFilter(ctx, NewSource(sch, rows), gt(col(1), ci(99)))
		p := NewProject(ctx, f, []expr.Expr{col(0), add(col(1), ci(1))}, []string{"g", "v1"})
		return NewHashAggregate(ctx, p, ColRefs(0), []AggSpec{
			{Kind: AggSum, Arg: col(1), Name: "s"},
			{Kind: AggCount, Name: "c"},
		}, AggComplete)
	}
	vecPipe := func(ctx *Ctx, size int) Operator {
		in := ToVec(slabSource(sch, rows, size))
		f := NewVecFilter(ctx, in, gt(col(1), ci(99)))
		p := NewVecProject(ctx, f, []expr.Expr{col(0), add(col(1), ci(1))}, []string{"g", "v1"})
		a := NewVecHashAggregate(ctx, p, ColRefs(0), []AggSpec{
			{Kind: AggSum, Arg: col(1), Name: "s"},
			{Kind: AggCount, Name: "c"},
		}, AggComplete)
		if _, ok := a.(*VecHashAggregate); !ok {
			t.Fatal("integer group keys must run on the native vector aggregate")
		}
		return a
	}
	want, err := Collect(rowPipe(NewCtx("", 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 37 {
		t.Fatalf("baseline groups = %d, want 37", len(want))
	}
	for _, size := range []int{1, 7, 1024} {
		ctx := NewCtx("", 0)
		ctx.BatchRows = size
		got, err := Collect(vecPipe(ctx, size))
		if err != nil {
			t.Fatalf("vec batch=%d: %v", size, err)
		}
		assertSameRows(t, got, want)
	}
}

// TestVecRowParityTPCHAgg golden-compares a TPC-H Q1-style aggregation —
// dictionary-string group keys, float sums and averages, a float filter —
// between the slab operators and the vector path on SF0.01.
func TestVecRowParityTPCHAgg(t *testing.T) {
	d := tpch.Generate(0.01, 42)
	sch := schemaFor(d.Lineitem[0])
	groupBy := ColRefs(8, 9) // l_returnflag, l_linestatus
	specs := []AggSpec{
		{Kind: AggSum, Arg: col(4), Name: "sum_qty"},
		{Kind: AggAvg, Arg: col(5), Name: "avg_price"},
		{Kind: AggMin, Arg: col(6), Name: "min_disc"},
		{Kind: AggMax, Arg: col(6), Name: "max_disc"},
		{Kind: AggCount, Name: "cnt"},
	}
	pred := lt(col(4), cf(25))
	row := NewHashAggregate(NewCtx("", 0), NewFilter(NewCtx("", 0), NewSource(sch, d.Lineitem), pred), groupBy, specs, AggComplete)
	want, err := Collect(row)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx("", 0)
	in := NewVecFilter(ctx, ToVec(slabSource(sch, d.Lineitem, 512)), pred)
	a := NewVecHashAggregate(ctx, in, groupBy, specs, AggComplete)
	if _, ok := a.(*VecHashAggregate); !ok {
		t.Fatal("string group keys must run on the native vector aggregate")
	}
	got, err := Collect(a)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, got, want)
}

// nullify returns a copy of rows with NULLs injected: col a on every 3rd
// row and col b on every 5th, exercising null bitmaps in slabs, null group
// keys, and null-skipping aggregate inputs.
func nullify(rows []types.Row, a, b int) []types.Row {
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		cp := append(types.Row(nil), r...)
		if i%3 == 0 {
			cp[a] = types.Null
		}
		if i%5 == 0 {
			cp[b] = types.Null
		}
		out[i] = cp
	}
	return out
}

// TestVecRowParityNulls aggregates NULL-heavy data — null measure values
// (skipped by SUM/COUNT/MIN/MAX) and null group keys (a group of their
// own) — and demands row/vector parity.
func TestVecRowParityNulls(t *testing.T) {
	d := tpch.Generate(0.01, 7)
	rows := nullify(d.Lineitem[:20000], 4, 8)
	sch := schemaFor(d.Lineitem[0])
	groupBy := ColRefs(8)
	specs := []AggSpec{
		{Kind: AggSum, Arg: col(4), Name: "s"},
		{Kind: AggCount, Arg: col(4), Name: "c"},
		{Kind: AggMin, Arg: col(4), Name: "lo"},
		{Kind: AggMax, Arg: col(4), Name: "hi"},
	}
	want, err := Collect(NewHashAggregate(NewCtx("", 0), NewSource(sch, rows), groupBy, specs, AggComplete))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 { // R, A, N, NULL
		t.Fatalf("baseline groups = %d, want 4 (incl. the NULL-key group)", len(want))
	}
	ctx := NewCtx("", 0)
	a := NewVecHashAggregate(ctx, ToVec(slabSource(sch, rows, 256)), groupBy, specs, AggComplete)
	got, err := Collect(a)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, got, want)
}

// TestVecAggSpillParity shrinks the group budget until the vector
// aggregate spills and golden-compares the merged output with the
// (equally spilling) row aggregate.
func TestVecAggSpillParity(t *testing.T) {
	d := tpch.Generate(0.01, 11)
	sch := schemaFor(d.Lineitem[0])
	groupBy := ColRefs(1) // l_partkey: ~2000 groups
	specs := []AggSpec{
		{Kind: AggSum, Arg: col(4), Name: "s"},
		{Kind: AggCount, Name: "c"},
	}
	rowCtx := NewCtx(t.TempDir(), 500)
	want, err := Collect(NewHashAggregate(rowCtx, NewSource(sch, d.Lineitem), groupBy, specs, AggComplete))
	if err != nil {
		t.Fatal(err)
	}
	vecCtx := NewCtx(t.TempDir(), 500)
	a := NewVecHashAggregate(vecCtx, ToVec(slabSource(sch, d.Lineitem, 512)), groupBy, specs, AggComplete)
	got, err := Collect(a)
	if err != nil {
		t.Fatal(err)
	}
	if rowCtx.SpillFiles.Load() == 0 || vecCtx.SpillFiles.Load() == 0 {
		t.Fatalf("aggregate must spill on both paths (row=%d vec=%d files)",
			rowCtx.SpillFiles.Load(), vecCtx.SpillFiles.Load())
	}
	assertSameRows(t, got, want)
}

// TestVecJoinParity joins lineitem to orders on the integer order key and
// lineitem to a tiny flag dimension on a dictionary-string key, comparing
// the native vector join against the row join.
func TestVecJoinParity(t *testing.T) {
	d := tpch.Generate(0.01, 42)
	lineSch := schemaFor(d.Lineitem[0])
	ordSch := schemaFor(d.Orders[0])

	t.Run("int-keys", func(t *testing.T) {
		want, err := Collect(NewHashJoin(NewCtx("", 0),
			NewSource(lineSch, d.Lineitem), NewSource(ordSch, d.Orders),
			ColRefs(0), ColRefs(0), JoinInner, nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewCtx("", 0)
		j := NewVecHashJoin(ctx,
			ToVec(slabSource(lineSch, d.Lineitem, 512)),
			ToVec(slabSource(ordSch, d.Orders, 512)),
			ColRefs(0), ColRefs(0), JoinInner, nil, 0)
		if _, ok := j.(*VecHashJoin); !ok {
			t.Fatal("plain column keys must run on the native vector join")
		}
		got, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(d.Lineitem) {
			t.Fatalf("join rows = %d, want %d", len(want), len(d.Lineitem))
		}
		assertSameRows(t, got, want)
	})

	t.Run("string-keys", func(t *testing.T) {
		flagSch := types.Schema{Cols: []types.Column{
			{Name: "flag", Kind: types.KindString},
			{Name: "tag", Kind: types.KindInt},
		}}
		flags := []types.Row{
			{types.NewString("R"), types.NewInt(1)},
			{types.NewString("A"), types.NewInt(2)},
			{types.NewString("N"), types.NewInt(3)},
		}
		probeRows := nullify(d.Lineitem[:20000], 4, 8) // null string keys must not match
		want, err := Collect(NewHashJoin(NewCtx("", 0),
			NewSource(lineSch, probeRows), NewSource(flagSch, flags),
			ColRefs(8), ColRefs(0), JoinInner, nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewCtx("", 0)
		j := NewVecHashJoin(ctx,
			ToVec(slabSource(lineSch, probeRows, 512)),
			ToVec(slabSource(flagSch, flags, 512)),
			ColRefs(8), ColRefs(0), JoinInner, nil, 0)
		got, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, got, want)
	})

	t.Run("semi-anti", func(t *testing.T) {
		for _, jt := range []JoinType{JoinSemi, JoinAnti} {
			want, err := Collect(NewHashJoin(NewCtx("", 0),
				NewSource(ordSch, d.Orders), NewSource(lineSch, d.Lineitem[:9000]),
				ColRefs(0), ColRefs(0), jt, nil, 0))
			if err != nil {
				t.Fatal(err)
			}
			j := NewVecHashJoin(NewCtx("", 0),
				ToVec(slabSource(ordSch, d.Orders, 512)),
				ToVec(slabSource(lineSch, d.Lineitem[:9000], 512)),
				ColRefs(0), ColRefs(0), jt, nil, 0)
			got, err := Collect(j)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, got, want)
		}
	})
}

// TestVecJoinOverflowSpillParity overflows the vector join's build budget,
// forcing the graceful handoff to the spilling grace join, and demands
// parity with the row path.
func TestVecJoinOverflowSpillParity(t *testing.T) {
	d := tpch.Generate(0.01, 42)
	lineSch := schemaFor(d.Lineitem[0])
	ordSch := schemaFor(d.Orders[0])
	want, err := Collect(NewHashJoin(NewCtx(t.TempDir(), 2000),
		NewSource(lineSch, d.Lineitem), NewSource(ordSch, d.Orders),
		ColRefs(0), ColRefs(0), JoinInner, nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(t.TempDir(), 2000) // orders(15000) overflows the budget
	j := NewVecHashJoin(ctx,
		ToVec(slabSource(lineSch, d.Lineitem, 512)),
		ToVec(slabSource(ordSch, d.Orders, 512)),
		ColRefs(0), ColRefs(0), JoinInner, nil, 2)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.SpillFiles.Load() == 0 {
		t.Fatalf("overflowed vector join must spill (files=%d)", ctx.SpillFiles.Load())
	}
	assertSameRows(t, got, want)
}

// TestSendAllVecHonorsWireBatchRows pins the Ctx.BatchRows knob to the
// vector wire: a vec-native input is chunked into ceil(rows/batch) data
// messages plus one EOF, independent of the producer's slab size. Strings
// and NULLs ride along to exercise the columnar wire codec end to end.
func TestSendAllVecHonorsWireBatchRows(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	sch := types.Schema{Cols: []types.Column{
		{Name: "k", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
	}}
	var rows []types.Row
	for i := 0; i < 17; i++ {
		r := types.Row{types.NewInt(int64(i)), types.NewString([]string{"x", "y", "z"}[i%3])}
		if i%4 == 0 {
			r[1] = types.Null
		}
		rows = append(rows, r)
	}
	fabric := network.NewFabric([]int{0, 1}, 64)
	defer fabric.CloseAll()
	ctx := NewCtx("", 0)
	ctx.BatchRows = 5
	// Producer slabs are far larger than the wire batch: chunking must come
	// from the knob, not from whatever the producer happens to emit.
	in := ToVec(slabSource(sch, rows, 1024))
	if _, ok := nativeVec(in); !ok {
		t.Fatal("test input must be vec-native to exercise the columnar wire path")
	}
	ep1, _ := fabric.Endpoint(1)
	if err := SendAll(ctx, ep1, 0, "vknob", in); err != nil {
		t.Fatal(err)
	}
	ep0, _ := fabric.Endpoint(0)
	got, err := Collect(NewRecv(ep0, "vknob", 1, sch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("received %d rows, want %d", len(got), len(rows))
	}
	assertSameRows(t, got, rows)
	if n := fabric.Meter().TotalMessages(); n != 4+1 { // ceil(17/5)=4 data + EOF
		t.Errorf("wire messages = %d, want 5", n)
	}
}

// TestVecOperatorsCompose stacks the vector operators on each other's vector
// face — join → aggregate → projection, the projection holding an expression
// with no kernel (LIKE) so it evaluates row-wise — over a key column that
// holds a value of the wrong kind, and demands the slab operators' result.
func TestVecOperatorsCompose(t *testing.T) {
	d := tpch.Generate(0.002, 5)
	lineSch, ordSch := schemaFor(d.Lineitem[0]), schemaFor(d.Orders[0])
	orders := append([]types.Row(nil), d.Orders...)
	odd := append(types.Row(nil), orders[0]...)
	odd[2] = types.NewInt(7) // o_orderstatus is a string everywhere else
	orders[0] = odd
	status := len(lineSch.Cols) + 2
	specs := []AggSpec{{Kind: AggCount, Name: "c"}}
	exprs := []expr.Expr{col(1), &expr.Like{E: col(0), Pattern: cs("F%")}}
	names := []string{"c", "f"}

	rowJoin := NewHashJoin(NewCtx("", 0), NewSource(lineSch, d.Lineitem), NewSource(ordSch, orders),
		ColRefs(0), ColRefs(0), JoinInner, nil, 0)
	rowAgg := NewHashAggregate(NewCtx("", 0), rowJoin, ColRefs(status), specs, AggComplete)
	want, err := Collect(NewProject(NewCtx("", 0), rowAgg, exprs, names))
	if err != nil {
		t.Fatal(err)
	}

	ctx := NewCtx("", 0)
	join := NewVecHashJoin(ctx, ToVec(slabSource(lineSch, d.Lineitem, 512)), ToVec(slabSource(ordSch, orders, 512)),
		ColRefs(0), ColRefs(0), JoinInner, nil, 0)
	agg := NewVecHashAggregate(ctx, join, ColRefs(status), specs, AggComplete)
	if _, ok := agg.(*VecHashAggregate); !ok {
		t.Fatal("a one-column key must run on the native vector aggregate")
	}
	got, err := Collect(NewVecProject(ctx, agg, exprs, names))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 { // F, O, P and the integer 7
		t.Fatalf("baseline groups = %d, want 4", len(want))
	}
	assertSameRows(t, got, want)
}
