package exec

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/testutil"
	"repro/internal/tpch"
	"repro/internal/types"
	"repro/internal/vec"
)

func lt(l, r expr.Expr) *expr.Bin { return &expr.Bin{Op: expr.OpLt, L: l, R: r} }
func cf(v float64) *expr.Const    { return &expr.Const{V: types.NewFloat(v)} }
func cs(s string) *expr.Const     { return &expr.Const{V: types.NewString(s)} }

// TestVecRowParityPipeline runs the same scan→filter→project→aggregate
// pipeline on the slab operators and with the filter and the projection on
// their vector kernels (the aggregate reads the projection through its row
// shim), at several batch sizes, and demands identical results.
func TestVecRowParityPipeline(t *testing.T) {
	var rows []types.Row
	for i := int64(0); i < 5000; i++ {
		rows = append(rows, types.Row{types.NewInt(i % 37), types.NewInt(i)})
	}
	sch := intSchema("g", "v")
	specs := []AggSpec{{Kind: AggSum, Arg: col(1), Name: "s"}, {Kind: AggCount, Name: "c"}}
	exprs, names := []expr.Expr{col(0), add(col(1), ci(1))}, []string{"g", "v1"}
	ctx := NewCtx("", 0)
	f := NewFilter(ctx, NewSource(sch, rows), gt(col(1), ci(99)))
	want, err := Collect(NewHashAggregate(ctx, NewProject(ctx, f, exprs, names), ColRefs(0), specs, AggComplete))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 37 {
		t.Fatalf("baseline groups = %d, want 37", len(want))
	}
	for _, size := range []int{1, 7, 1024} {
		ctx := NewCtx("", 0)
		ctx.BatchRows = size
		f := NewVecFilter(ctx, ToVec(slabSource(sch, rows, size)), gt(col(1), ci(99)))
		got, err := Collect(NewHashAggregate(ctx, NewVecProject(ctx, f, exprs, names), ColRefs(0), specs, AggComplete))
		if err != nil {
			t.Fatalf("vec batch=%d: %v", size, err)
		}
		assertSameRows(t, got, want)
	}
}

// typedSource serves a row producer's slabs as typed batches, each built
// fresh — the contract NewTypedHashAggregate asks of its input. With sel set
// every row is preceded by a decoy (its neighbour in the slab) that is in
// the columns but not in Sel, so a reader that ignores Sel counts it.
type typedSource struct {
	Operator
	sel bool
}

func (s *typedSource) NextVec() (*vec.Batch, bool, error) {
	slab, ok, err := s.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	if !s.sel {
		return vec.FromRows(s.Schema(), slab, nil), true, nil
	}
	b := vec.New(s.Schema())
	b.Sel = make([]int32, len(slab))
	for i, r := range slab {
		b.AppendRow(slab[(i+1)%len(slab)])
		b.AppendRow(r)
		b.Sel[i] = int32(2*i + 1)
	}
	return b, true, nil
}

// aggParityData is the table the front-end parity tests aggregate: every
// key kind, NULLs in an int and a string column, and a column declared INT
// that holds one string (its batch demotes to boxed). The floats are small
// dyadic fractions, so their sums and products are exact in any order and
// results compare bit for bit at every degree.
func aggParityData() (types.Schema, []types.Row) {
	sch := types.Schema{Cols: []types.Column{
		{Name: "i", Kind: types.KindInt}, {Name: "d", Kind: types.KindDate},
		{Name: "b", Kind: types.KindBool}, {Name: "s", Kind: types.KindString},
		{Name: "f", Kind: types.KindFloat}, {Name: "g", Kind: types.KindFloat},
		{Name: "n", Kind: types.KindInt}, {Name: "m", Kind: types.KindInt},
	}}
	rows := make([]types.Row, 600)
	for i := range rows {
		n := int64(i)
		r := types.Row{
			types.NewInt(n % 7), types.NewDate(19000 + n%5), types.NewBool(i%2 == 0),
			types.NewString(fmt.Sprintf("s%d", i%4)), types.NewFloat(float64(i%16) * 0.5),
			types.NewFloat(float64(i%4) * 0.25), types.NewInt(n), types.NewInt(n % 6),
		}
		if i%11 == 0 {
			r[0] = types.Null
		}
		if i%13 == 0 {
			r[3] = types.Null
		}
		rows[i] = r
	}
	rows[100][7] = types.NewString("odd")
	return sch, rows
}

// TestAggFrontEndParity feeds the same rows through both front ends of
// HashAggregate. The row front end at degree 1 with no budget is the oracle;
// the typed one must return the same multiset — exactly, floats included —
// at every degree, budget, batch size and with a selection vector, must box
// rows only where a key or argument has no typed reader, and must leave no
// spill file behind.
func TestAggFrontEndParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	sch, rows := aggParityData()
	mul := func(l, r expr.Expr) expr.Expr { return &expr.Bin{Op: expr.OpMul, L: l, R: r} }
	sum := func(e expr.Expr) AggSpec { return AggSpec{Kind: AggSum, Arg: e, Name: "s"} }
	count := AggSpec{Kind: AggCount, Name: "c"}
	cases := []struct {
		name  string
		keys  []expr.Expr
		specs []AggSpec
		boxed bool // some key or argument is read off the boxed row
	}{
		{"no key", nil, []AggSpec{count, sum(col(6)), sum(col(4)),
			{Kind: AggMin, Arg: col(1), Name: "lo"}, {Kind: AggAvg, Arg: col(5), Name: "a"}}, false},
		{"int key with NULLs", ColRefs(0), []AggSpec{sum(col(6)), {Kind: AggCount, Arg: col(0), Name: "c"},
			{Kind: AggMin, Arg: col(6), Name: "lo"}, {Kind: AggMax, Arg: col(6), Name: "hi"}}, false},
		{"date and bool keys", ColRefs(1, 2), []AggSpec{count,
			sum(mul(col(4), &expr.Bin{Op: expr.OpSub, L: cf(1), R: col(5)})), sum(mul(col(6), col(4)))}, false},
		{"string, int and date keys", ColRefs(3, 0, 1), []AggSpec{count, sum(col(6))}, false},
		{"float key", ColRefs(5), []AggSpec{count, {Kind: AggMax, Arg: col(1), Name: "hi"}}, false},
		{"expression key", []expr.Expr{add(col(0), ci(1))}, []AggSpec{sum(col(4))}, true},
		{"demoted key column", ColRefs(7), []AggSpec{count, sum(col(6))}, false},
		{"demoted argument column", ColRefs(2), []AggSpec{sum(col(7)), {Kind: AggMax, Arg: col(7), Name: "hi"}}, true},
		{"string argument", ColRefs(0), []AggSpec{{Kind: AggMax, Arg: col(3), Name: "hi"}}, true},
		{"CASE argument", ColRefs(1), []AggSpec{sum(&expr.Case{
			Whens: []expr.When{{Cond: col(2), Then: col(6)}}, Else: ci(0)}), count}, true},
		{"DISTINCT", ColRefs(2), []AggSpec{{Kind: AggCount, Arg: col(0), Distinct: true, Name: "c"},
			{Kind: AggSum, Arg: col(4), Distinct: true, Name: "s"}}, false},
	}
	for _, c := range cases {
		for _, mode := range []AggMode{AggComplete, AggPartial} {
			want, err := Collect(NewHashAggregate(NewCtx("", 0), NewSource(sch, rows), c.keys, c.specs, mode))
			if err != nil {
				t.Fatal(err)
			}
			for _, degree := range []int{1, 4} {
				for _, memRows := range []int{0, 3} {
					for _, batch := range []int{1, 7, 1024} {
						for _, sel := range []bool{false, true} {
							name := fmt.Sprintf("%s/mode %d/degree %d/mem %d/batch %d/sel %v", c.name, mode, degree, memRows, batch, sel)
							t.Run(name, func(t *testing.T) {
								dir := t.TempDir()
								ctx := NewCtx(dir, memRows)
								ctx.BatchRows = batch
								ctx.SetParallelBudget(degree)
								agg := NewTypedHashAggregate(ctx, &typedSource{Operator: slabSource(sch, rows, batch), sel: sel}, c.keys, c.specs, mode)
								agg.Parallel = degree
								got, err := Collect(agg)
								if err != nil {
									t.Fatal(err)
								}
								assertSameRows(t, got, want)
								if memRows == 0 && (ctx.BoxedRows.Load() > 0) != c.boxed {
									t.Errorf("BoxedRows = %d, want boxing: %v", ctx.BoxedRows.Load(), c.boxed)
								}
								if memRows > 0 && len(want) > memRows && ctx.SpillFiles.Load() == 0 {
									t.Errorf("%d groups under a budget of %d and nothing spilled", len(want), memRows)
								}
								if left := spillLeftovers(t, dir); len(left) > 0 {
									t.Errorf("%d leftovers after Close, e.g. %s", len(left), left[0])
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestAggKeyBytesMatchRowEncoding: the typed front end files every row under
// types.AppendRow of its boxed key — for every kind, NULL, and a value whose
// kind is not its column's — which is what lets a row it spilled rejoin its
// group through the row front end.
func TestAggKeyBytesMatchRowEncoding(t *testing.T) {
	sch, rows := aggParityData()
	keys := ColRefs(0, 1, 2, 3, 5, 7)
	for _, sel := range []bool{false, true} {
		h := NewTypedHashAggregate(NewCtx("", 0), emptyTyped(sch), keys, []AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
		tbl := h.newAggTable(1, 0)
		src := &typedSource{Operator: slabSource(sch, rows, 64), sel: sel}
		for {
			b, ok, err := src.NextVec()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if err := tbl.ingestBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		want := map[string]int64{}
		for _, r := range rows {
			key := make(types.Row, len(keys))
			for i, k := range keys {
				key[i] = r[k.(*expr.Col).Index]
			}
			want[string(types.AppendRow(nil, key))]++
		}
		if len(tbl.parts[0]) != len(want) {
			t.Fatalf("sel %v: %d groups, want %d", sel, len(tbl.parts[0]), len(want))
		}
		for k, n := range want {
			g, ok := tbl.parts[0][k]
			if !ok {
				t.Fatalf("sel %v: no group under the row encoding %q", sel, k)
			}
			if g.states[0].count != n {
				t.Fatalf("sel %v: group %q counts %d rows, want %d", sel, k, g.states[0].count, n)
			}
		}
	}
}

// emptyTyped is a typed input of the given schema with no rows.
func emptyTyped(sch types.Schema) VecOperator { return &typedSource{Operator: NewSource(sch, nil)} }

// nullify returns a copy of rows with NULLs injected: col a on every 3rd
// row and col b on every 5th.
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

// TestVecOperatorsCompose stacks vector operators through both adapter
// seams — a vector join read as rows by the aggregate (vecRowShim), the
// aggregate's rows read as batches by a projection (ToVec) holding an
// expression with no kernel (LIKE), so it evaluates row-wise — over a key
// column that holds a value of the wrong kind, and demands the slab
// operators' result.
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
	agg := NewHashAggregate(ctx, join, ColRefs(status), specs, AggComplete)
	got, err := Collect(NewVecProject(ctx, ToVec(agg), exprs, names))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 { // F, O, P and the integer 7
		t.Fatalf("baseline groups = %d, want 4", len(want))
	}
	// Both shims box: the join's rows for the aggregate, the projection's
	// for Collect.
	if n := ctx.BoxedRows.Load(); n != int64(len(d.Lineitem)+len(want)) {
		t.Errorf("BoxedRows = %d, want %d joined rows + %d projected", n, len(d.Lineitem), len(want))
	}
	assertSameRows(t, got, want)
}
