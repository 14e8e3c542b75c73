package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

func intSchema(names ...string) types.Schema {
	cols := make([]types.Column, len(names))
	for i, n := range names {
		cols[i] = types.Column{Name: n, Kind: types.KindInt}
	}
	return types.Schema{Cols: cols}
}

func intRows(vals ...[]int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, v := range vals {
		r := make(types.Row, len(v))
		for j, x := range v {
			r[j] = types.NewInt(x)
		}
		out[i] = r
	}
	return out
}

func col(i int) *expr.Col          { return &expr.Col{Index: i, Name: fmt.Sprintf("c%d", i)} }
func ci(v int64) *expr.Const       { return &expr.Const{V: types.NewInt(v)} }
func gt(l, r expr.Expr) *expr.Bin  { return &expr.Bin{Op: expr.OpGt, L: l, R: r} }
func eq(l, r expr.Expr) *expr.Bin  { return &expr.Bin{Op: expr.OpEq, L: l, R: r} }
func add(l, r expr.Expr) *expr.Bin { return &expr.Bin{Op: expr.OpAdd, L: l, R: r} }

func TestFilterProject(t *testing.T) {
	src := NewSource(intSchema("a", "b"), intRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}))
	f := NewFilter(nil, src, gt(col(0), ci(1)))
	p := NewProject(nil, f, []expr.Expr{add(col(0), col(1))}, []string{"s"})
	rows, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 22 || rows[1][0].Int() != 33 {
		t.Fatalf("rows = %v", rows)
	}
	if p.Schema().Cols[0].Name != "s" || p.Schema().Cols[0].Kind != types.KindInt {
		t.Errorf("schema = %v", p.Schema())
	}
}

func TestLimitOffset(t *testing.T) {
	src := NewSource(intSchema("a"), intRows([]int64{1}, []int64{2}, []int64{3}, []int64{4}, []int64{5}))
	rows, err := Collect(NewLimit(src, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 2 || rows[1][0].Int() != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestPassThroughOperatorsKeepSchema: an operator that only drops, orders or
// guards rows reports its child's schema — what plan.Execute binds the
// operator above it against.
func TestPassThroughOperatorsKeepSchema(t *testing.T) {
	sch := intSchema("a", "b")
	for name, op := range map[string]Operator{
		"Limit": NewLimit(NewSource(sch, nil), 1, 0),
		"TopK":  NewTopK(nil, NewSource(sch, nil), []SortKey{{Col: 0}}, 1),
		"Guard": Guard(NewCancel(), NewSource(sch, nil)),
	} {
		if got := op.Schema(); got.Len() != 2 || got.Cols[1].Name != "b" {
			t.Errorf("%s schema = %v, want the child's", name, got)
		}
	}
}

func TestUnionDistinct(t *testing.T) {
	a := NewSource(intSchema("a"), intRows([]int64{1}, []int64{2}))
	b := NewSource(intSchema("a"), intRows([]int64{2}, []int64{3}))
	rows, err := Collect(NewHashAggregate(nil, NewUnion(a, b), ColRefs(0), nil, AggComplete))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct union = %v", rows)
	}
}

func TestHashAggregateComplete(t *testing.T) {
	src := NewSource(intSchema("g", "v"), intRows(
		[]int64{1, 10}, []int64{2, 5}, []int64{1, 20}, []int64{2, 7}, []int64{3, 1},
	))
	agg := NewHashAggregate(nil, src, ColRefs(0), []AggSpec{
		{Kind: AggSum, Arg: col(1), Name: "s"},
		{Kind: AggCount, Arg: nil, Name: "c"},
		{Kind: AggAvg, Arg: col(1), Name: "a"},
		{Kind: AggMin, Arg: col(1), Name: "mn"},
		{Kind: AggMax, Arg: col(1), Name: "mx"},
	}, AggComplete)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	byG := map[int64]types.Row{}
	for _, r := range rows {
		byG[r[0].Int()] = r
	}
	g1 := byG[1]
	if g1[1].Int() != 30 || g1[2].Int() != 2 || g1[3].Float() != 15 || g1[4].Int() != 10 || g1[5].Int() != 20 {
		t.Errorf("group 1 = %v", g1)
	}
}

func TestHashAggregateNoGroupByEmptyInput(t *testing.T) {
	src := NewSource(intSchema("v"), nil)
	agg := NewHashAggregate(nil, src, nil, []AggSpec{
		{Kind: AggCount, Name: "c"},
		{Kind: AggSum, Arg: col(0), Name: "s"},
	}, AggComplete)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("scalar aggregate on empty input must yield one row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty agg = %v (COUNT=0, SUM=NULL expected)", rows[0])
	}
}

func TestHashAggregatePartialFinal(t *testing.T) {
	// Simulate the paper's pre-aggregation: two workers partially
	// aggregate, the coordinator merges to final.
	mk := func(rows []types.Row) *HashAggregate {
		src := NewSource(intSchema("g", "v"), rows)
		return NewHashAggregate(nil, src, ColRefs(0), []AggSpec{
			{Kind: AggAvg, Arg: col(1), Name: "a"},
			{Kind: AggCount, Name: "c"},
		}, AggPartial)
	}
	w1, err := Collect(mk(intRows([]int64{1, 10}, []int64{2, 4})))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Collect(mk(intRows([]int64{1, 30}, []int64{2, 6}, []int64{1, 20})))
	if err != nil {
		t.Fatal(err)
	}
	partialSchema := mk(nil).Schema()
	merged := NewSource(partialSchema, append(w1, w2...))
	final := NewHashAggregate(nil, merged, ColRefs(0), []AggSpec{
		{Kind: AggAvg, Name: "a"},
		{Kind: AggCount, Name: "c"},
	}, AggFinal)
	rows, err := Collect(final)
	if err != nil {
		t.Fatal(err)
	}
	byG := map[int64]types.Row{}
	for _, r := range rows {
		byG[r[0].Int()] = r
	}
	if byG[1][1].Float() != 20 { // avg(10,30,20)
		t.Errorf("avg group 1 = %v", byG[1])
	}
	if byG[1][2].Int() != 3 || byG[2][2].Int() != 2 {
		t.Errorf("counts = %v / %v", byG[1], byG[2])
	}
}

// TestHashAggregateIntSumExactAcrossMerge: an INT sum stays an int64 through
// Partial and Final, so 2⁵³+1 and 2 add up to 2⁵³+3, which no float64 holds.
func TestHashAggregateIntSumExactAcrossMerge(t *testing.T) {
	specs := []AggSpec{{Kind: AggSum, Arg: col(1), Name: "s"}}
	partial := func(v int64) *HashAggregate {
		return NewHashAggregate(nil, NewSource(intSchema("g", "v"), intRows([]int64{1, v})), ColRefs(0), specs, AggPartial)
	}
	var states []types.Row
	for _, v := range []int64{1<<53 + 1, 2} {
		rows, err := Collect(partial(v))
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, rows...)
	}
	final := NewHashAggregate(nil, NewSource(partial(0).Schema(), states), ColRefs(0), specs, AggFinal)
	rows, err := Collect(final)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0][1]; got.K != types.KindInt || got.I != 1<<53+3 {
		t.Errorf("sum = %v (%v), want INT %d", got, got.K, int64(1<<53+3))
	}
	if k := final.Schema().Cols[1].Kind; k != types.KindInt {
		t.Errorf("final column kind = %v, want INT", k)
	}
}

// TestHashAggregateSumOfMixedKinds: a SUM whose argument is FLOAT on some
// rows and INT on others adds every value exactly, as a FLOAT, in Complete
// mode and through Partial and Final — whether the argument is a CASE whose
// branches disagree on kind (declared FLOAT), from either front end, or a
// column declared INT that holds FLOATs (its sum turns FLOAT on the first),
// from the row front end: storage refuses such a column, so no typed batch
// holds one.
func TestHashAggregateSumOfMixedKinds(t *testing.T) {
	sch := types.Schema{Cols: []types.Column{
		{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}, {Name: "f", Kind: types.KindFloat}}}
	var rows, mixed []types.Row // mixed: v holds FLOAT 0.5 where k ≤ 2
	for k := int64(1); k <= 4; k++ {
		r := types.Row{types.NewInt(k), types.NewInt(k), types.NewFloat(float64(k) / 4)}
		rows = append(rows, r)
		if k <= 2 {
			r = types.Row{r[0], types.NewFloat(0.5), r[2]}
		}
		mixed = append(mixed, r)
	}
	gt2 := gt(col(0), ci(2))
	cases := []struct {
		name     string
		arg      expr.Expr
		want     float64
		declared types.Kind
		mixed    bool // reads mixed, from the row front end only
	}{
		{"CASE WHEN k > 2 THEN 1 ELSE 0.5 END", &expr.Case{Whens: []expr.When{{Cond: gt2, Then: ci(1)}}, Else: cf(0.5)}, 3, types.KindFloat, false},
		{"CASE WHEN k > 2 THEN 0 ELSE f END", &expr.Case{Whens: []expr.When{{Cond: gt2, Then: ci(0)}}, Else: col(2)}, 0.75, types.KindFloat, false},
		{"v, declared INT", col(1), 8, types.KindInt, true},
	}
	for _, c := range cases {
		rows := rows
		if c.mixed {
			rows = mixed
		}
		specs := []AggSpec{{Kind: AggSum, Arg: c.arg, Name: "s"}}
		agg := func(typed bool, in []types.Row, mode AggMode) *HashAggregate {
			if typed {
				return NewTypedHashAggregate(NewCtx("", 0), &typedSource{Operator: slabSource(sch, in, 2)}, nil, specs, mode)
			}
			return NewHashAggregate(NewCtx("", 0), NewSource(sch, in), nil, specs, mode)
		}
		for _, typed := range []bool{false, true} {
			if typed && c.mixed {
				continue
			}
			complete := agg(typed, rows, AggComplete)
			if k := complete.Schema().Cols[0].Kind; k != c.declared {
				t.Errorf("%s: column kind %v, want %v", c.name, k, c.declared)
			}
			var states []types.Row
			for _, half := range [][]types.Row{rows[:2], rows[2:]} {
				part, err := Collect(agg(typed, half, AggPartial))
				if err != nil {
					t.Fatal(err)
				}
				states = append(states, part...)
			}
			final := NewHashAggregate(nil, NewSource(agg(typed, nil, AggPartial).Schema(), states), nil, specs, AggFinal)
			for mode, op := range map[string]*HashAggregate{"complete": complete, "partial then final": final} {
				got, err := Collect(op)
				if err != nil {
					t.Fatal(err)
				}
				if v := got[0][0]; v.K != types.KindFloat || v.F != c.want {
					t.Errorf("%s, typed %v, %s: sum = %v (%v), want FLOAT %v", c.name, typed, mode, v, v.K, c.want)
				}
			}
		}
	}
}

// TestHashAggregateEmitsInArrivalOrder: at degree 1 the same input gives the
// same output order on every run, from either front end, and that order is
// the groups' first arrival.
func TestHashAggregateEmitsInArrivalOrder(t *testing.T) {
	var rows [][]int64
	var want []int64
	for i := int64(0); i < 200; i++ {
		k := (i * 37) % 50
		if i < 50 {
			want = append(want, k)
		}
		rows = append(rows, []int64{k, i})
	}
	sch := intSchema("k", "v")
	specs := []AggSpec{{Kind: AggSum, Arg: col(1), Name: "s"}}
	for run := 0; run < 5; run++ {
		for _, typed := range []bool{false, true} {
			var agg *HashAggregate
			if typed {
				agg = NewTypedHashAggregate(NewCtx("", 0), &typedSource{Operator: slabSource(sch, intRows(rows...), 16)}, ColRefs(0), specs, AggComplete)
			} else {
				agg = NewHashAggregate(NewCtx("", 0), NewSource(sch, intRows(rows...)), ColRefs(0), specs, AggComplete)
			}
			got, err := Collect(agg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d groups, want %d", len(got), len(want))
			}
			for i, r := range got {
				if r[0].Int() != want[i] {
					t.Fatalf("run %d, typed %v: group %d is %d, want %d (first-arrival order)", run, typed, i, r[0].Int(), want[i])
				}
			}
		}
	}
}

func TestHashAggregateSpill(t *testing.T) {
	ctx := NewCtx(t.TempDir(), 10) // only 10 groups in memory
	var rows []types.Row
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, types.Row{types.NewInt(i % 100), types.NewInt(i)})
	}
	src := NewSource(intSchema("g", "v"), rows)
	agg := NewHashAggregate(ctx, src, ColRefs(0), []AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("groups = %d, want 100", len(out))
	}
	for _, r := range out {
		if r[1].Int() != 10 {
			t.Fatalf("group %d count = %d", r[0].Int(), r[1].Int())
		}
	}
	if ctx.SpillFiles.Load() == 0 {
		t.Error("expected spilling with tiny budget")
	}
}

func TestCountDistinct(t *testing.T) {
	src := NewSource(intSchema("g", "v"), intRows(
		[]int64{1, 5}, []int64{1, 5}, []int64{1, 7}, []int64{2, 5},
	))
	agg := NewHashAggregate(nil, src, ColRefs(0), []AggSpec{
		{Kind: AggCount, Arg: col(1), Distinct: true, Name: "cd"},
	}, AggComplete)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	byG := map[int64]int64{}
	for _, r := range rows {
		byG[r[0].Int()] = r[1].Int()
	}
	if byG[1] != 2 || byG[2] != 1 {
		t.Errorf("count distinct = %v", byG)
	}
}

func TestSortInMemory(t *testing.T) {
	src := NewSource(intSchema("a", "b"), intRows(
		[]int64{3, 1}, []int64{1, 2}, []int64{2, 3}, []int64{1, 1},
	))
	s := NewSort(nil, src, []SortKey{{Col: 0}, {Col: 1, Desc: true}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 2}, {1, 1}, {2, 3}, {3, 1}}
	for i, w := range want {
		if rows[i][0].Int() != w[0] || rows[i][1].Int() != w[1] {
			t.Fatalf("rows = %v", rows)
		}
	}
}

func TestSortExternalSpill(t *testing.T) {
	ctx := NewCtx(t.TempDir(), 50)
	rng := rand.New(rand.NewSource(3))
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(rng.Intn(10000)))})
	}
	src := NewSource(intSchema("a"), rows)
	s := NewSort(ctx, src, []SortKey{{Col: 0}})
	out, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("rows = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i][0].Int() < out[i-1][0].Int() {
			t.Fatalf("out of order at %d", i)
		}
	}
	if ctx.SpillFiles.Load() == 0 {
		t.Error("expected sort runs to spill")
	}
}

func TestTopK(t *testing.T) {
	var rows []types.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, types.Row{types.NewInt(i)})
	}
	rand.New(rand.NewSource(1)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	src := NewSource(intSchema("a"), rows)
	// Top 5 by descending a: 99..95.
	tk := NewTopK(nil, src, []SortKey{{Col: 0, Desc: true}}, 5)
	out, err := Collect(tk)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("topk = %v", out)
	}
	for i, want := range []int64{99, 98, 97, 96, 95} {
		if out[i][0].Int() != want {
			t.Fatalf("topk = %v", out)
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	src := NewSource(intSchema("a"), intRows([]int64{2}, []int64{1}))
	out, err := Collect(NewTopK(nil, src, []SortKey{{Col: 0}}, 10))
	if err != nil || len(out) != 2 || out[0][0].Int() != 1 {
		t.Fatalf("out = %v err=%v", out, err)
	}
}

func TestHashJoinInner(t *testing.T) {
	probe := NewSource(intSchema("pk", "pv"), intRows([]int64{1, 100}, []int64{2, 200}, []int64{3, 300}))
	build := NewSource(intSchema("bk", "bv"), intRows([]int64{1, 11}, []int64{3, 33}, []int64{3, 34}))
	j := NewHashJoin(nil, probe, build, ColRefs(0), ColRefs(0), JoinInner, nil, 1)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 1 match + 2 matches for key 3
		t.Fatalf("join rows = %v", rows)
	}
	if j.Schema().Len() != 4 {
		t.Errorf("join schema = %v", j.Schema())
	}
}

func TestHashJoinResidual(t *testing.T) {
	probe := NewSource(intSchema("pk", "pv"), intRows([]int64{1, 100}, []int64{1, 5}))
	build := NewSource(intSchema("bk", "bv"), intRows([]int64{1, 50}))
	// Residual: pv > bv (probe col 1 vs build col 1 = joined col 3).
	resid := gt(col(1), col(3))
	j := NewHashJoin(nil, probe, build, ColRefs(0), ColRefs(0), JoinInner, resid, 1)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].Int() != 100 {
		t.Fatalf("residual join = %v", rows)
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	probe := NewSource(intSchema("pk"), intRows([]int64{1}, []int64{2}, []int64{3}))
	buildRows := intRows([]int64{2}, []int64{2}, []int64{3})
	semi := NewHashJoin(nil, probe, NewSource(intSchema("bk"), buildRows), ColRefs(0), ColRefs(0), JoinSemi, nil, 1)
	rows, err := Collect(semi)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // 2 and 3, each ONCE despite duplicate build keys
		t.Fatalf("semi = %v", rows)
	}
	probe2 := NewSource(intSchema("pk"), intRows([]int64{1}, []int64{2}, []int64{3}))
	anti := NewHashJoin(nil, probe2, NewSource(intSchema("bk"), buildRows), ColRefs(0), ColRefs(0), JoinAnti, nil, 1)
	rows, err = Collect(anti)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("anti = %v", rows)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	probe := NewSource(intSchema("pk"), []types.Row{{types.Null}, {types.NewInt(1)}})
	build := NewSource(intSchema("bk"), []types.Row{{types.Null}, {types.NewInt(1)}})
	j := NewHashJoin(nil, probe, build, ColRefs(0), ColRefs(0), JoinInner, nil, 1)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("null keys matched: %v", rows)
	}
}

func TestHashJoinParallelProbe(t *testing.T) {
	var probeRows, buildRows []types.Row
	for i := int64(0); i < 5000; i++ {
		probeRows = append(probeRows, types.Row{types.NewInt(i % 100), types.NewInt(i)})
	}
	for i := int64(0); i < 100; i += 2 {
		buildRows = append(buildRows, types.Row{types.NewInt(i)})
	}
	probe := NewSource(intSchema("pk", "pv"), probeRows)
	build := NewSource(intSchema("bk"), buildRows)
	j := NewHashJoin(nil, probe, build, ColRefs(0), ColRefs(0), JoinInner, nil, 4)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2500 { // even keys: 50 keys × 50 probe rows each
		t.Fatalf("parallel join rows = %d, want 2500", len(rows))
	}
}

// TestJoinSlabsFitWhatTheyHold: a probe worker that emits a handful of rows
// ships them in a slab sized to them, not a full batch of row headers, and
// holds no slab after its last shipment; a worker whose slabs fill ships
// full ones.
func TestJoinSlabsFitWhatTheyHold(t *testing.T) {
	for _, c := range []struct {
		name  string
		probe int64 // probe rows, one match each
	}{{"handful", 12}, {"fills", 5000}} {
		t.Run(c.name, func(t *testing.T) {
			var probeRows, buildRows []types.Row
			for i := int64(0); i < c.probe; i++ {
				probeRows = append(probeRows, types.Row{types.NewInt(i), types.NewInt(i)})
				buildRows = append(buildRows, types.Row{types.NewInt(i)})
			}
			ctx := NewCtx("", 0)
			ctx.SetParallelBudget(4)
			ctx.BatchRows = 1024
			j := NewHashJoin(ctx, slabSource(intSchema("pk", "pv"), probeRows, 3), NewSource(intSchema("bk"), buildRows),
				ColRefs(0), ColRefs(0), JoinInner, nil, 4)
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			rows, full := 0, 0
			for {
				slab, ok, err := j.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rows += len(slab)
				if len(slab) == ctx.BatchRows {
					full++
				}
				if c.probe < int64(ctx.BatchRows) && cap(slab) > 2*max(len(slab), firstSlabRows) {
					t.Fatalf("a slab of %d rows has room for %d", len(slab), cap(slab))
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if rows != int(c.probe) || (c.probe > 4*int64(ctx.BatchRows)) != (full > 0) {
				t.Fatalf("%d rows in %d full slabs, want %d", rows, full, c.probe)
			}
		})
	}
	h := &HashJoin{results: make(chan []types.Row, 1)}
	em := &joinEmitter{h: h, size: 4}
	for i := 0; i < 3; i++ {
		if err := em.emit(types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := em.flush(); err != nil {
		t.Fatal(err)
	}
	if em.slab != nil {
		t.Fatalf("the emitter holds a slab of capacity %d after its last shipment", cap(em.slab))
	}
}

func TestHashJoinGraceSpill(t *testing.T) {
	ctx := NewCtx(t.TempDir(), 64) // build side must spill
	var probeRows, buildRows []types.Row
	for i := int64(0); i < 2000; i++ {
		buildRows = append(buildRows, types.Row{types.NewInt(i), types.NewInt(i * 10)})
	}
	for i := int64(0); i < 500; i++ {
		probeRows = append(probeRows, types.Row{types.NewInt(i * 4)})
	}
	probe := NewSource(intSchema("pk"), probeRows)
	build := NewSource(intSchema("bk", "bv"), buildRows)
	j := NewHashJoin(ctx, probe, build, ColRefs(0), ColRefs(0), JoinInner, nil, 1)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("grace join rows = %d, want 500", len(rows))
	}
	if ctx.SpillFiles.Load() == 0 {
		t.Error("expected grace join to spill")
	}
	for _, r := range rows {
		if r[2].Int() != r[0].Int()*10 {
			t.Fatalf("bad join pair %v", r)
		}
	}
}

func TestHashJoinGraceAnti(t *testing.T) {
	ctx := NewCtx(t.TempDir(), 16)
	var buildRows []types.Row
	for i := int64(0); i < 100; i++ {
		buildRows = append(buildRows, types.Row{types.NewInt(i)})
	}
	probe := NewSource(intSchema("pk"), intRows([]int64{5}, []int64{500}))
	build := NewSource(intSchema("bk"), buildRows)
	j := NewHashJoin(ctx, probe, build, ColRefs(0), ColRefs(0), JoinAnti, nil, 1)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 500 {
		t.Fatalf("grace anti = %v", rows)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	left := NewSource(intSchema("a"), intRows([]int64{1}, []int64{5}))
	right := NewSource(intSchema("b"), intRows([]int64{2}, []int64{3}))
	// Non-equi condition a < b.
	cond := &expr.Bin{Op: expr.OpLt, L: col(0), R: col(1)}
	j := NewNestedLoopJoin(nil, left, right, cond, JoinInner)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // 1<2, 1<3
		t.Fatalf("nlj = %v", rows)
	}
	// Anti: rows with no b > a.
	left2 := NewSource(intSchema("a"), intRows([]int64{1}, []int64{5}))
	right2 := NewSource(intSchema("b"), intRows([]int64{2}, []int64{3}))
	anti := NewNestedLoopJoin(nil, left2, right2, cond, JoinAnti)
	rows, err = Collect(anti)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 5 {
		t.Fatalf("nlj anti = %v err=%v", rows, err)
	}
}

// TestJoinTableChains loads a join table the way a worker's build meets it
// after a shuffle: 10,000 distinct keys whose hashes all leave the same
// remainder modulo the worker count, so their low bits are constant. A slot
// from the high bits of hash × φ keeps every chain short; one from the low
// bits would use a 1/workers share of the slots. Every row is found under its
// own hash, a second row of a key follows the first, and the hash keyHasher
// files a row under is the probe's, types.HashRow of the key row.
func TestJoinTableChains(t *testing.T) {
	for _, workers := range []uint64{4, 1024} {
		t.Run(fmt.Sprintf("hash %% %d shared", workers), func(t *testing.T) {
			keys := newKeyHasher(ColRefs(0), 2)
			table := &joinTable{}
			for k := int64(0); len(table.rows) < 10000; k++ {
				r := types.Row{types.NewInt(k), types.NewInt(int64(len(table.rows)))}
				hk, err := keys.hash(r)
				if err != nil {
					t.Fatal(err)
				}
				if hk%workers == 0 {
					table.add(r, hk)
				}
			}
			if hk := table.hashes[0]; hk != types.HashRow(types.Row{table.rows[0][0]}, []int{0}) {
				t.Fatalf("keyHasher filed key %v under %x, the probe hashes it to something else", table.rows[0][0], hk)
			}
			table.add(types.Row{table.rows[0][0], types.NewInt(10000)}, table.hashes[0])
			table.seal(false)
			longest := 0
			for _, i := range table.heads {
				n := 0
				for ; i >= 0; i = table.next[i] {
					n++
				}
				longest = max(longest, n)
			}
			if longest > 16 {
				t.Errorf("longest chain %d over %d slots, want at most 16", longest, len(table.heads))
			}
			for i := 1; i < 10000; i++ {
				if j := table.first(table.hashes[i]); j != int32(i) || table.after(j) != -1 {
					t.Fatalf("row %d: first %d, after it %d", i, j, table.after(j))
				}
			}
			if j := table.first(table.hashes[0]); j != 0 || table.after(0) != 10000 || table.after(10000) != -1 {
				t.Fatalf("a key filed twice: first %d, then %d — want 0, then 10000", j, table.after(0))
			}
		})
	}
}

// TestGracePartitionsSpreadAfterShuffle: on a worker of four every key has
// the same hash % 4, since Shuffle and placement route by it. The Grace
// partition must not read those bits: such keys fill all of its partitions
// about evenly, and the keys of one partition still spread over a join
// table's slots.
func TestGracePartitionsSpreadAfterShuffle(t *testing.T) {
	keys := newKeyHasher(ColRefs(0), 1)
	perPart := make([]int, DefaultGraceFanout)
	total := 0
	table := &joinTable{}
	for k := int64(0); len(table.rows) < 10000; k++ {
		r := types.Row{types.NewInt(k)}
		hk, err := keys.hash(r)
		if err != nil {
			t.Fatal(err)
		}
		if hk%4 != 1 {
			continue
		}
		p := gracePart(hk)
		perPart[p]++
		total++
		if p == 5 {
			table.add(r, hk)
		}
	}
	for p, n := range perPart {
		if n < total/DefaultGraceFanout/2 {
			t.Errorf("partition %d holds %d of %d keys that share hash %% 4: %v", p, n, total, perPart)
		}
	}
	table.seal(false)
	longest := 0
	for _, i := range table.heads {
		n := 0
		for ; i >= 0; i = table.next[i] {
			n++
		}
		longest = max(longest, n)
	}
	if longest > 16 {
		t.Errorf("one partition's keys: longest chain %d over %d slots, want at most 16", longest, len(table.heads))
	}
}

// TestJoinTableAbsentHashes checks that the table is the join's exact
// membership test: a hash no row was filed under is never found, even where
// its slot holds rows of other hashes, an empty table finds nothing, and no
// filed hash is missed.
func TestJoinTableAbsentHashes(t *testing.T) {
	empty := &joinTable{}
	empty.seal(false)
	if j := empty.first(7919); j != -1 {
		t.Fatalf("empty table: first = %d, want -1", j)
	}
	r := rand.New(rand.NewSource(11))
	table, filed := &joinTable{}, map[uint64]bool{}
	for len(table.rows) < 1000 {
		hk := r.Uint64()
		if !filed[hk] {
			filed[hk] = true
			table.add(types.Row{types.NewInt(int64(len(table.rows)))}, hk)
		}
	}
	table.seal(false)
	for i, hk := range table.hashes {
		if j := table.first(hk); j != int32(i) {
			t.Fatalf("row %d filed under %x: first = %d", i, hk, j)
		}
	}
	decoys := 0
	for n := 0; n < 10000; n++ {
		hk := r.Uint64()
		if filed[hk] {
			continue
		}
		if table.heads[table.slot(hk)] >= 0 {
			decoys++
		}
		if j := table.first(hk); j != -1 {
			t.Fatalf("absent hash %x found at row %d, filed under %x", hk, j, table.hashes[j])
		}
	}
	if decoys == 0 {
		t.Fatal("no absent hash falls in an occupied slot — the test checks nothing")
	}
}

func TestMergeOperators(t *testing.T) {
	a := NewSource(intSchema("x"), intRows([]int64{1}, []int64{4}, []int64{9}))
	b := NewSource(intSchema("x"), intRows([]int64{2}, []int64{3}, []int64{10}))
	c := NewSource(intSchema("x"), intRows([]int64{5}))
	m := NewMergeOperators([]Operator{a, b, c}, []SortKey{{Col: 0}})
	rows, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 4, 5, 9, 10}
	if len(rows) != len(want) {
		t.Fatalf("merge = %v", rows)
	}
	for i, w := range want {
		if rows[i][0].Int() != w {
			t.Fatalf("merge = %v", rows)
		}
	}
}

func TestSpillRoundTrip(t *testing.T) {
	ctx := NewCtx(t.TempDir(), 0)
	w, err := newSpillWriter(ctx, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	want := []types.Row{
		{types.NewInt(1), types.NewString("x")},
		{types.Null, types.NewFloat(2.5)},
	}
	for _, r := range want {
		if err := w.write(r); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.close()
	for i := range want {
		r, ok, err := rd.next()
		if err != nil || !ok {
			t.Fatalf("read %d: %v %v", i, ok, err)
		}
		if types.Compare(r[0], want[i][0]) != 0 {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if _, ok, _ := rd.next(); ok {
		t.Error("extra rows after end")
	}
}

func TestParallelBudgetAdaptsDegree(t *testing.T) {
	ctx := NewCtx(t.TempDir(), 0)
	ctx.SetParallelBudget(3)
	// First acquire takes the whole budget beyond the free degree.
	if got := ctx.AcquireWorkers(8); got != 4 { // 1 free + 3 tokens
		t.Fatalf("first acquire = %d, want 4", got)
	}
	// A concurrent operator degrades to a single thread.
	if got := ctx.AcquireWorkers(8); got != 1 {
		t.Fatalf("second acquire under load = %d, want 1", got)
	}
	ctx.ReleaseWorkers(4)
	if got := ctx.AcquireWorkers(2); got != 2 {
		t.Fatalf("after release = %d, want 2", got)
	}
	ctx.ReleaseWorkers(2)
	// No budget configured: requests granted in full.
	free := NewCtx(t.TempDir(), 0)
	if got := free.AcquireWorkers(6); got != 6 {
		t.Fatalf("unbudgeted acquire = %d", got)
	}
	// Joins still work under a zero budget (degrade to 1 thread).
	zero := NewCtx(t.TempDir(), 0)
	zero.SetParallelBudget(0)
	probe := NewSource(intSchema("k"), intRows([]int64{1}, []int64{2}))
	build := NewSource(intSchema("k"), intRows([]int64{2}))
	j := NewHashJoin(zero, probe, build, ColRefs(0), ColRefs(0), JoinInner, nil, 8)
	rows, err := Collect(j)
	if err != nil || len(rows) != 1 {
		t.Fatalf("join under zero budget: %v %v", rows, err)
	}
}
