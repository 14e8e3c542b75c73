package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/testutil"
	"repro/internal/types"
	"repro/internal/vec"
)

func lt(l, r expr.Expr) *expr.Bin { return &expr.Bin{Op: expr.OpLt, L: l, R: r} }
func cf(v float64) *expr.Const    { return &expr.Const{V: types.NewFloat(v)} }
func cs(s string) *expr.Const     { return &expr.Const{V: types.NewString(s)} }

// typedSource serves a row producer's slabs as typed batches taken from the
// pools (vec.Get), as a scan serves them — the contract
// NewTypedHashAggregate and NewTypedProbeHashJoin ask of their input — so a
// consumer that reads a batch after releasing it reads what an invariants
// build writes over a recycled slab. The string columns boxed marks are
// laid out FormBoxed for the whole stream, as ScanConfig.Boxed lays them out
// on a row scan. With sel set every row is preceded by a decoy (its
// neighbour in the slab) that is in the columns but not in Sel, so a reader
// that ignores Sel counts it.
type typedSource struct {
	Operator
	sel   bool
	boxed []bool // by column
}

func (s *typedSource) NextVec() (*vec.Batch, bool, error) {
	slab, ok, err := s.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	b := vec.Get(s.Schema(), s.boxed)
	if !s.sel {
		for _, r := range slab {
			b.AppendRow(r)
		}
		return b, true, nil
	}
	b.Sel = make([]int32, len(slab))
	for i, r := range slab {
		b.AppendRow(slab[(i+1)%len(slab)])
		b.AppendRow(r)
		b.Sel[i] = int32(2*i + 1)
	}
	return b, true, nil
}

// aggParityData is the table the front-end parity tests aggregate: every
// key kind, NULLs in an int, a float and three string columns, a string
// column with a value per row, and a string column w that a typed stream
// lays out boxed (the mask it returns, for typedSource). The floats are
// small dyadic fractions, so their sums and products are exact in any order
// and results compare bit for bit at every degree.
func aggParityData() (types.Schema, []types.Row, []bool) {
	sch := types.Schema{Cols: []types.Column{
		{Name: "i", Kind: types.KindInt}, {Name: "d", Kind: types.KindDate},
		{Name: "b", Kind: types.KindBool}, {Name: "s", Kind: types.KindString},
		{Name: "f", Kind: types.KindFloat}, {Name: "g", Kind: types.KindFloat},
		{Name: "n", Kind: types.KindInt}, {Name: "m", Kind: types.KindInt},
		{Name: "h", Kind: types.KindFloat}, {Name: "t", Kind: types.KindString},
		{Name: "u", Kind: types.KindString}, {Name: "w", Kind: types.KindString},
	}}
	rows := make([]types.Row, 600)
	for i := range rows {
		n := int64(i)
		r := types.Row{
			types.NewInt(n % 7), types.NewDate(19000 + n%5), types.NewBool(i%2 == 0),
			types.NewString(fmt.Sprintf("s%d", i%4)), types.NewFloat(float64(i%16) * 0.5),
			types.NewFloat(float64(i%4) * 0.25), types.NewInt(n), types.NewInt(n % 6),
			types.NewFloat(float64(i%10) * 0.125), types.NewString(fmt.Sprintf("t%d", i%3)),
			types.NewString(fmt.Sprintf("u%d", i)), types.NewString(fmt.Sprintf("w%d", i%5)),
		}
		if i%11 == 0 {
			r[0] = types.Null
		}
		if i%13 == 0 {
			r[3] = types.Null
		}
		if i%5 == 0 {
			r[8] = types.Null
		}
		if i%7 == 0 {
			r[9] = types.Null
		}
		if i%9 == 0 {
			r[11] = types.Null
		}
		rows[i] = r
	}
	return sch, rows, []bool{11: true}
}

// TestAggFrontEndParity feeds the same rows through both front ends of
// HashAggregate. The row front end at degree 1 with no budget is the oracle;
// the typed one must return the same multiset — exactly, each value's kind
// and bits — at every degree, budget, batch size and with a selection
// vector, must box rows only where a key or argument has no typed reader,
// and must leave no spill file behind.
func TestAggFrontEndParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	sch, rows, boxed := aggParityData()
	mul := func(l, r expr.Expr) expr.Expr { return &expr.Bin{Op: expr.OpMul, L: l, R: r} }
	sub := func(l, r expr.Expr) expr.Expr { return &expr.Bin{Op: expr.OpSub, L: l, R: r} }
	sum := func(e expr.Expr) AggSpec { return AggSpec{Kind: AggSum, Arg: e, Name: "s"} }
	avg := func(e expr.Expr) AggSpec { return AggSpec{Kind: AggAvg, Arg: e, Name: "a"} }
	count := AggSpec{Kind: AggCount, Name: "c"}
	// q1's arguments over f (price), g (discount) and the nullable h
	// (quantity), with the INT 1 the parser makes.
	price := mul(col(4), sub(ci(1), col(5)))
	charge := mul(price, add(ci(1), col(5)))
	hPrice := mul(col(8), sub(ci(1), col(5)))
	x4, x5 := &expr.Col{Index: 4, Name: "x"}, &expr.Col{Index: 5, Name: "x"}
	// The typed build's state columns, where a case pins them (shareSums).
	states := map[string]int{"q1's eight aggregates": 6, "two columns that share a name": 5,
		"shared subexpression over a nullable FLOAT": 4, "SUM and AVG of a FLOAT and of an INT": 3}
	cases := []struct {
		name  string
		keys  []expr.Expr
		specs []AggSpec
		boxed bool // some key or argument is read off the boxed row
	}{
		// A DATE literal has a kernel (compileNum) and stays a DATE through it.
		{"no key", nil, []AggSpec{count, sum(col(6)), sum(col(4)),
			{Kind: AggMin, Arg: col(1), Name: "lo"}, {Kind: AggAvg, Arg: col(5), Name: "a"},
			{Kind: AggMax, Arg: cd(19_003), Name: "lit"}}, false},
		{"int key with NULLs", ColRefs(0), []AggSpec{sum(col(6)), {Kind: AggCount, Arg: col(0), Name: "c"},
			{Kind: AggMin, Arg: col(6), Name: "lo"}, {Kind: AggMax, Arg: col(6), Name: "hi"}}, false},
		{"date and bool keys", ColRefs(1, 2), []AggSpec{count,
			sum(mul(col(4), &expr.Bin{Op: expr.OpSub, L: cf(1), R: col(5)})), sum(mul(col(6), col(4)))}, false},
		{"string, int and date keys", ColRefs(3, 0, 1), []AggSpec{count, sum(col(6))}, false},
		{"float key", ColRefs(5), []AggSpec{count, {Kind: AggMax, Arg: col(1), Name: "hi"}}, false},
		{"expression key", []expr.Expr{add(col(0), ci(1))}, []AggSpec{sum(col(4))}, true},
		{"boxed key column", ColRefs(11), []AggSpec{count, sum(col(6))}, false},
		// A string argument has no kernel, whatever its layout: each row of
		// w, boxed in every batch, is read off the boxed row.
		{"boxed argument column", ColRefs(2), []AggSpec{{Kind: AggMax, Arg: col(11), Name: "hi"},
			{Kind: AggMin, Arg: col(11), Name: "lo"}, {Kind: AggCount, Arg: col(11), Name: "c"}}, true},
		{"string argument", ColRefs(0), []AggSpec{{Kind: AggMax, Arg: col(3), Name: "hi"}}, true},
		{"CASE argument", ColRefs(1), []AggSpec{sum(&expr.Case{
			Whens: []expr.When{{Cond: col(2), Then: col(6)}}, Else: ci(0)}), count}, true},
		{"DISTINCT", ColRefs(2), []AggSpec{{Kind: AggCount, Arg: col(0), Distinct: true, Name: "c"},
			{Kind: AggSum, Arg: col(4), Distinct: true, Name: "s"}}, false},
		// One kernel DAG: price is computed once and read by two SUMs, and
		// AVG(h) and AVG(f) read their SUMs' state.
		{"q1's eight aggregates", ColRefs(3, 9), []AggSpec{sum(col(8)), sum(col(4)), sum(price), sum(charge),
			avg(col(8)), avg(col(4)), avg(col(5)), count}, false},
		// Kernels are told apart by the literal's kind, not by how it prints.
		{"INT and FLOAT literals that print alike", ColRefs(2), []AggSpec{sum(mul(col(6), cf(1))), sum(mul(col(6), ci(1))),
			sum(add(col(6), cf(2))), sum(add(col(6), ci(2)))}, false},
		// Kernels are told apart by the column's index, not its name.
		{"two columns that share a name", ColRefs(2), []AggSpec{sum(x4), sum(x5), sum(mul(x5, ci(2))), sum(mul(x4, ci(2))),
			avg(x5), {Kind: AggMax, Arg: x4, Name: "hi"}}, false},
		// A shared node's NULLs reach every reader.
		{"shared subexpression over a nullable FLOAT", ColRefs(0), []AggSpec{sum(hPrice), sum(mul(hPrice, add(ci(1), col(4)))),
			{Kind: AggMin, Arg: hPrice, Name: "lo"}, {Kind: AggCount, Arg: hPrice, Name: "c"}, avg(hPrice)}, false},
		// The literal keeps its side of -.
		{"literal on either side of -", ColRefs(2), []AggSpec{sum(sub(ci(1), col(8))), sum(sub(col(8), ci(1))),
			sum(sub(ci(2), col(6))), sum(sub(col(6), ci(2))), sum(sub(cf(0.5), col(6))), sum(sub(col(6), cf(0.5)))}, false},
		// AVG shares a float SUM's state whichever comes first; an INT SUM
		// keeps its own.
		{"SUM and AVG of a FLOAT and of an INT", ColRefs(3), []AggSpec{avg(col(4)), sum(col(4)), sum(col(6)), avg(col(6))}, false},
		{"two dictionary keys with NULLs", ColRefs(9, 3), []AggSpec{count, sum(col(6)), {Kind: AggMin, Arg: col(4), Name: "lo"}}, false},
		// At 7- and 1,024-row batches (u, t, s) spans more tuples than
		// memoPerRow per row allows, so each row is looked up on its own.
		{"code space sparser than memoPerRow", ColRefs(10, 9, 3), []AggSpec{count, sum(col(8))}, false},
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
								agg := NewTypedHashAggregate(ctx, &typedSource{Operator: slabSource(sch, rows, batch), sel: sel, boxed: boxed}, c.keys, c.specs, mode)
								agg.Parallel = degree
								if want, ok := states[c.name]; ok && len(agg.stateSpec) != want {
									t.Errorf("%d state columns, want %d", len(agg.stateSpec), want)
								}
								got, err := Collect(agg)
								if err != nil {
									t.Fatal(err)
								}
								assertSameValues(t, got, want)
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

// TestTypedAggregateRefusesAnUnknownForm: an argument column in a layout no
// scan gives a column of its kind — an INT column boxed — is the kernel's
// error, naming the kind and the form, not a batch read row by row.
func TestTypedAggregateRefusesAnUnknownForm(t *testing.T) {
	src := &typedSource{Operator: NewSource(intSchema("k", "v"), intRows([]int64{1, 2}, []int64{2, 3})), boxed: []bool{false, true}}
	agg := NewTypedHashAggregate(NewCtx("", 0), src, ColRefs(0), []AggSpec{{Kind: AggSum, Arg: col(1), Name: "s"}}, AggComplete)
	_, err := Collect(agg)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("INT column in form %d", vec.FormBoxed)) {
		t.Fatalf("a boxed INT argument column: err = %v, want the kernel's form error", err)
	}
}

// assertSameValues compares two results as multisets of rows, each value by
// its kind and payload bits (types.AppendRow): INT 1 and FLOAT 1 differ.
func assertSameValues(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count = %d, want %d", len(got), len(want))
	}
	counts := make(map[string]int, len(want))
	for _, r := range want {
		counts[string(types.AppendRow(nil, r))]++
	}
	for _, r := range got {
		k := string(types.AppendRow(nil, r))
		if counts[k]--; counts[k] < 0 {
			t.Fatalf("row %+v is not in the oracle's result", r)
		}
	}
}

// TestAggKeyLandsInOneGroupEitherWay: a row lands in the same group
// whichever front end files it — for every key kind, NULL, a key from a
// string column laid out boxed, and one from a column of unknown kind (a
// partial aggregate's $min) holding values of two kinds — which is what
// lets a row the typed front end spilled rejoin its group through the row
// front end. Groups are what types.AppendRow tells apart: INT 3 and FLOAT
// 3.0 are two, and so are FLOAT 0 and -0.
func TestAggKeyLandsInOneGroupEitherWay(t *testing.T) {
	sch, rows, boxed := aggParityData()
	t.Run("every kind", func(t *testing.T) { checkOneGroupEitherWay(t, sch, rows, boxed, ColRefs(0, 1, 2, 3, 5, 11)) })
	for _, keys := range [][]expr.Expr{ColRefs(3), ColRefs(3, 0)} {
		t.Run(fmt.Sprintf("string key %v", keys), func(t *testing.T) { checkOneGroupEitherWay(t, sch, rows, boxed, keys) })
	}
	mixed := types.Schema{Cols: []types.Column{{Name: "x", Kind: types.KindNull}, {Name: "f", Kind: types.KindFloat}}}
	var mixedRows []types.Row
	for i := 0; i < 40; i++ {
		x := []types.Value{types.NewInt(3), types.NewFloat(3), types.Null, types.NewInt(4)}[i%4]
		f := []types.Value{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.Null}[i%3]
		mixedRows = append(mixedRows, types.Row{x, f})
	}
	t.Run("INT 3 and FLOAT 3.0", func(t *testing.T) {
		if n := checkOneGroupEitherWay(t, mixed, mixedRows, nil, ColRefs(0)); n != 4 {
			t.Errorf("%d groups, want 4: INT 3, FLOAT 3, NULL, INT 4", n)
		}
	})
	t.Run("FLOAT 0 and -0", func(t *testing.T) {
		if n := checkOneGroupEitherWay(t, mixed, mixedRows, nil, ColRefs(1)); n != 3 {
			t.Errorf("%d groups, want 3: 0, -0, NULL", n)
		}
	})
}

// checkOneGroupEitherWay files rows into one table through one front end and
// then again through the other, both orders, with and without a selection
// vector: the second pass must find every row's group, so the table holds
// one group per distinct types.AppendRow of the key, counting each of its
// rows twice. The typed front end reads the columns boxed marks laid out
// boxed. It returns the number of groups.
func checkOneGroupEitherWay(t *testing.T, sch types.Schema, rows []types.Row, boxed []bool, keys []expr.Expr) int {
	t.Helper()
	want := map[string]int64{}
	for _, r := range rows {
		want[string(types.AppendRow(nil, keyRow(t, keys, r)))] += 2
	}
	for _, typedFirst := range []bool{true, false} {
		for _, sel := range []bool{false, true} {
			h := NewTypedHashAggregate(NewCtx("", 0), emptyTyped(sch), keys, []AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
			tbl := h.newAggTable(0, 0)
			typed := func() {
				src := &typedSource{Operator: slabSource(sch, rows, 16), sel: sel, boxed: boxed}
				for {
					b, ok, err := src.NextVec()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						return
					}
					if err := tbl.ingestBatch(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			boxed := func() {
				for _, r := range rows {
					if err := tbl.ingest(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			if typedFirst {
				typed()
				boxed()
			} else {
				boxed()
				typed()
			}
			if tbl.entries() != len(want) {
				t.Fatalf("typed first %v, sel %v: %d groups, want %d", typedFirst, sel, tbl.entries(), len(want))
			}
			for g := range tbl.hashes {
				k := string(types.AppendRow(nil, tbl.keyOf(int32(g))))
				if n := tbl.cols[0].n[g]; n != want[k] {
					t.Fatalf("typed first %v, sel %v: group %v counts %d rows, want %d", typedFirst, sel, tbl.keyOf(int32(g)), n, want[k])
				}
			}
		}
	}
	return len(want)
}

// emptyTyped is a typed input of the given schema with no rows.
func emptyTyped(sch types.Schema) VecOperator { return &typedSource{Operator: NewSource(sch, nil)} }

// joinParityData is the pair of tables the join front-end parity test joins.
// Probe: k INT with NULLs, s STRING with NULLs, d INT, m STRING that a typed
// probe lays out boxed (joinProbeBoxed), v a row id. Build: the same five
// columns over fewer keys, so that most probe rows find no bucket, with
// duplicate keys (several matches a probe row) and NULL keys on both sides
// (which hash alike and must not match).
func joinParityData() (probeSch types.Schema, probe []types.Row, buildSch types.Schema, build []types.Row) {
	cols := func(p string) types.Schema {
		return types.Schema{Cols: []types.Column{
			{Name: p + "k", Kind: types.KindInt}, {Name: p + "s", Kind: types.KindString},
			{Name: p + "d", Kind: types.KindInt}, {Name: p + "m", Kind: types.KindString},
			{Name: p + "v", Kind: types.KindInt},
		}}
	}
	probe = make([]types.Row, 600)
	for i := range probe {
		n := int64(i)
		r := types.Row{types.NewInt(n % 97), types.NewString(fmt.Sprintf("s%d", i%41)),
			types.NewInt(n % 3), types.NewString(fmt.Sprintf("m%d", n%53)), types.NewInt(n)}
		if i%11 == 0 {
			r[0] = types.Null
		}
		if i%13 == 0 {
			r[1] = types.Null
		}
		probe[i] = r
	}
	build = make([]types.Row, 120)
	for i := range build {
		n := int64(i)
		r := types.Row{types.NewInt(n % 30 * 3), types.NewString(fmt.Sprintf("s%d", i%12*3)),
			types.NewInt(n % 2), types.NewString(fmt.Sprintf("m%d", n%20*2)), types.NewInt(n * 5)}
		if i%17 == 0 {
			r[0] = types.Null
		}
		if i%19 == 0 {
			r[1] = types.Null
		}
		build[i] = r
	}
	return cols("p"), probe, cols("b"), build
}

// joinProbeBoxed marks joinParityData's m: the probe's string column a typed
// stream lays out boxed.
var joinProbeBoxed = []bool{3: true}

// keyRow evaluates key expressions over a row.
func keyRow(t *testing.T, keys []expr.Expr, r types.Row) types.Row {
	t.Helper()
	kr := make(types.Row, len(keys))
	for i, k := range keys {
		v, err := k.Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		kr[i] = v
	}
	return kr
}

// keyHash is the hash a join files a row under, worked out the long way:
// types.HashRow of the evaluated key row.
func keyHash(t *testing.T, keys []expr.Expr, r types.Row) uint64 {
	t.Helper()
	return types.HashRow(keyRow(t, keys, r), allOffsets(len(keys)))
}

// hasNullKey reports whether some key expression is NULL over the row.
func hasNullKey(t *testing.T, keys []expr.Expr, r types.Row) bool {
	t.Helper()
	for _, v := range keyRow(t, keys, r) {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// shiftCols returns a copy of e whose column references are moved by n, so
// that a build-side expression reads its column of the concatenated row.
func shiftCols(e expr.Expr, n int) expr.Expr {
	e = expr.Clone(e)
	expr.Walk(e, func(x expr.Expr) {
		if c, ok := x.(*expr.Col); ok {
			c.Index += n
		}
	})
	return e
}

// swapSides returns a copy of e, written over left ++ right with nl and nr
// columns, that reads the same columns of right ++ left.
func swapSides(e expr.Expr, nl, nr int) expr.Expr {
	e = expr.Clone(e)
	expr.Walk(e, func(x expr.Expr) {
		if c, ok := x.(*expr.Col); ok {
			if c.Index < nl {
				c.Index += nr
			} else {
				c.Index -= nl
			}
		}
	})
	return e
}

// joinEdgeRows builds rows of the edge cases' schema — k INT, f FLOAT, v the
// row id — with key values from fill.
func joinEdgeRows(n int, fill func(i int) (k, f types.Value)) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		k, f := fill(i)
		rows[i] = types.Row{k, f, types.NewInt(int64(i))}
	}
	return rows
}

// TestJoinFrontEndParity feeds the same probe rows through both front ends
// of HashJoin. The row front end at degree 1 with no budget is the oracle;
// the typed probe must return the same multiset for every join type, key
// shape, degree, budget, batch size and with a selection vector. The oracle
// shares its table with what it judges, so it is checked in turn against a
// NestedLoopJoin whose condition is the key equalities ANDed with the
// residual: no table, no hash. On the streaming path the typed probe must box
// a row only once the table holds a row filed under its hash or an anti join
// outputs it; under a budget the build overflows, the Grace path must spill
// and leave nothing behind. Every join type is also run build first: the
// planner's inputs the other way round (the build rows on the left), built on
// the left input through either probe front end, streaming and Grace, and
// checked against the NestedLoopJoin of the flipped inputs — same rows, same
// column order, the residual reading the planner's row. A semi or anti join
// built so is a mark join: it outputs left rows, each once however many
// right rows it matched, in the left input's order on the streaming path.
func TestJoinFrontEndParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	baseProbeSch, baseProbe, baseBuildSch, baseBuild := joinParityData()
	edgeSch := func(p string) types.Schema {
		return types.Schema{Cols: []types.Column{
			{Name: p + "k", Kind: types.KindInt}, {Name: p + "f", Kind: types.KindFloat}, {Name: p + "v", Kind: types.KindInt},
		}}
	}
	i64, f64 := types.NewInt, types.NewFloat
	inc := func(e expr.Expr) []expr.Expr { return []expr.Expr{add(e, ci(1))} }
	cases := []struct {
		name                 string
		probeKeys, buildKeys []expr.Expr
		residual             expr.Expr
		// An edge case joins its own rows, of edgeSch, and pins the inner
		// join's row count; nil rows on both sides mean joinParityData's.
		probe, build []types.Row
		inner        int
	}{
		{name: "int key", probeKeys: ColRefs(0), buildKeys: ColRefs(0)},
		{name: "string key with NULLs", probeKeys: ColRefs(1), buildKeys: ColRefs(1)},
		{name: "two-column key", probeKeys: ColRefs(0, 2), buildKeys: ColRefs(0, 2)},
		{name: "expression key", probeKeys: inc(col(0)), buildKeys: inc(col(0))},
		{name: "boxed key column", probeKeys: ColRefs(3), buildKeys: ColRefs(3)},
		{name: "residual", probeKeys: ColRefs(0), buildKeys: ColRefs(0), residual: lt(col(4), col(baseProbeSch.Len()+4))},
		// q21's shape: a key match counts only with another supplier.
		{name: "not-equal residual", probeKeys: ColRefs(0), buildKeys: ColRefs(0),
			residual: &expr.Bin{Op: expr.OpNe, L: col(baseProbeSch.Len() + 2), R: col(2)}},
		// Floats that differ below the sixth decimal are different keys:
		// only the two 0.25 rows on each side match.
		{name: "float keys", probeKeys: ColRefs(1), buildKeys: ColRefs(1),
			probe: joinEdgeRows(6, func(i int) (types.Value, types.Value) {
				return i64(int64(i)), f64([]float64{0.5000001, 0.25, 0.75}[i%3])
			}),
			build: joinEdgeRows(4, func(i int) (types.Value, types.Value) {
				return i64(int64(i)), f64([]float64{0.5000002, 0.25}[i%2])
			}), inner: 4},
		// INT 1 and FLOAT 1.0 hash and compare equal; 2 and 2.5 do neither.
		{name: "int key against float key", probeKeys: ColRefs(0), buildKeys: ColRefs(1),
			probe: joinEdgeRows(6, func(i int) (types.Value, types.Value) { return i64(int64(i % 3)), types.Null }),
			build: joinEdgeRows(2, func(i int) (types.Value, types.Value) { return types.Null, f64([]float64{1, 2.5}[i]) }),
			inner: 2},
		{name: "one key on 500 build rows", probeKeys: ColRefs(0), buildKeys: ColRefs(0),
			probe: joinEdgeRows(4, func(i int) (types.Value, types.Value) { return i64(int64(7 + i/3)), types.Null }),
			build: joinEdgeRows(500, func(int) (types.Value, types.Value) { return i64(7), types.Null }),
			inner: 3 * 500},
		{name: "empty build side", probeKeys: ColRefs(0), buildKeys: ColRefs(0),
			probe: joinEdgeRows(5, func(i int) (types.Value, types.Value) { return i64(int64(i)), types.Null }),
			build: []types.Row{}}, // empty, not nil: an edge case's own rows
		{name: "build keys all NULL", probeKeys: ColRefs(0), buildKeys: ColRefs(0),
			probe: joinEdgeRows(6, func(i int) (types.Value, types.Value) {
				if i%3 == 0 {
					return types.Null, types.Null
				}
				return i64(int64(i)), types.Null
			}),
			build: joinEdgeRows(50, func(int) (types.Value, types.Value) { return types.Null, types.Null })},
	}
	for _, c := range cases {
		edge := c.build != nil
		probeSch, probe, buildSch, build, boxed := baseProbeSch, baseProbe, baseBuildSch, baseBuild, joinProbeBoxed
		if edge {
			probeSch, probe, buildSch, build, boxed = edgeSch("p"), c.probe, edgeSch("b"), c.build, nil
		}
		// The rows the table admits: those whose key hash some build row was
		// filed under (the table returns nothing for a hash no row has).
		filed := map[uint64]bool{}
		for _, r := range build {
			filed[keyHash(t, c.buildKeys, r)] = true
		}
		admitted := int64(0)
		for _, r := range probe {
			if filed[keyHash(t, c.probeKeys, r)] {
				admitted++
			}
		}
		if _, plain := c.probeKeys[0].(*expr.Col); !plain {
			admitted = int64(len(probe)) // an expression key is evaluated on the boxed row
		} else if !edge && (admitted == 0 || admitted > int64(len(probe))/2) {
			t.Fatalf("%s: %d of %d probe rows admitted — the boxing bound tests nothing", c.name, admitted, len(probe))
		}
		nullKeys := 0
		for _, r := range probe {
			if hasNullKey(t, c.probeKeys, r) {
				nullKeys++
			}
		}
		cond := c.residual
		for i := len(c.probeKeys) - 1; i >= 0; i-- {
			keyEq := eq(c.probeKeys[i], shiftCols(c.buildKeys[i], probeSch.Len()))
			if cond == nil {
				cond = keyEq
			} else {
				cond = &expr.Bin{Op: expr.OpAnd, L: keyEq, R: cond}
			}
		}
		for _, jt := range []JoinType{JoinInner, JoinSemi, JoinAnti} {
			want, err := Collect(NewHashJoin(NewCtx("", 0), NewSource(probeSch, probe), NewSource(buildSch, build),
				c.probeKeys, c.buildKeys, jt, c.residual, 1))
			if err != nil {
				t.Fatal(err)
			}
			nested, err := Collect(NewNestedLoopJoin(NewCtx("", 0), NewSource(probeSch, probe), NewSource(buildSch, build), cond, jt))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/%v/nested loop", c.name, jt), func(t *testing.T) { assertSameRows(t, want, nested) })
			buildFirstLegs(t, c.name, jt, probeSch, probe, buildSch, build, boxed, c.probeKeys, c.buildKeys, c.residual, cond, admitted)
			switch {
			case edge && jt == JoinInner && len(want) != c.inner:
				t.Fatalf("%s: inner join returns %d rows, want %d", c.name, len(want), c.inner)
			case !edge && (len(want) == 0 || (jt != JoinInner && len(want) == len(probe))):
				t.Fatalf("%s/%v: oracle returns %d rows of %d — the case tests nothing", c.name, jt, len(want), len(probe))
			}
			// A probe row with a NULL key matches nothing, whatever the build
			// side holds under the same hash.
			nullOut := 0
			for _, r := range want {
				if hasNullKey(t, c.probeKeys, r[:probeSch.Len()]) {
					nullOut++
				}
			}
			if jt == JoinAnti && nullOut != nullKeys {
				t.Fatalf("%s/%v: %d of the %d probe rows with a NULL key are output, want all", c.name, jt, nullOut, nullKeys)
			} else if jt != JoinAnti && nullOut != 0 {
				t.Fatalf("%s/%v: %d output rows have a NULL key", c.name, jt, nullOut)
			}
			boxBound := admitted
			if jt == JoinAnti {
				boxBound += int64(len(want))
			}
			for _, degree := range []int{1, 4} {
				for _, memRows := range []int{0, 10} {
					for _, batch := range []int{1, 7, 1024} {
						for _, sel := range []bool{false, true} {
							name := fmt.Sprintf("%s/%v/degree %d/mem %d/batch %d/sel %v", c.name, jt, degree, memRows, batch, sel)
							t.Run(name, func(t *testing.T) {
								dir := t.TempDir()
								ctx := NewCtx(dir, memRows)
								ctx.BatchRows = batch
								ctx.SetParallelBudget(degree)
								got, err := Collect(NewTypedProbeHashJoin(ctx,
									&typedSource{Operator: slabSource(probeSch, probe, batch), sel: sel, boxed: boxed}, NewSource(buildSch, build),
									c.probeKeys, c.buildKeys, jt, c.residual, degree))
								if err != nil {
									t.Fatal(err)
								}
								assertSameRows(t, got, want)
								if n := ctx.BoxedRows.Load(); memRows == 0 && n > boxBound {
									t.Errorf("BoxedRows = %d, want at most %d (admitted, plus an anti join's output)", n, boxBound)
								}
								if memRows > 0 && len(build) > memRows && ctx.SpillFiles.Load() == 0 {
									t.Errorf("%d build rows under a budget of %d and nothing spilled", len(build), memRows)
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

	// The table's slot for a hash no build row has often holds rows of other
	// hashes: the typed probe still boxes a row only when the table holds its
	// own hash — the even keys, 2,000 of the 4,000.
	t.Run("absent hashes in occupied slots", func(t *testing.T) {
		sch := intSchema("k", "v")
		var probe, build []types.Row
		for i := 0; i < 20000; i++ {
			build = append(build, types.Row{types.NewInt(int64(2 * i)), types.NewInt(int64(i))})
		}
		for i := 0; i < 4000; i++ {
			probe = append(probe, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i))})
		}
		table := &joinTable{}
		for _, r := range build {
			table.add(r, keyHash(t, ColRefs(0), r))
		}
		table.seal(false)
		decoys := 0
		for _, r := range probe {
			if hk := keyHash(t, ColRefs(0), r); r[0].I%2 == 1 && table.heads[table.slot(hk)] >= 0 {
				decoys++
			}
		}
		if decoys == 0 {
			t.Fatal("no absent key falls in an occupied slot — the case tests nothing")
		}
		want, err := Collect(NewHashJoin(NewCtx("", 0), NewSource(sch, probe), NewSource(sch, build),
			ColRefs(0), ColRefs(0), JoinInner, nil, 1))
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewCtx("", 0)
		got, err := Collect(NewTypedProbeHashJoin(ctx, &typedSource{Operator: NewSource(sch, probe)}, NewSource(sch, build),
			ColRefs(0), ColRefs(0), JoinInner, nil, 1))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, got, want)
		if len(want) != 2000 {
			t.Fatalf("%d rows joined, want 2000", len(want))
		}
		if n := ctx.BoxedRows.Load(); n != 2000 {
			t.Errorf("BoxedRows = %d, want 2000 (%d absent keys share an occupied slot)", n, decoys)
		}
	})
}

// buildFirstLegs joins build (the planner's left input) with probe (its
// right) on a jt HashJoin built on the left, whose residual and cond are
// written over probe ++ build, and requires the rows — in build ++ probe
// order, or build rows for a semi or anti join — of the NestedLoopJoin over
// (build, probe). A typed probe lays out boxed the columns probeBoxed marks.
// admitted is the number of probe rows whose key hash some build row is
// filed under: the most a typed probe may box.
func buildFirstLegs(t *testing.T, name string, jt JoinType, probeSch types.Schema, probe []types.Row, buildSch types.Schema, build []types.Row,
	probeBoxed []bool, probeKeys, buildKeys []expr.Expr, residual, cond expr.Expr, admitted int64) {
	t.Helper()
	np, nb := probeSch.Len(), buildSch.Len()
	if residual != nil {
		residual = swapSides(residual, np, nb)
	}
	want, err := Collect(NewNestedLoopJoin(NewCtx("", 0), NewSource(buildSch, build), NewSource(probeSch, probe),
		swapSides(cond, np, nb), jt))
	if err != nil {
		t.Fatal(err)
	}
	wantSch, leg := buildSch, fmt.Sprintf("%s/%v/build first", name, jt)
	if jt == JoinInner {
		wantSch, leg = buildSch.Concat(probeSch), name+"/build first"
	}
	for _, typed := range []bool{false, true} {
		for _, degree := range []int{1, 4} {
			for _, memRows := range []int{0, 10} {
				t.Run(fmt.Sprintf("%s/typed %v/degree %d/mem %d", leg, typed, degree, memRows), func(t *testing.T) {
					dir := t.TempDir()
					ctx := NewCtx(dir, memRows)
					ctx.BatchRows = 7
					ctx.SetParallelBudget(degree)
					src, buildSrc := slabSource(probeSch, probe, 7), NewSource(buildSch, build)
					var h *HashJoin
					if typed {
						h = NewTypedProbeHashJoin(ctx, &typedSource{Operator: src, boxed: probeBoxed}, buildSrc, probeKeys, buildKeys, jt, residual, degree)
					} else {
						h = NewHashJoin(ctx, src, buildSrc, probeKeys, buildKeys, jt, residual, degree)
					}
					h.BuildLeft()
					if got := h.Schema(); got.Len() != wantSch.Len() {
						t.Fatalf("%d output columns, want %d", got.Len(), wantSch.Len())
					}
					for i, col := range h.Schema().Cols {
						if col.Name != wantSch.Cols[i].Name {
							t.Fatalf("column %d is %s, want %s: the output is not %v", i, col.Name, wantSch.Cols[i].Name, wantSch)
						}
					}
					got, err := Collect(h)
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, got, want)
					if jt != JoinInner && memRows == 0 {
						for i := range want {
							if got[i].String() != want[i].String() {
								t.Fatalf("row %d is %v, want %v: a mark join emits the left rows in arrival order", i, got[i], want[i])
							}
						}
					}
					if n := ctx.BoxedRows.Load(); typed && memRows == 0 && n > admitted {
						t.Errorf("BoxedRows = %d, want at most %d (the probe rows whose hash the table holds)", n, admitted)
					}
					if memRows > 0 && len(build) > memRows && ctx.SpillFiles.Load() == 0 {
						t.Errorf("%d build rows under a budget of %d and nothing spilled", len(build), memRows)
					}
					if left := spillLeftovers(t, dir); len(left) > 0 {
						t.Errorf("%d leftovers after Close, e.g. %s", len(left), left[0])
					}
				})
			}
		}
	}
}

// TestSendAllVecHonorsWireBatchRows pins the Ctx.BatchRows knob to the
// vector wire: a typed input is chunked into ceil(rows/batch) data
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
	in := &typedSource{Operator: slabSource(sch, rows, 1024)}
	ep1, _ := fabric.Endpoint(1)
	if err := SendAllVec(ctx, ep1, 0, "vknob", in); err != nil {
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
