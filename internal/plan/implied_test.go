package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/types"
)

// impliedRels are three relations of one INT, one DATE and one VARCHAR
// column each, scanned under their own names.
func impliedRels() []Node {
	var rels []Node
	for _, name := range []string{"a", "b", "c"} {
		rels = append(rels, NewScan(&catalog.TableDef{Name: name, Schema: types.NewSchema(
			types.Column{Name: "i", Kind: types.KindInt},
			types.Column{Name: "d", Kind: types.KindDate},
			types.Column{Name: "s", Kind: types.KindString},
		)}, name))
	}
	return rels
}

// randValue draws a small-domain value of column k's kind (0 INT, 1 DATE,
// 2 VARCHAR), so that random atoms and rows often agree.
func randValue(rng *rand.Rand, k int) types.Value {
	switch k {
	case 0:
		return types.NewInt(int64(rng.Intn(8)))
	case 1:
		return types.NewDate(int64(9000 + rng.Intn(8)))
	}
	return types.NewString(string(rune('a' + rng.Intn(6))))
}

func konst(v types.Value) expr.Expr { return &expr.Const{V: v} }

// randAtom draws one atom over a column of rel: a comparison with a
// constant (either side), BETWEEN, IN (now and then holding a NULL), `<>`,
// IS NULL, or an equality with a column of another of rels.
func randAtom(rng *rand.Rand, rels []Node, rel int) expr.Expr {
	k := rng.Intn(3)
	col := &expr.Col{Index: -1, Name: rels[rel].Schema().Cols[k].Name}
	v := randValue(rng, k)
	switch rng.Intn(10) {
	case 0, 1:
		return &expr.Bin{Op: expr.OpEq, L: col, R: konst(v)}
	case 2:
		ops := []expr.BinOp{expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
		op := ops[rng.Intn(len(ops))]
		if rng.Intn(2) == 0 {
			return &expr.Bin{Op: op, L: konst(v), R: col}
		}
		return &expr.Bin{Op: op, L: col, R: konst(v)}
	case 3, 4:
		lo, hi := v, randValue(rng, k)
		if types.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		return &expr.Between{E: col, Lo: konst(lo), Hi: konst(hi)}
	case 5, 6:
		in := &expr.InList{E: col}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			in.Vals = append(in.Vals, konst(randValue(rng, k)))
		}
		if rng.Intn(6) == 0 {
			in.Vals = append(in.Vals, konst(types.Null))
		}
		return in
	case 7:
		return &expr.Bin{Op: expr.OpNe, L: col, R: konst(v)}
	case 8:
		return &expr.IsNull{E: col, Negate: rng.Intn(2) == 0}
	}
	other := (rel + 1 + rng.Intn(len(rels)-1)) % len(rels)
	return &expr.Bin{Op: expr.OpEq, L: col, R: &expr.Col{Index: -1, Name: rels[other].Schema().Cols[k].Name}}
}

// randOr draws an OR of 2–4 disjuncts, each 1–3 atoms over rels. With
// narrow set, one atom of each disjunct is over one column of rels[0], so
// rels[0] gets a filter and now and then one foldColumn folds.
func randOr(rng *rand.Rand, rels []Node, narrow bool) expr.Expr {
	var or expr.Expr
	k := rng.Intn(3)
	for n := 2 + rng.Intn(3); n > 0; n-- {
		var atoms []expr.Expr
		for m := 1 + rng.Intn(3); m > 0; m-- {
			rel := rng.Intn(len(rels))
			a := randAtom(rng, rels, rel)
			if narrow && m == 1 {
				// One atom of each disjunct on rels[0]'s column k.
				for !onColumn(a, rels[0].Schema().Cols[k].Name) {
					a = randAtom(rng, rels, 0)
				}
			}
			atoms = append(atoms, a)
		}
		d := expr.AndAll(atoms)
		if or == nil {
			or = d
		} else {
			or = &expr.Bin{Op: expr.OpOr, L: or, R: d}
		}
	}
	return or
}

// onColumn reports whether e's only column is name.
func onColumn(e expr.Expr, name string) bool {
	cols := expr.Columns(e)
	return len(cols) == 1 && cols[0] == name
}

// randRow draws a row over schema with about one NULL cell in six.
func randRow(rng *rand.Rand, sch types.Schema) types.Row {
	row := make(types.Row, sch.Len())
	for i := range row {
		if rng.Intn(6) == 0 {
			row[i] = types.Null
			continue
		}
		row[i] = randValue(rng, i%3)
	}
	return row
}

// perRelation splits or the way impliedFilters must: for each disjunct,
// its conjuncts over rel's columns alone; nil when a disjunct has none.
func perRelation(or expr.Expr, rel types.Schema) [][]expr.Expr {
	var parts [][]expr.Expr
	for _, d := range disjuncts(or) {
		var own []expr.Expr
		for _, c := range expr.Conjuncts(d) {
			cols := expr.Columns(c)
			all := len(cols) > 0
			for _, name := range cols {
				all = all && rel.Find(name) >= 0
			}
			if all {
				own = append(own, c)
			}
		}
		if own == nil {
			return nil
		}
		parts = append(parts, own)
	}
	return parts
}

func mustEval(t *testing.T, e expr.Expr, row types.Row) bool {
	t.Helper()
	ok, err := expr.EvalBool(e, row)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	return ok
}

// TestImpliedFiltersAreImplied draws random ORs over two or three relations
// and random rows with NULL cells. Wherever the OR is TRUE, every filter the
// rule derives is TRUE on its relation's part of the row; every relation
// the rule gives a filter has a T-only conjunct in each disjunct, and no
// other relation gets one; and a folded IN list or range is TRUE wherever
// the unfolded per-relation OR is.
func TestImpliedFiltersAreImplied(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var trueRows, derived, folded, foldedTrue int
	for round := 0; round < 3000; round++ {
		rels := impliedRels()[:2+rng.Intn(2)]
		or := randOr(rng, rels, round%2 == 0)
		var full types.Schema
		for _, r := range rels {
			full = full.Concat(r.Schema())
		}
		filters := impliedFilters(or, rels)
		if err := expr.Bind(or, full); err != nil {
			t.Fatal(err)
		}
		// Which relation each filter is on, bound to that relation alone:
		// a filter sharing a node with the OR would rebind the OR here.
		owner := make([]int, len(filters))
		for fi, f := range filters {
			owner[fi] = -1
			for ri, r := range rels {
				if bindsTo(f, r.Schema()) && referencesAny(f, r.Schema()) {
					owner[fi] = ri
				}
			}
			if owner[fi] < 0 {
				t.Fatalf("%s: derived %s is not over one relation", or, f)
			}
			if err := expr.Bind(f, rels[owner[fi]].Schema()); err != nil {
				t.Fatal(err)
			}
		}
		spanned := 0
		for _, r := range rels {
			if referencesAny(or, r.Schema()) {
				spanned++
			}
		}
		for ri, r := range rels {
			want := spanned >= 2 && perRelation(or, r.Schema()) != nil
			got := 0
			for _, o := range owner {
				if o == ri {
					got++
				}
			}
			if want != (got == 1) || got > 1 {
				t.Fatalf("%s: %d filters on %s, want one: %v", or, got, r.Schema(), want)
			}
		}
		derived += len(filters)
		for n := 0; n < 40; n++ {
			row := randRow(rng, full)
			if !mustEval(t, or, row) {
				continue
			}
			trueRows++
			for fi, f := range filters {
				start := 0
				for _, r := range rels[:owner[fi]] {
					start += r.Schema().Len()
				}
				part := row[start : start+rels[owner[fi]].Schema().Len()]
				if !mustEval(t, f, part) {
					t.Fatalf("OR %s is TRUE on %v, derived %s is not", or, row, f)
				}
			}
		}
		// The fold against the unfolded per-relation OR.
		for _, r := range rels {
			parts := perRelation(or, r.Schema())
			if parts == nil {
				continue
			}
			f, ok := foldColumn(parts)
			if !ok {
				continue
			}
			folded++
			var unfolded expr.Expr
			for _, p := range parts {
				d := expr.Clone(expr.AndAll(p))
				if unfolded == nil {
					unfolded = d
				} else {
					unfolded = &expr.Bin{Op: expr.OpOr, L: unfolded, R: d}
				}
			}
			if err := expr.Bind(unfolded, r.Schema()); err != nil {
				t.Fatal(err)
			}
			if err := expr.Bind(f, r.Schema()); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 40; n++ {
				row := randRow(rng, r.Schema())
				if !mustEval(t, unfolded, row) {
					continue
				}
				foldedTrue++
				if !mustEval(t, f, row) {
					t.Fatalf("unfolded %s is TRUE on %v, its fold %s is not", unfolded, row, f)
				}
			}
		}
	}
	t.Logf("%d filters derived, %d OR-true rows checked; %d folds, %d unfolded-true rows checked", derived, trueRows, folded, foldedTrue)
	if derived < 500 || trueRows < 5000 || folded < 200 || foldedTrue < 2000 {
		t.Fatalf("the draw exercised too little: %d filters, %d rows, %d folds, %d fold rows", derived, trueRows, folded, foldedTrue)
	}
}

// TestImpliedFilterShapes pins what the rule derives, and when it must
// derive nothing.
func TestImpliedFilterShapes(t *testing.T) {
	rels := impliedRels()
	col := func(name string) expr.Expr { return &expr.Col{Index: -1, Name: name} }
	cmp := func(op expr.BinOp, name string, v types.Value) expr.Expr {
		return &expr.Bin{Op: op, L: col(name), R: konst(v)}
	}
	and := func(es ...expr.Expr) expr.Expr { return expr.AndAll(es) }
	or := func(es ...expr.Expr) expr.Expr {
		out := es[0]
		for _, e := range es[1:] {
			out = &expr.Bin{Op: expr.OpOr, L: out, R: e}
		}
		return out
	}
	i, s := types.NewInt, types.NewString
	for _, tc := range []struct {
		name string
		or   expr.Expr
		want string
	}{
		{"q19's ranges fold to their hull; two columns of b stay an OR",
			or(and(cmp(expr.OpEq, "b.s", s("x")), cmp(expr.OpGe, "a.i", i(1)), cmp(expr.OpLe, "a.i", i(11)), cmp(expr.OpLe, "b.i", i(5))),
				and(cmp(expr.OpEq, "b.s", s("y")), cmp(expr.OpGe, "a.i", i(10)), cmp(expr.OpLe, "a.i", i(20)), cmp(expr.OpLe, "b.i", i(10))),
				and(cmp(expr.OpEq, "b.s", s("z")), cmp(expr.OpGe, "a.i", i(20)), cmp(expr.OpLe, "a.i", i(30)), cmp(expr.OpLe, "b.i", i(15)))),
			"[a.i BETWEEN 1 AND 30 ((((b.s = 'x') AND (b.i <= 5)) OR ((b.s = 'y') AND (b.i <= 10))) OR ((b.s = 'z') AND (b.i <= 15)))]"},
		{"q7's pairs fold to one IN list per relation, in value order",
			or(and(cmp(expr.OpEq, "a.s", s("FRANCE")), cmp(expr.OpEq, "b.s", s("GERMANY"))),
				and(cmp(expr.OpEq, "a.s", s("GERMANY")), cmp(expr.OpEq, "b.s", s("FRANCE")))),
			"[a.s IN ('FRANCE', 'GERMANY') b.s IN ('FRANCE', 'GERMANY')]"},
		{"equal values fold to one equality",
			or(and(cmp(expr.OpEq, "a.i", i(3)), cmp(expr.OpEq, "b.i", i(1))),
				and(&expr.InList{E: col("a.i"), Vals: []expr.Expr{konst(i(3))}}, cmp(expr.OpEq, "b.i", i(2)))),
			"[(a.i = 3) b.i IN (1, 2)]"},
		{"an open side stays open",
			or(and(cmp(expr.OpGt, "a.i", i(5)), cmp(expr.OpEq, "b.i", i(1))),
				and(cmp(expr.OpEq, "a.i", i(7)), cmp(expr.OpEq, "b.i", i(2)))),
			"[(a.i >= 5) b.i IN (1, 2)]"},
		{"both sides open: the OR is not folded",
			or(and(cmp(expr.OpGt, "a.i", i(5)), cmp(expr.OpEq, "b.i", i(1))),
				and(cmp(expr.OpLt, "a.i", i(2)), cmp(expr.OpEq, "b.i", i(1)))),
			"[((a.i > 5) OR (a.i < 2)) (b.i = 1)]"},
		{"a NULL constant is not folded",
			or(and(&expr.InList{E: col("a.i"), Vals: []expr.Expr{konst(i(1)), konst(types.Null)}}, cmp(expr.OpEq, "b.i", i(1))),
				and(cmp(expr.OpEq, "a.i", i(2)), cmp(expr.OpEq, "b.i", i(1)))),
			"[(a.i IN (1, NULL) OR (a.i = 2)) (b.i = 1)]"},
		{"a disjunct with no conjunct of its own on c: nothing for c",
			or(and(cmp(expr.OpEq, "a.i", i(1)), cmp(expr.OpEq, "c.i", i(1))),
				and(cmp(expr.OpEq, "a.i", i(2)), &expr.Bin{Op: expr.OpEq, L: col("b.i"), R: col("c.i")})),
			"[a.i IN (1, 2)]"},
		{"an OR over one relation: nothing",
			or(cmp(expr.OpEq, "a.i", i(1)), cmp(expr.OpEq, "a.i", i(2))),
			"[]"},
		{"not an OR: nothing",
			and(cmp(expr.OpEq, "a.i", i(1)), cmp(expr.OpEq, "b.i", i(2))),
			"[]"},
	} {
		if got := fmt.Sprint(impliedFilters(tc.or, rels)); got != tc.want {
			t.Errorf("%s:\n  %s\n  got  %s\n  want %s", tc.name, tc.or, got, tc.want)
		}
	}
}
