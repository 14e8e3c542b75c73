package exec

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/testutil"
	"repro/internal/types"
	"repro/internal/vec"
)

func cd(days int64) *expr.Const { return &expr.Const{V: types.NewDate(days)} }

func between(e, lo, hi expr.Expr, negate bool) *expr.Between {
	return &expr.Between{E: e, Lo: lo, Hi: hi, Negate: negate}
}

func in(e expr.Expr, negate bool, vals ...expr.Expr) *expr.InList {
	return &expr.InList{E: e, Vals: vals, Negate: negate}
}

// kernelRows covers every numeric kind and strings, with NULLs in each
// column on a different stride.
func kernelRows() (types.Schema, []types.Row) {
	sch := types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "d", Kind: types.KindDate},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "s2", Kind: types.KindString},
		types.Column{Name: "b", Kind: types.KindBool},
	)
	var rows []types.Row
	for k := int64(0); k < 200; k++ {
		r := types.Row{
			types.NewInt(k % 11),
			types.NewFloat(float64(k%9) * 0.5),
			types.NewDate(9_000 + k%13),
			types.NewString(string(rune('a' + k%5))),
			types.NewString(string(rune('a' + k%3))),
			types.NewBool(k%2 == 0),
		}
		for c, stride := range []int64{3, 5, 7, 4, 6, 8} {
			if k%stride == 1 {
				r[c] = types.Null
			}
		}
		rows = append(rows, r)
	}
	return sch, rows
}

// TestCompiledPredicateParity: every predicate shape the scans of the TPC-H
// queries use — DATE literals, BETWEEN, IN, their NOT forms, INT-vs-FLOAT and
// DATE-vs-INT mixes — compiles to a kernel whose three-valued result equals
// Expr.Eval on every row, NULLs included; and the shapes whose row semantics
// a kernel could not keep (a NULL or non-literal bound or member, an empty
// list) do not compile, and the row Filter — what evaluates them, as the scan
// does a predicate without a kernel — keeps the rows Expr.Eval says it should.
func TestCompiledPredicateParity(t *testing.T) {
	sch, rows := kernelRows()
	i, f, d, s := ncol(0, "i"), ncol(1, "f"), ncol(2, "d"), ncol(3, "s")
	s2, flag := ncol(4, "s2"), ncol(5, "b")
	null := &expr.Const{V: types.Null}
	compiled := map[string]expr.Expr{
		"string=string-column":     eq(s, s2),
		"string<string-column":     lt(s, s2),
		"bool-column":              flag,
		"not-bool-column":          &expr.Not{E: flag},
		"date<=date-literal":       &expr.Bin{Op: expr.OpLe, L: d, R: cd(9_005)},
		"date-literal<date":        lt(cd(9_005), d),
		"date=int-literal":         eq(d, ci(9_003)),
		"int<date-literal":         lt(i, cd(5)),
		"float>=date-literal":      &expr.Bin{Op: expr.OpGe, L: f, R: cd(2)},
		"int-between":              between(i, ci(3), ci(7), false),
		"int-not-between":          between(i, ci(3), ci(7), true),
		"int-between-floats":       between(i, cf(2.5), cf(7.5), false),
		"float-between-int-float":  between(f, ci(1), cf(2.5), false),
		"date-between":             between(d, cd(9_002), cd(9_008), false),
		"date-not-between":         between(d, cd(9_002), cd(9_008), true),
		"date-between-int-date":    between(d, ci(9_002), cd(9_008), false),
		"string-between":           between(s, cs("b"), cs("d"), false),
		"arith-between":            between(add(i, ci(1)), ci(2), ci(4), false),
		"string-in":                in(s, false, cs("a"), cs("c"), cs("zz")),
		"string-not-in":            in(s, true, cs("a"), cs("c")),
		"int-in-mixed-numerics":    in(i, false, ci(1), cf(2), cf(2.5), ci(10)),
		"float-in":                 in(f, false, ci(1), cf(2.5)),
		"date-in":                  in(d, false, cd(9_001), cd(9_012), ci(9_004)),
		"date-not-in":              in(d, true, cd(9_001), cd(9_012)),
		"single-in":                in(i, false, ci(4)),
		"not-in-under-not":         &expr.Not{E: in(s, true, cs("b"))},
		"q6-shape":                 and(and(&expr.Bin{Op: expr.OpGe, L: d, R: cd(9_001)}, lt(d, cd(9_009))), and(between(f, cf(0.5), cf(2), false), lt(i, ci(8)))),
		"q12-shape":                and(in(s, false, cs("b"), cs("e")), and(&expr.Bin{Op: expr.OpGe, L: d, R: cd(9_003)}, lt(d, cd(9_011)))),
		"q19-shape":                &expr.Bin{Op: expr.OpOr, L: and(in(s, false, cs("a"), cs("b")), between(i, ci(1), ci(5), false)), R: and(in(s, false, cs("c")), between(i, ci(1), ci(10), false))},
		"between-or-null-operands": &expr.Bin{Op: expr.OpOr, L: between(i, ci(9), ci(10), false), R: in(f, true, cf(0), cf(1))},
	}
	b := vec.FromRows(sch, rows)
	truth := func(v types.Value) string {
		if v.IsNull() {
			return "NULL"
		}
		return fmt.Sprint(v.Bool())
	}
	for name, e := range compiled {
		t.Run(name, func(t *testing.T) {
			node := compileBool(e, sch)
			if node == nil {
				t.Fatalf("%v has no kernel", e)
			}
			tv, nv, err := node.evalBool(b, len(rows))
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for k, r := range rows {
				want, err := e.Eval(r)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprint(tv[k])
				if nv != nil && nv[k] {
					got = "NULL"
				}
				if got != truth(want) {
					t.Fatalf("row %d %v: kernel %s, Eval %s", k, r, got, truth(want))
				}
				seen[got] = true
			}
			if !seen["true"] || !seen["false"] || !seen["NULL"] {
				t.Fatalf("the rows reach only %v of true/false/NULL — test is vacuous", seen)
			}
		})
	}

	rowOnly := map[string]expr.Expr{
		"between-null-bound":        between(i, null, ci(7), false),
		"not-between-null-bound":    between(i, ci(3), null, true),
		"between-column-bound":      between(i, ci(0), add(i, ci(1)), false),
		"in-null-member":            in(s, false, cs("a"), null),
		"not-in-null-member":        in(s, true, cs("a"), null),
		"in-column-member":          in(i, false, ci(1), i),
		"empty-in":                  in(i, false),
		"empty-not-in":              in(i, true),
		"string-in-numeric-literal": in(s, false, ci(1)),
	}
	for name, e := range rowOnly {
		t.Run(name, func(t *testing.T) {
			if compileBool(e, sch) != nil {
				t.Fatalf("%v compiled; its row semantics have no kernel", e)
			}
			var want []types.Row
			for _, r := range rows {
				if keep, err := expr.EvalBool(e, r); err != nil {
					t.Fatal(err)
				} else if keep {
					want = append(want, r)
				}
			}
			got, err := Collect(NewFilter(NewCtx("", 0), slabSource(sch, rows, 64), e))
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, got, want)
		})
	}
}

// TestStringOrderKernelsSkipNulls: a page set whose string cells are all
// NULL decodes to codes of 0 over an empty dictionary; an ordering
// comparison must answer NULL for them without looking the code up (it
// panicked the scan thread of `WHERE v < 'b'`).
func TestStringOrderKernelsSkipNulls(t *testing.T) {
	sch := types.NewSchema(types.Column{Name: "s", Kind: types.KindString}, types.Column{Name: "s2", Kind: types.KindString})
	b := vec.FromRows(sch, []types.Row{{types.Null, types.Null}, {types.Null, types.Null}})
	for _, e := range []expr.Expr{lt(ncol(0, "s"), cs("b")), lt(ncol(0, "s"), ncol(1, "s2"))} {
		_, null, err := compileBool(e, sch).evalBool(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		if null == nil || !null[0] || !null[1] {
			t.Errorf("%v over NULLs: null mask %v, want both rows NULL", e, null)
		}
	}
}

// TestVecScanPredicateCounter: the scan counts the page sets whose predicate
// it had to evaluate row by row. The date range, BETWEEN and IN of the
// TPC-H scans run on kernels — zero — and LIKE, which has no kernel, counts
// every set it is evaluated on.
func TestVecScanPredicateCounter(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	fr, _ := vecScanFragment(t)
	kernel := and(and(&expr.Bin{Op: expr.OpGe, L: ncol(4, "ship"), R: cd(10_050)}, lt(ncol(4, "ship"), cd(10_300))),
		and(between(ncol(2, "price"), cf(100), cf(900), false), in(ncol(3, "status"), false, cs("STATUS-1"), cs("STATUS-4"))))
	ctx := NewCtx("", 0)
	got, err := Collect(NewVecColumnarScan(fr, "", ScanConfig{Pred: kernel, Ctx: ctx}))
	if err != nil {
		t.Fatal(err)
	}
	want := boxedScanRows(t, fr, kernel)
	if len(want) == 0 {
		t.Fatal("baseline predicate selected nothing — test is vacuous")
	}
	assertSameRows(t, got, want)
	if n := ctx.PredRowSets.Load(); n != 0 {
		t.Fatalf("%d page sets took the row fallback under a predicate of compiled shapes", n)
	}

	like := &expr.Like{E: ncol(3, "status"), Pattern: cs("%-4")}
	ctx = NewCtx("", 0)
	if _, err := Collect(NewVecColumnarScan(fr, "", ScanConfig{Pred: like, Ctx: ctx})); err != nil {
		t.Fatal(err)
	}
	if n := ctx.PredRowSets.Load(); n == 0 {
		t.Fatal("a LIKE predicate has no kernel, yet no page set was counted on the row fallback")
	}
}
