package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/page"
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

// kernelRows covers every numeric kind and strings, with NULLs in each of
// the first six columns on a different stride; ni, nf and ns have none, so
// they carry no NULL bitmap; w holds words for LIKE, the empty string among
// them, with NULLs on a stride of its own.
func kernelRows() (types.Schema, []types.Row) {
	sch := types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "d", Kind: types.KindDate},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "s2", Kind: types.KindString},
		types.Column{Name: "b", Kind: types.KindBool},
		types.Column{Name: "ni", Kind: types.KindInt},
		types.Column{Name: "nf", Kind: types.KindFloat},
		types.Column{Name: "ns", Kind: types.KindString},
		types.Column{Name: "w", Kind: types.KindString},
	)
	words := []string{"forest green", "dark green", "forest", "", "lime", "MEDIUM POLISHED tin", "greenish"}
	var rows []types.Row
	for k := int64(0); k < 200; k++ {
		r := types.Row{
			types.NewInt(k % 11),
			types.NewFloat(float64(k%9) * 0.5),
			types.NewDate(9_000 + k%13),
			types.NewString(string(rune('a' + k%5))),
			types.NewString(string(rune('a' + k%3))),
			types.NewBool(k%2 == 0),
			types.NewInt(k % 7),
			types.NewFloat(float64(k%6) * 0.25),
			types.NewString(string(rune('a' + k%4))),
			types.NewString(words[k%7]),
		}
		if k%9 == 2 {
			r[9] = types.Null
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
// DATE-vs-INT mixes, LIKE and NOT LIKE with % as prefix, suffix and infix,
// with _, with no wildcard and empty — compiles to a kernel whose three-valued result equals
// Expr.Eval on every active row, NULLs included, over every row and under a
// selection (every third row; every row but the first and the last); the
// scan's conjunct filter keeps exactly the active rows Eval holds on; and so
// does the scan's filter over a page set of the rows, which tests a
// conjunct over one dictionary page's column once per entry (INT, FLOAT and
// string dictionaries, with a NULL entry and without) and decodes the other
// conjuncts' columns at the rows still kept; and so does the row-table
// scan's filter over the rows encoded as a row page's, its strings
// dictionary-coded and again boxed, where the kernels also hold on the
// batch it decoded under each selection. The
// shapes whose row semantics a kernel could not keep (a NULL or non-literal
// bound or member, an empty list) do not compile, and the row Filter — what
// evaluates them, as the scan does a predicate without a kernel — keeps the
// rows Expr.Eval says it should.
func TestCompiledPredicateParity(t *testing.T) {
	sch, rows := kernelRows()
	i, f, d, s := ncol(0, "i"), ncol(1, "f"), ncol(2, "d"), ncol(3, "s")
	s2, flag := ncol(4, "s2"), ncol(5, "b")
	ni, nf, ns, w := ncol(6, "ni"), ncol(7, "nf"), ncol(8, "ns"), ncol(9, "w")
	null := &expr.Const{V: types.Null}
	like := func(e expr.Expr, p string, negate bool) *expr.Like {
		return &expr.Like{E: e, Pattern: cs(p), Negate: negate}
	}
	compiled := map[string]expr.Expr{
		"string=string-column":     eq(s, s2),
		"string<string-column":     lt(s, s2),
		"string=literal":           eq(s, cs("b")),
		"string<>literal":          &expr.Bin{Op: expr.OpNe, L: s, R: cs("b")},
		"string<literal":           lt(s, cs("c")),
		"bool-column":              flag,
		"not-bool-column":          &expr.Not{E: flag},
		"date<=date-literal":       &expr.Bin{Op: expr.OpLe, L: d, R: cd(9_005)},
		"date-literal<date":        lt(cd(9_005), d),
		"date=int-literal":         eq(d, ci(9_003)),
		"int<date-literal":         lt(i, cd(5)),
		"float>=date-literal":      &expr.Bin{Op: expr.OpGe, L: f, R: cd(2)},
		"int<float-arith":          lt(i, add(f, ci(1))),
		"int-between":              between(i, ci(3), ci(7), false),
		"int-not-between":          between(i, ci(3), ci(7), true),
		"int-between-floats":       between(i, cf(2.5), cf(7.5), false),
		"int-between-int-float":    between(i, ci(3), cf(7.5), false),
		"float-between-int-float":  between(f, ci(1), cf(2.5), false),
		"float-not-between":        between(f, cf(1), cf(2.5), true),
		"date-between":             between(d, cd(9_002), cd(9_008), false),
		"date-not-between":         between(d, cd(9_002), cd(9_008), true),
		"date-between-int-date":    between(d, ci(9_002), cd(9_008), false),
		"string-between":           between(s, cs("b"), cs("d"), false),
		"string-not-between":       between(s, cs("b"), cs("d"), true),
		"arith-between":            between(add(i, ci(1)), ci(2), ci(4), false),
		"string-in":                in(s, false, cs("a"), cs("c"), cs("zz")),
		"string-not-in":            in(s, true, cs("a"), cs("c")),
		"string-in-absent-only":    in(s, false, cs("zz"), cs("yy")),
		"string-not-in-absent":     in(s, true, cs("zz")),
		"int-in-mixed-numerics":    in(i, false, ci(1), cf(2), cf(2.5), ci(10)),
		"int-not-in":               in(i, true, ci(1), ci(4), ci(9)),
		"float-in":                 in(f, false, ci(1), cf(2.5)),
		"date-in":                  in(d, false, cd(9_001), cd(9_012), ci(9_004)),
		"date-not-in":              in(d, true, cd(9_001), cd(9_012)),
		"single-in":                in(i, false, ci(4)),
		"not-in-under-not":         &expr.Not{E: in(s, true, cs("b"))},
		"int-in-no-nulls":          in(ni, false, ci(1), ci(3)),
		"int-not-in-no-nulls":      in(ni, true, ci(1), ci(3)),
		"float-between-no-nulls":   between(nf, cf(0.25), cf(0.75), false),
		"int-not-between-no-nulls": between(ni, ci(2), ci(4), true),
		"string-in-no-nulls":       in(ns, false, cs("b"), cs("d")),
		"lone-conjunct":            &expr.Bin{Op: expr.OpGe, L: nf, R: cf(0.5)},
		"q6-shape":                 and(and(&expr.Bin{Op: expr.OpGe, L: d, R: cd(9_001)}, lt(d, cd(9_009))), and(between(f, cf(0.5), cf(2), false), lt(i, ci(8)))),
		"q12-shape":                and(in(s, false, cs("b"), cs("e")), and(&expr.Bin{Op: expr.OpGe, L: d, R: cd(9_003)}, lt(d, cd(9_011)))),
		"q19-shape":                &expr.Bin{Op: expr.OpOr, L: and(in(s, false, cs("a"), cs("b")), between(i, ci(1), ci(5), false)), R: and(in(s, false, cs("c")), between(i, ci(1), ci(10), false))},
		"q19-first-keeps-none":     and(and(in(s, false, cs("zz"), cs("yy")), eq(s2, cs("b"))), between(i, ci(1), ci(30), false)),
		"between-or-null-operands": &expr.Bin{Op: expr.OpOr, L: between(i, ci(9), ci(10), false), R: in(f, true, cf(0), cf(1))},
		"like-%-prefix":            like(w, "%green", false),
		"like-%-suffix":            like(w, "forest%", false),
		"like-%-infix":             like(w, "%green%", false),
		"like-underscore":          like(w, "l_m_", false),
		"like-no-wildcard":         like(w, "forest", false),
		"like-empty-pattern":       like(w, "", false),
		"not-like":                 like(w, "MEDIUM POLISHED%", true),
		"not-like-under-not":       &expr.Not{E: like(w, "%e%", true)},
		"like-one-char":            like(s, "_", false),
		"q16-shape":                and(and(&expr.Bin{Op: expr.OpNe, L: s, R: cs("a")}, like(w, "MEDIUM POLISHED%", true)), in(i, false, ci(1), ci(2), ci(5), ci(8))),
	}
	// Every shape reaches true, false and NULL over the rows but these.
	reaches := map[string]string{
		"string-in-absent-only":    "NULL false",
		"string-not-in-absent":     "NULL true",
		"int-in-no-nulls":          "false true",
		"int-not-in-no-nulls":      "false true",
		"float-between-no-nulls":   "false true",
		"int-not-between-no-nulls": "false true",
		"string-in-no-nulls":       "false true",
		"lone-conjunct":            "false true",
		"q19-first-keeps-none":     "NULL false",
		"like-one-char":            "NULL true",
	}
	set, dictCols := kernelPageSet(t, sch, rows)
	var third, inner []int32
	for k := range rows {
		if k%3 == 0 {
			third = append(third, int32(k))
		}
		if k > 0 && k < len(rows)-1 {
			inner = append(inner, int32(k))
		}
	}
	sels := map[string][]int32{"all": nil, "every-third": third, "inner": inner}
	b := vec.FromRows(sch, rows)
	truth := func(v types.Value) string {
		if v.IsNull() {
			return "NULL"
		}
		return fmt.Sprint(v.Bool())
	}
	for name, e := range compiled {
		t.Run(name, func(t *testing.T) {
			want := make([]string, len(rows))
			seen := map[string]bool{}
			for k, r := range rows {
				v, err := e.Eval(r)
				if err != nil {
					t.Fatal(err)
				}
				want[k] = truth(v)
				seen[want[k]] = true
			}
			reach := "NULL false true"
			if r, ok := reaches[name]; ok {
				reach = r
			}
			var reached []string
			for _, v := range []string{"NULL", "false", "true"} {
				if seen[v] {
					reached = append(reached, v)
				}
			}
			if got := strings.Join(reached, " "); got != reach {
				t.Fatalf("the rows reach %s of true/false/NULL, want %s — test is vacuous", got, reach)
			}
			node := compileBool(e, sch)
			if node == nil {
				t.Fatalf("%v has no kernel", e)
			}
			conj := compileConjuncts(e, sch)
			if len(conj) != len(expr.Conjuncts(e)) {
				t.Fatalf("%v: %d conjunct kernels, want one per conjunct", e, len(conj))
			}
			for selName, sel := range sels {
				b.Sel = sel
				n := b.Rows()
				tv, nv, err := node.evalBool(b, n)
				if err != nil {
					t.Fatal(err)
				}
				var keep []int32
				for k := 0; k < n; k++ {
					i := b.Index(k)
					got := fmt.Sprint(tv[k])
					if nv != nil && nv[k] {
						got = "NULL"
					}
					if got != want[i] {
						t.Fatalf("%s: row %d %v: kernel %s, Eval %s", selName, i, rows[i], got, want[i])
					}
					if want[i] == "true" {
						keep = append(keep, int32(i))
					}
				}
				kept, err := conj.filter(b, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(kept, keep) || !slices.Equal(b.Sel, sel) {
					t.Fatalf("%s: conjunct filter kept %v (selection after: %v), want %v", selName, kept, b.Sel, keep)
				}
			}
			b.Sel = nil
			checkPageSetFilter(t, sch, set, dictCols, e, want)
			checkRowPageFilter(t, sch, rows, e, want, sels)
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
		"like-null-pattern":         &expr.Like{E: w, Pattern: null},
		"like-column-pattern":       &expr.Like{E: w, Pattern: s},
		"like-numeric-pattern":      &expr.Like{E: w, Pattern: ci(1)},
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

// kernelPageSet seals each column of rows into a page of its own and
// returns the set, and which of its pages have the dictionary layout: i, f,
// s, b and w, which hold a NULL entry, and s2, nf and ns — INT, FLOAT,
// string and BOOLEAN dictionaries, with and without NULLs. d and ni are
// fixed-width.
func kernelPageSet(t *testing.T, sch types.Schema, rows []types.Row) (page.PageSet, []bool) {
	t.Helper()
	set := page.PageSet{Pages: make([]page.ColumnPage, sch.Len())}
	dictCols := make([]bool, sch.Len())
	for ci := range set.Pages {
		p := page.InitColumnPage(make([]byte, 4096))
		for _, r := range rows {
			if !p.Append(r[ci]) {
				t.Fatalf("column %d does not fit its page", ci)
			}
		}
		p.Seal()
		set.Pages[ci] = p
		scratch := vec.Col{Kind: sch.Cols[ci].Kind, Form: vec.FormFor(sch.Cols[ci].Kind), Dict: vec.NewDict()}
		codes, err := p.DictEntries(&scratch)
		if err != nil {
			t.Fatal(err)
		}
		dictCols[ci] = codes != nil
	}
	want := []bool{true, true, false, true, true, true, false, true, true, true}
	if !slices.Equal(dictCols, want) {
		t.Fatalf("dictionary-layout pages %v, want %v", dictCols, want)
	}
	return set, dictCols
}

// checkPageSetFilter runs predicate e as the columnar scan runs it over a
// page set — each conjunct tested in code space where it reads one column of
// a dictionary page, the columns of the others decoded as the selection
// narrows — and demands it keep exactly the rows whose truth is "true", on
// the kernels, with a column that only code-space conjuncts read left
// undecoded.
func checkPageSetFilter(t *testing.T, sch types.Schema, set page.PageSet, dictCols []bool, e expr.Expr, truth []string) {
	t.Helper()
	scan := &VecColumnarScan{cfg: ScanConfig{Pred: e}}
	scan.layOut(sch, nil, e)
	d := scan.newDecoder()
	kept, err := d.filter(vec.New(sch), set, len(truth))
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for k, v := range truth {
		if v == "true" {
			want = append(want, int32(k))
		}
	}
	if !slices.Equal(kept, want) {
		t.Fatalf("page-set filter kept %v, want %v", kept, want)
	}
	if d.rowUnits != 0 {
		t.Fatal("page-set filter left the kernels")
	}
	readers := make([]int, sch.Len())
	for _, c := range d.conj {
		for _, ci := range c.cols {
			readers[ci]++
		}
	}
	for _, c := range d.conj {
		if ci := c.cols[0]; len(c.cols) == 1 && dictCols[ci] && readers[ci] == 1 && d.held[ci] {
			t.Fatalf("column %d was decoded, though its one conjunct could be tested on its dictionary page", ci)
		}
	}
}

// checkRowPageFilter runs predicate e as the row-table scan runs it over the
// live rows of a page — the predicate's columns decoded typed, its
// conjuncts narrowing the selection — with the string columns
// dictionary-coded and then boxed, and demands it keep exactly the rows
// whose truth is "true", on the kernels in both layouts. Over the batch it
// decoded, the whole predicate's kernel must answer every row under each
// selection as Expr.Eval does.
func checkRowPageFilter(t *testing.T, sch types.Schema, rows []types.Row, e expr.Expr, truth []string, sels map[string][]int32) {
	t.Helper()
	enc := make([][]byte, len(rows))
	for k, r := range rows {
		enc[k] = types.AppendRow(nil, r)
	}
	var want []int32
	for k, v := range truth {
		if v == "true" {
			want = append(want, int32(k))
		}
	}
	allBoxed := make([]bool, sch.Len())
	for ci := range allBoxed {
		allBoxed[ci] = true
	}
	for _, boxed := range [][]bool{nil, allBoxed} {
		fs := &FragmentScan{cfg: ScanConfig{Pred: e, Boxed: boxed}}
		fs.layOutRows(sch)
		d := fs.newDecoder()
		snd := &vecBatchSender{sch: sch, boxed: fs.boxed}
		kept, err := d.filter(snd.building(), enc)
		if err != nil {
			t.Fatalf("boxed strings %v: row-page filter: %v", boxed != nil, err)
		}
		if !slices.Equal(kept, want) {
			t.Fatalf("boxed strings %v: row-page filter kept %v, want %v", boxed != nil, kept, want)
		}
		if d.rowUnits != 0 {
			t.Fatalf("boxed strings %v: row-page filter left the kernels", boxed != nil)
		}
		node := compileBool(e, sch)
		for selName, sel := range sels {
			d.eval.Sel = sel
			n := d.eval.Rows()
			tv, nv, err := node.evalBool(&d.eval, n)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				i := d.eval.Index(k)
				got := fmt.Sprint(tv[k])
				if nv != nil && nv[k] {
					got = "NULL"
				}
				if got != truth[i] {
					t.Fatalf("boxed strings %v, %s: decoded row %d %v: kernel %s, Eval %s", boxed != nil, selName, i, rows[i], got, truth[i])
				}
			}
		}
		d.eval.Sel = nil
	}
}

// FuzzLikeKernel: the LIKE kernel answers as expr.Like.Eval for any strings
// and pattern, under NOT LIKE too, on every row of a dictionary column —
// asked twice, the second time from the verdicts it keeps by code — and of
// a boxed column, a NULL among the rows.
func FuzzLikeKernel(f *testing.F) {
	for _, seed := range []struct{ a, b, pattern string }{
		{"forest green", "dark green", "%green"}, {"forest", "", "forest%"}, {"abc", "abd", "a_c"},
		{"", "x", ""}, {"%", "_", "%%"}, {"aaa", "aa", "%a%a%"}, {"héllo", "hello", "h_llo"},
		{"MEDIUM POLISHED tin", "LARGE BRUSHED", "MEDIUM POLISHED%"},
	} {
		f.Add(seed.a, seed.b, seed.pattern, false)
		f.Add(seed.a, seed.b, seed.pattern, true)
	}
	sch := types.NewSchema(types.Column{Name: "s", Kind: types.KindString})
	f.Fuzz(func(t *testing.T, a, b, pattern string, negate bool) {
		e := &expr.Like{E: ncol(0, "s"), Pattern: cs(pattern), Negate: negate}
		rows := []types.Row{{types.NewString(a)}, {types.NewString(b)}, {types.Null}, {types.NewString(a)}}
		node := compileBool(e, sch)
		if node == nil {
			t.Fatalf("%v has no kernel", e)
		}
		boxed := &vec.Batch{Sch: sch, Cols: []vec.Col{{Kind: types.KindString, Form: vec.FormBoxed}}}
		for _, r := range rows {
			boxed.AppendRow(r)
		}
		coded := vec.FromRows(sch, rows)
		for _, batch := range []*vec.Batch{coded, coded, boxed} {
			tv, nv, err := node.evalBool(batch, len(rows))
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range rows {
				want, err := e.Eval(r)
				if err != nil {
					t.Fatal(err)
				}
				if null := nv != nil && nv[k]; null != want.IsNull() || !null && tv[k] != want.Bool() {
					t.Fatalf("%q %v (form %d): kernel %v (NULL %v), Eval %v", r[0].S, e, batch.Cols[0].Form, tv[k], null, want)
				}
			}
		}
	})
}

// TestCodeSpaceCorruptCode: a dictionary page whose last cell's code names
// no entry is an error when a conjunct is tested on it in code space, as it
// is when the page is decoded — the row is never silently dropped.
func TestCodeSpaceCorruptCode(t *testing.T) {
	sch, rows := kernelRows()
	set, _ := kernelPageSet(t, sch, rows)
	entries := vec.Col{Kind: types.KindString, Form: vec.FormStr, Dict: vec.NewDict()}
	codes, err := set.Pages[3].DictEntries(&entries)
	if err != nil {
		t.Fatal(err)
	}
	codes[len(codes)-1] = 0xff // the codes alias the page
	pred := eq(ncol(3, "s"), cs("b"))
	scan := &VecColumnarScan{cfg: ScanConfig{Pred: pred}}
	scan.layOut(sch, nil, pred)
	if _, err := scan.newDecoder().filter(vec.New(sch), set, len(rows)); err == nil {
		t.Fatal("a code of no entry passed the code-space test")
	}
}

// TestFallbackDecodesInFull: when a conjunct has no kernel — q22's
// SUBSTRING … IN — the row expression decides the set, and every predicate
// column — a dictionary page, a fixed-width one and a tagged one — is
// decoded in full first, holding every row's value.
func TestFallbackDecodesInFull(t *testing.T) {
	sch := types.NewSchema(
		types.Column{Name: "tag", Kind: types.KindString},
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "phone", Kind: types.KindString},
	)
	var rows []types.Row
	for k := int64(0); k < 300; k++ {
		phone := types.NewString(fmt.Sprintf("%d-%03d", 10+k%25, k))
		rows = append(rows, types.Row{types.NewString(fmt.Sprintf("T-%d", k%4)), types.NewInt(k * 1009), phone})
	}
	set := page.PageSet{Pages: make([]page.ColumnPage, sch.Len())}
	for ci := range set.Pages {
		p := page.InitColumnPage(make([]byte, 4096))
		for _, r := range rows {
			if !p.Append(r[ci]) {
				t.Fatalf("column %d does not fit its page", ci)
			}
		}
		p.Seal()
		set.Pages[ci] = p
	}
	code := &expr.Func{Name: "SUBSTRING", Args: []expr.Expr{ncol(2, "phone"), ci(1), ci(2)}}
	pred := and(and(in(ncol(0, "tag"), false, cs("T-1"), cs("T-2")), gt(ncol(1, "id"), ci(30_000))), in(code, false, cs("13"), cs("31")))
	scan := &VecColumnarScan{cfg: ScanConfig{Pred: pred}}
	scan.layOut(sch, nil, pred)
	d := scan.newDecoder()
	kept, err := d.filter(vec.New(sch), set, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if d.rowUnits != 1 {
		t.Fatalf("%d sets on the row expression, want the one", d.rowUnits)
	}
	var want []int32
	for k, r := range rows {
		if keep, err := expr.EvalBool(pred, r); err != nil {
			t.Fatal(err)
		} else if keep {
			want = append(want, int32(k))
		}
	}
	if len(want) == 0 || !slices.Equal(kept, want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
	for ci := range set.Pages {
		c := &d.eval.Cols[ci]
		if c.Len() != len(rows) {
			t.Fatalf("column %d holds %d rows of %d", ci, c.Len(), len(rows))
		}
		for k, r := range rows {
			if types.Compare(c.Value(k), r[ci]) != 0 {
				t.Fatalf("column %d, row %d reads %v, want %v", ci, k, c.Value(k), r[ci])
			}
		}
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
// it had to evaluate row by row. The date range, BETWEEN, IN and LIKE of the
// TPC-H scans run on kernels — zero — and q22's SUBSTRING, which has no
// kernel, counts every set it is evaluated on.
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
	got, err = Collect(NewVecColumnarScan(fr, "", ScanConfig{Pred: like, Ctx: ctx}))
	if err != nil {
		t.Fatal(err)
	}
	if want := boxedScanRows(t, fr, like); len(want) == 0 {
		t.Fatal("LIKE selected nothing — test is vacuous")
	} else {
		assertSameRows(t, got, want)
	}
	if n := ctx.PredRowSets.Load(); n != 0 {
		t.Fatalf("%d page sets took the row fallback under a LIKE", n)
	}

	substr := in(&expr.Func{Name: "SUBSTRING", Args: []expr.Expr{ncol(3, "status"), ci(8), ci(1)}}, false, cs("4"))
	ctx = NewCtx("", 0)
	if _, err := Collect(NewVecColumnarScan(fr, "", ScanConfig{Pred: substr, Ctx: ctx})); err != nil {
		t.Fatal(err)
	}
	if n := ctx.PredRowSets.Load(); n == 0 {
		t.Fatal("a SUBSTRING predicate has no kernel, yet no page set was counted on the row fallback")
	}
}
