package expr

import (
	"testing"

	"repro/internal/skipcache"
	"repro/internal/types"
)

func col(i int, name string) *Col  { return &Col{Index: i, Name: name} }
func ci(v int64) *Const            { return &Const{V: types.NewInt(v)} }
func cs(s string) *Const           { return &Const{V: types.NewString(s)} }
func cf(f float64) *Const          { return &Const{V: types.NewFloat(f)} }
func bin(op BinOp, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }
func mustEval(t *testing.T, e Expr, r types.Row) types.Value {
	t.Helper()
	v, err := e.Eval(r)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	r := types.Row{types.NewInt(10), types.NewFloat(2.5)}
	for _, tc := range []struct {
		e    Expr
		want types.Value
	}{
		{bin(OpAdd, col(0, "a"), ci(5)), types.NewInt(15)},
		{bin(OpSub, col(0, "a"), ci(3)), types.NewInt(7)},
		{bin(OpMul, col(0, "a"), col(1, "b")), types.NewFloat(25)},
		{bin(OpDiv, col(0, "a"), ci(4)), types.NewFloat(2.5)},
		{bin(OpMod, col(0, "a"), ci(3)), types.NewInt(1)},
		{&Neg{E: col(0, "a")}, types.NewInt(-10)},
	} {
		got := mustEval(t, tc.e, r)
		if types.Compare(got, tc.want) != 0 {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
	if _, err := bin(OpDiv, ci(1), ci(0)).Eval(r); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := bin(OpMod, ci(1), ci(0)).Eval(r); err == nil {
		t.Error("modulo by zero should error")
	}
}

func TestDateArithmetic(t *testing.T) {
	d := types.MustDate("2019-06-01")
	r := types.Row{d}
	got := mustEval(t, bin(OpAdd, col(0, "d"), ci(30)), r)
	if got.String() != "2019-07-01" {
		t.Errorf("date + 30 = %v", got)
	}
	got = mustEval(t, bin(OpSub, col(0, "d"), ci(1)), r)
	if got.String() != "2019-05-31" {
		t.Errorf("date - 1 = %v", got)
	}
	d2 := types.MustDate("2019-06-11")
	got = mustEval(t, bin(OpSub, &Const{V: d2}, col(0, "d")), r)
	if got.Int() != 10 {
		t.Errorf("date - date = %v", got)
	}
}

func TestComparisons(t *testing.T) {
	r := types.Row{types.NewInt(5), types.NewString("m")}
	for _, tc := range []struct {
		e    Expr
		want bool
	}{
		{bin(OpEq, col(0, "a"), ci(5)), true},
		{bin(OpNe, col(0, "a"), ci(5)), false},
		{bin(OpLt, col(0, "a"), ci(6)), true},
		{bin(OpGe, col(0, "a"), ci(5)), true},
		{bin(OpGt, col(1, "s"), cs("l")), true},
		{bin(OpLe, col(1, "s"), cs("a")), false},
	} {
		got := mustEval(t, tc.e, r)
		if got.Bool() != tc.want {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	r := types.Row{types.Null, types.NewInt(1)}
	null := bin(OpEq, col(0, "n"), ci(5)) // NULL = 5 → NULL
	tr := bin(OpEq, col(1, "o"), ci(1))   // true
	fa := bin(OpEq, col(1, "o"), ci(2))   // false

	if v := mustEval(t, null, r); !v.IsNull() {
		t.Error("NULL comparison should be NULL")
	}
	// AND truth table with unknown.
	if v := mustEval(t, bin(OpAnd, null, tr), r); !v.IsNull() {
		t.Error("unknown AND true should be unknown")
	}
	if v := mustEval(t, bin(OpAnd, null, fa), r); v.IsNull() || v.Bool() {
		t.Error("unknown AND false should be false")
	}
	if v := mustEval(t, bin(OpOr, null, tr), r); v.IsNull() || !v.Bool() {
		t.Error("unknown OR true should be true")
	}
	if v := mustEval(t, bin(OpOr, null, fa), r); !v.IsNull() {
		t.Error("unknown OR false should be unknown")
	}
	if v := mustEval(t, &Not{E: null}, r); !v.IsNull() {
		t.Error("NOT unknown should be unknown")
	}
	// EvalBool treats unknown as non-match.
	ok, err := EvalBool(null, r)
	if err != nil || ok {
		t.Error("EvalBool(unknown) should be false")
	}
}

func TestIsNull(t *testing.T) {
	r := types.Row{types.Null, types.NewInt(1)}
	if !mustEval(t, &IsNull{E: col(0, "n")}, r).Bool() {
		t.Error("IS NULL on null")
	}
	if mustEval(t, &IsNull{E: col(1, "o")}, r).Bool() {
		t.Error("IS NULL on non-null")
	}
	if !mustEval(t, &IsNull{E: col(1, "o"), Negate: true}, r).Bool() {
		t.Error("IS NOT NULL on non-null")
	}
}

func TestLike(t *testing.T) {
	for _, tc := range []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"promo burnished", "promo%", true},
		{"special requests", "%special%requests%", true},
		{"abc", "%%c", true},
		{"abc", "a%b%c%d", false},
	} {
		r := types.Row{types.NewString(tc.s)}
		got := mustEval(t, &Like{E: col(0, "s"), Pattern: cs(tc.p)}, r)
		if got.Bool() != tc.want {
			t.Errorf("%q LIKE %q = %v, want %v", tc.s, tc.p, got.Bool(), tc.want)
		}
		neg := mustEval(t, &Like{E: col(0, "s"), Pattern: cs(tc.p), Negate: true}, r)
		if neg.Bool() == got.Bool() {
			t.Errorf("NOT LIKE should negate for %q %q", tc.s, tc.p)
		}
	}
	if v := mustEval(t, &Like{E: &Const{V: types.Null}, Pattern: cs("%")}, nil); !v.IsNull() {
		t.Error("NULL LIKE should be NULL")
	}
}

func TestBetween(t *testing.T) {
	r := types.Row{types.NewInt(5)}
	if !mustEval(t, &Between{E: col(0, "a"), Lo: ci(1), Hi: ci(10)}, r).Bool() {
		t.Error("5 between 1 and 10")
	}
	if !mustEval(t, &Between{E: col(0, "a"), Lo: ci(5), Hi: ci(5)}, r).Bool() {
		t.Error("between is inclusive")
	}
	if mustEval(t, &Between{E: col(0, "a"), Lo: ci(6), Hi: ci(10)}, r).Bool() {
		t.Error("5 not between 6 and 10")
	}
	if !mustEval(t, &Between{E: col(0, "a"), Lo: ci(6), Hi: ci(10), Negate: true}, r).Bool() {
		t.Error("NOT BETWEEN")
	}
}

func TestInList(t *testing.T) {
	r := types.Row{types.NewString("MAIL")}
	in := &InList{E: col(0, "m"), Vals: []Expr{cs("AIR"), cs("MAIL")}}
	if !mustEval(t, in, r).Bool() {
		t.Error("IN should match")
	}
	miss := &InList{E: col(0, "m"), Vals: []Expr{cs("SHIP")}}
	if mustEval(t, miss, r).Bool() {
		t.Error("IN should not match")
	}
	notIn := &InList{E: col(0, "m"), Vals: []Expr{cs("SHIP")}, Negate: true}
	if !mustEval(t, notIn, r).Bool() {
		t.Error("NOT IN should match")
	}
	// NULL in list makes a miss unknown.
	withNull := &InList{E: col(0, "m"), Vals: []Expr{cs("SHIP"), &Const{V: types.Null}}}
	if v := mustEval(t, withNull, r); !v.IsNull() {
		t.Error("IN with NULL and no match should be unknown")
	}
}

func TestCase(t *testing.T) {
	e := &Case{
		Whens: []When{
			{Cond: bin(OpLt, col(0, "a"), ci(10)), Then: cs("small")},
			{Cond: bin(OpLt, col(0, "a"), ci(100)), Then: cs("medium")},
		},
		Else: cs("large"),
	}
	for _, tc := range []struct {
		v    int64
		want string
	}{{5, "small"}, {50, "medium"}, {500, "large"}} {
		got := mustEval(t, e, types.Row{types.NewInt(tc.v)})
		if got.Str() != tc.want {
			t.Errorf("case(%d) = %v", tc.v, got)
		}
	}
	noElse := &Case{Whens: []When{{Cond: bin(OpLt, col(0, "a"), ci(0)), Then: ci(1)}}}
	if v := mustEval(t, noElse, types.Row{types.NewInt(5)}); !v.IsNull() {
		t.Error("CASE without ELSE should default to NULL")
	}
}

func TestFuncs(t *testing.T) {
	d := types.MustDate("1995-03-15")
	r := types.Row{d, types.NewString("Customer#0042"), types.NewInt(-7)}
	if v := mustEval(t, &Func{Name: "YEAR", Args: []Expr{col(0, "d")}}, r); v.Int() != 1995 {
		t.Errorf("YEAR = %v", v)
	}
	if v := mustEval(t, &Func{Name: "MONTH", Args: []Expr{col(0, "d")}}, r); v.Int() != 3 {
		t.Errorf("MONTH = %v", v)
	}
	sub := &Func{Name: "SUBSTRING", Args: []Expr{col(1, "s"), ci(1), ci(8)}}
	if v := mustEval(t, sub, r); v.Str() != "Customer" {
		t.Errorf("SUBSTRING = %q", v.Str())
	}
	over := &Func{Name: "SUBSTRING", Args: []Expr{col(1, "s"), ci(10), ci(100)}}
	if v := mustEval(t, over, r); v.Str() != "0042" {
		t.Errorf("SUBSTRING overflow = %q", v.Str())
	}
	if v := mustEval(t, &Func{Name: "ABS", Args: []Expr{col(2, "n")}}, r); v.Int() != 7 {
		t.Errorf("ABS = %v", v)
	}
	if v := mustEval(t, &Func{Name: "UPPER", Args: []Expr{cs("abc")}}, r); v.Str() != "ABC" {
		t.Errorf("UPPER = %v", v)
	}
	if _, err := (&Func{Name: "NOPE", Args: nil}).Eval(r); err == nil {
		t.Error("unknown function should error")
	}
}

func TestBind(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "l.l_qty", Kind: types.KindInt},
		types.Column{Name: "l.l_price", Kind: types.KindFloat},
	)
	e := bin(OpGt, &Col{Index: -1, Name: "l_qty"}, ci(10))
	if err := Bind(e, s); err != nil {
		t.Fatal(err)
	}
	if e.L.(*Col).Index != 0 {
		t.Errorf("bound index = %d", e.L.(*Col).Index)
	}
	bad := bin(OpGt, &Col{Index: -1, Name: "missing"}, ci(10))
	if err := Bind(bad, s); err == nil {
		t.Error("unknown column should fail binding")
	}
}

func TestConjunctsAndAll(t *testing.T) {
	a := bin(OpGt, col(0, "a"), ci(1))
	b := bin(OpLt, col(0, "a"), ci(9))
	c := bin(OpEq, col(1, "b"), cs("x"))
	e := bin(OpAnd, bin(OpAnd, a, b), c)
	parts := Conjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	back := AndAll(parts)
	r := types.Row{types.NewInt(5), types.NewString("x")}
	ok, _ := EvalBool(back, r)
	if !ok {
		t.Error("recombined predicate lost semantics")
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	// OR is not split.
	or := bin(OpOr, a, b)
	if len(Conjuncts(or)) != 1 {
		t.Error("OR must not split into conjuncts")
	}
}

func TestColumns(t *testing.T) {
	e := bin(OpAnd,
		bin(OpGt, col(0, "l_qty"), ci(1)),
		bin(OpEq, col(1, "l_flag"), col(0, "l_qty")))
	cols := Columns(e)
	if len(cols) != 2 {
		t.Errorf("columns = %v", cols)
	}
}

func TestToSkipConj(t *testing.T) {
	e := bin(OpAnd,
		bin(OpLt, col(0, "l_qty"), ci(24)),
		bin(OpGe, ci(5), col(1, "l_disc"))) // flipped: 5 >= l_disc ≡ l_disc <= 5
	conj, ok := ToSkipConj(e)
	if !ok || len(conj) != 2 {
		t.Fatalf("conj = %v ok=%v", conj, ok)
	}
	if conj[0].Col != "l_qty" || conj[0].Op != skipcache.OpLt {
		t.Errorf("conj[0] = %v", conj[0])
	}
	if conj[1].Col != "l_disc" || conj[1].Op != skipcache.OpLe || conj[1].Val.Int() != 5 {
		t.Errorf("flipped atom = %v", conj[1])
	}
	// Non-convertible atoms make ok false.
	mixed := bin(OpAnd, bin(OpLt, col(0, "a"), ci(1)), &Like{E: col(1, "s"), Pattern: cs("%x")})
	_, ok = ToSkipConj(mixed)
	if ok {
		t.Error("LIKE conjunct should make conversion partial")
	}
	or := bin(OpOr, bin(OpLt, col(0, "a"), ci(1)), bin(OpGt, col(0, "a"), ci(5)))
	if _, ok := ToSkipConj(or); ok {
		t.Error("OR should not convert")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := bin(OpGt, &Col{Index: 3, Name: "x"}, ci(1))
	c := Clone(e).(*Bin)
	c.L.(*Col).Index = 7
	if e.L.(*Col).Index != 3 {
		t.Error("clone aliases original")
	}
}

func TestKindOf(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "d", Kind: types.KindDate},
		types.Column{Name: "s", Kind: types.KindString},
	)
	for _, tc := range []struct {
		e    Expr
		want types.Kind
	}{
		{col(-1, "a"), types.KindInt},
		{bin(OpAdd, col(-1, "a"), col(-1, "a")), types.KindInt},
		{bin(OpAdd, col(-1, "a"), col(-1, "f")), types.KindFloat},
		{bin(OpDiv, col(-1, "a"), col(-1, "a")), types.KindFloat},
		{bin(OpEq, col(-1, "a"), col(-1, "a")), types.KindBool},
		{bin(OpAdd, col(-1, "d"), ci(1)), types.KindDate},
		{bin(OpSub, col(-1, "d"), col(-1, "d")), types.KindInt},
		{&Func{Name: "YEAR", Args: []Expr{col(-1, "d")}}, types.KindInt},
		{&Func{Name: "SUBSTRING", Args: []Expr{col(-1, "s"), ci(1), ci(2)}}, types.KindString},
		{&Like{E: col(-1, "s"), Pattern: cs("%")}, types.KindBool},
		{&Case{Whens: []When{{Cond: bin(OpEq, col(-1, "a"), ci(1)), Then: cf(1)}}}, types.KindFloat},
		// An INT branch beside a FLOAT one makes a FLOAT, whichever comes first.
		{&Case{Whens: []When{{Cond: bin(OpEq, col(-1, "a"), ci(1)), Then: ci(0)}}, Else: col(-1, "f")}, types.KindFloat},
		{&Case{Whens: []When{{Cond: bin(OpEq, col(-1, "a"), ci(1)), Then: &Const{V: types.Null}}}, Else: ci(0)}, types.KindInt},
		{&Case{Whens: []When{{Cond: bin(OpEq, col(-1, "a"), ci(1)), Then: col(-1, "s")}}, Else: cf(1)}, types.KindString},
	} {
		if got := KindOf(tc.e, s); got != tc.want {
			t.Errorf("KindOf(%s) = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := bin(OpAnd, bin(OpGt, col(0, "a"), ci(1)), &Not{E: &IsNull{E: col(0, "a")}})
	s := e.String()
	if s == "" {
		t.Error("empty render")
	}
	// CASE render includes branches.
	c := &Case{Whens: []When{{Cond: bin(OpEq, col(0, "a"), ci(1)), Then: cs("one")}}, Else: cs("other")}
	if got := c.String(); got != "CASE WHEN (a = 1) THEN 'one' ELSE 'other' END" {
		t.Errorf("case render = %q", got)
	}
}

func TestToSkipConjBetween(t *testing.T) {
	e := &Bin{Op: OpAnd,
		L: &Between{E: col(0, "l_discount"), Lo: cf(0.05), Hi: cf(0.07)},
		R: bin(OpLt, col(1, "l_qty"), ci(24)),
	}
	conj, ok := ToSkipConj(e)
	if !ok || len(conj) != 3 {
		t.Fatalf("conj = %v ok=%v", conj, ok)
	}
	if conj[0].Op != skipcache.OpGe || conj[1].Op != skipcache.OpLe {
		t.Errorf("between atoms = %v", conj[:2])
	}
	// NOT BETWEEN must not convert.
	neg := &Between{E: col(0, "a"), Lo: ci(1), Hi: ci(2), Negate: true}
	if _, ok := ToSkipConj(neg); ok {
		t.Error("NOT BETWEEN should not convert completely")
	}
}
