// Package expr defines the expression trees shared by the SQL parser, the
// optimizer, and the execution engine, together with an evaluator that
// implements SQL three-valued logic (NULL-aware comparisons, AND/OR over
// {true, false, unknown}).
package expr

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Expr is a scalar expression evaluated against a row.
type Expr interface {
	// Eval computes the expression over the row.
	Eval(r types.Row) (types.Value, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// String renders the operator.
func (o BinOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return "?"
	}
}

// IsComparison reports whether the operator yields a boolean from two
// scalars.
func (o BinOp) IsComparison() bool { return o >= OpEq && o <= OpGe }

// Col references a column by position (set during binding) and name.
type Col struct {
	Index int
	Name  string
}

// Eval returns the referenced value.
func (c *Col) Eval(r types.Row) (types.Value, error) {
	if c.Index < 0 || c.Index >= len(r) {
		return types.Null, fmt.Errorf("expr: column %q (index %d) out of range for %d-column row", c.Name, c.Index, len(r))
	}
	return r[c.Index], nil
}

// String renders the column reference.
func (c *Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Index)
}

// Const is a literal value.
type Const struct {
	V types.Value
}

// Eval returns the literal.
func (c *Const) Eval(types.Row) (types.Value, error) { return c.V, nil }

// String renders the literal.
func (c *Const) String() string {
	if c.V.K == types.KindString {
		return "'" + c.V.S + "'"
	}
	return c.V.String()
}

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Eval applies the operator with SQL NULL semantics.
func (b *Bin) Eval(r types.Row) (types.Value, error) {
	// AND/OR need three-valued logic with short-circuiting on known sides.
	if b.Op == OpAnd || b.Op == OpOr {
		return b.evalLogic(r)
	}
	lv, err := b.L.Eval(r)
	if err != nil {
		return types.Null, err
	}
	rv, err := b.R.Eval(r)
	if err != nil {
		return types.Null, err
	}
	if lv.IsNull() || rv.IsNull() {
		return types.Null, nil
	}
	if b.Op.IsComparison() {
		c := types.Compare(lv, rv)
		switch b.Op {
		case OpEq:
			return types.NewBool(c == 0), nil
		case OpNe:
			return types.NewBool(c != 0), nil
		case OpLt:
			return types.NewBool(c < 0), nil
		case OpLe:
			return types.NewBool(c <= 0), nil
		case OpGt:
			return types.NewBool(c > 0), nil
		case OpGe:
			return types.NewBool(c >= 0), nil
		}
	}
	return arith(b.Op, lv, rv)
}

func (b *Bin) evalLogic(r types.Row) (types.Value, error) {
	lv, err := b.L.Eval(r)
	if err != nil {
		return types.Null, err
	}
	// Short-circuit.
	if !lv.IsNull() {
		if b.Op == OpAnd && !lv.Bool() {
			return types.NewBool(false), nil
		}
		if b.Op == OpOr && lv.Bool() {
			return types.NewBool(true), nil
		}
	}
	rv, err := b.R.Eval(r)
	if err != nil {
		return types.Null, err
	}
	lt, lu := truth(lv)
	rt, ru := truth(rv)
	if b.Op == OpAnd {
		switch {
		case !lu && !lt, !ru && !rt:
			return types.NewBool(false), nil
		case lu || ru:
			return types.Null, nil
		default:
			return types.NewBool(true), nil
		}
	}
	switch {
	case (!lu && lt) || (!ru && rt):
		return types.NewBool(true), nil
	case lu || ru:
		return types.Null, nil
	default:
		return types.NewBool(false), nil
	}
}

// truth maps a value to (isTrue, isUnknown).
func truth(v types.Value) (bool, bool) {
	if v.IsNull() {
		return false, true
	}
	return v.Bool(), false
}

// arith computes an arithmetic result with numeric promotion: int op int is
// int (except /), anything involving a float is float, date ± int is date.
func arith(op BinOp, l, r types.Value) (types.Value, error) {
	// Date arithmetic in days.
	if l.K == types.KindDate && r.K == types.KindInt {
		switch op {
		case OpAdd:
			return types.NewDate(l.I + r.I), nil
		case OpSub:
			return types.NewDate(l.I - r.I), nil
		}
	}
	if l.K == types.KindDate && r.K == types.KindDate && op == OpSub {
		return types.NewInt(l.I - r.I), nil
	}
	bothInt := l.K == types.KindInt && r.K == types.KindInt
	switch op {
	case OpAdd:
		if bothInt {
			return types.NewInt(l.I + r.I), nil
		}
		return types.NewFloat(l.Float() + r.Float()), nil
	case OpSub:
		if bothInt {
			return types.NewInt(l.I - r.I), nil
		}
		return types.NewFloat(l.Float() - r.Float()), nil
	case OpMul:
		if bothInt {
			return types.NewInt(l.I * r.I), nil
		}
		return types.NewFloat(l.Float() * r.Float()), nil
	case OpDiv:
		if r.Float() == 0 {
			return types.Null, fmt.Errorf("expr: division by zero")
		}
		return types.NewFloat(l.Float() / r.Float()), nil
	case OpMod:
		if !bothInt {
			return types.Null, fmt.Errorf("expr: %% requires integers")
		}
		if r.I == 0 {
			return types.Null, fmt.Errorf("expr: modulo by zero")
		}
		return types.NewInt(l.I % r.I), nil
	default:
		return types.Null, fmt.Errorf("expr: unsupported arithmetic operator %v", op)
	}
}

// String renders the operation.
func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not is logical negation.
type Not struct {
	E Expr
}

// Eval negates with NULL passthrough.
func (n *Not) Eval(r types.Row) (types.Value, error) {
	v, err := n.E.Eval(r)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	return types.NewBool(!v.Bool()), nil
}

// String renders the negation.
func (n *Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// Neg is arithmetic negation.
type Neg struct {
	E Expr
}

// Eval negates the numeric value.
func (n *Neg) Eval(r types.Row) (types.Value, error) {
	v, err := n.E.Eval(r)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	if v.K == types.KindInt {
		return types.NewInt(-v.I), nil
	}
	return types.NewFloat(-v.Float()), nil
}

// String renders the negation.
func (n *Neg) String() string { return fmt.Sprintf("-%s", n.E) }

// IsNull tests for SQL NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval returns a non-null boolean.
func (i *IsNull) Eval(r types.Row) (types.Value, error) {
	v, err := i.E.Eval(r)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(v.IsNull() != i.Negate), nil
}

// String renders the test.
func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("%s IS NOT NULL", i.E)
	}
	return fmt.Sprintf("%s IS NULL", i.E)
}

// Like matches SQL LIKE patterns (% and _ wildcards).
type Like struct {
	E       Expr
	Pattern Expr
	Negate  bool
}

// Eval matches the pattern.
func (l *Like) Eval(r types.Row) (types.Value, error) {
	v, err := l.E.Eval(r)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	p, err := l.Pattern.Eval(r)
	if err != nil || p.IsNull() {
		return types.Null, err
	}
	return types.NewBool(LikeMatch(v.Str(), p.Str()) != l.Negate), nil
}

// LikeMatch reports whether s matches the LIKE pattern (% and _
// wildcards), with an iterative two-pointer algorithm (greedy %
// backtracking).
func LikeMatch(s, pattern string) bool {
	var si, pi int
	star := -1
	matchBase := 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			matchBase = si
			pi++
		case star >= 0:
			pi = star + 1
			matchBase++
			si = matchBase
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// String renders the pattern match.
func (l *Like) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s %s", l.E, op, l.Pattern)
}

// Between is a range test (inclusive).
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

// Eval tests Lo <= E <= Hi.
func (b *Between) Eval(r types.Row) (types.Value, error) {
	v, err := b.E.Eval(r)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	lo, err := b.Lo.Eval(r)
	if err != nil || lo.IsNull() {
		return types.Null, err
	}
	hi, err := b.Hi.Eval(r)
	if err != nil || hi.IsNull() {
		return types.Null, err
	}
	in := types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0
	return types.NewBool(in != b.Negate), nil
}

// String renders the range test.
func (b *Between) String() string {
	op := "BETWEEN"
	if b.Negate {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("%s %s %s AND %s", b.E, op, b.Lo, b.Hi)
}

// InList tests membership in a literal list.
type InList struct {
	E      Expr
	Vals   []Expr
	Negate bool
}

// Eval tests membership with SQL NULL semantics (NULL in the list makes a
// non-match unknown).
func (in *InList) Eval(r types.Row) (types.Value, error) {
	v, err := in.E.Eval(r)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	sawNull := false
	for _, ve := range in.Vals {
		lv, err := ve.Eval(r)
		if err != nil {
			return types.Null, err
		}
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if types.Compare(v, lv) == 0 {
			return types.NewBool(!in.Negate), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(in.Negate), nil
}

// String renders the membership test.
func (in *InList) String() string {
	parts := make([]string, len(in.Vals))
	for i, v := range in.Vals {
		parts[i] = v.String()
	}
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", in.E, op, strings.Join(parts, ", "))
}

// When is one CASE branch.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // nil means ELSE NULL
}

// Eval picks the first branch whose condition is true.
func (c *Case) Eval(r types.Row) (types.Value, error) {
	for _, w := range c.Whens {
		cond, err := w.Cond.Eval(r)
		if err != nil {
			return types.Null, err
		}
		if !cond.IsNull() && cond.Bool() {
			return w.Then.Eval(r)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(r)
	}
	return types.Null, nil
}

// String renders the CASE.
func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// Func is a scalar function call (EXTRACT, SUBSTRING, UPPER, LOWER, ABS).
type Func struct {
	Name string
	Args []Expr
}

// Eval dispatches on the (upper-cased) function name.
func (f *Func) Eval(r types.Row) (types.Value, error) {
	args := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(r)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	name := strings.ToUpper(f.Name)
	switch name {
	case "EXTRACT_YEAR", "YEAR":
		if len(args) != 1 {
			return types.Null, fmt.Errorf("expr: %s takes 1 argument", name)
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(int64(args[0].Time().Year())), nil
	case "EXTRACT_MONTH", "MONTH":
		if len(args) != 1 {
			return types.Null, fmt.Errorf("expr: %s takes 1 argument", name)
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(int64(args[0].Time().Month())), nil
	case "SUBSTRING", "SUBSTR":
		if len(args) != 3 {
			return types.Null, fmt.Errorf("expr: SUBSTRING takes 3 arguments")
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		s := args[0].Str()
		start := int(args[1].Int()) - 1 // SQL is 1-based
		length := int(args[2].Int())
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := start + length
		if end > len(s) {
			end = len(s)
		}
		if end < start {
			end = start
		}
		return types.NewString(s[start:end]), nil
	case "UPPER":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToUpper(args[0].Str())), nil
	case "LOWER":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToLower(args[0].Str())), nil
	case "ABS":
		if args[0].IsNull() {
			return types.Null, nil
		}
		if args[0].K == types.KindInt {
			v := args[0].I
			if v < 0 {
				v = -v
			}
			return types.NewInt(v), nil
		}
		v := args[0].Float()
		if v < 0 {
			v = -v
		}
		return types.NewFloat(v), nil
	default:
		return types.Null, fmt.Errorf("expr: unknown function %s", f.Name)
	}
}

// String renders the call.
func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// EvalBool evaluates e as a filter condition: true only when the result is
// a non-null true.
func EvalBool(e Expr, r types.Row) (bool, error) {
	v, err := e.Eval(r)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}
