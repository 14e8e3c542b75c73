package expr

import (
	"fmt"
	"strings"

	"repro/internal/skipcache"
	"repro/internal/types"
)

// Bind sets the Index of every column reference in e, in place, to the
// offset of the schema column of exactly its name, returning an error for a
// name the schema lacks. References carry their schema names by then
// (plan.Build resolves them).
func Bind(e Expr, s types.Schema) error {
	var bindErr error
	Walk(e, func(x Expr) {
		if c, ok := x.(*Col); ok && bindErr == nil {
			idx := s.Find(c.Name)
			if idx < 0 {
				bindErr = fmt.Errorf("expr: unknown column %q in schema %s", c.Name, s)
				return
			}
			c.Index = idx
		}
	})
	return bindErr
}

// Parent is an expression defined outside this package whose operands are
// bound to the same row as itself, so that Walk, and with it Bind, Columns
// and every other walker, visits them.
type Parent interface {
	Operands() []Expr
}

// Walk visits every node of the expression tree in preorder.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Bin:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Not:
		Walk(x.E, fn)
	case *Neg:
		Walk(x.E, fn)
	case *IsNull:
		Walk(x.E, fn)
	case *Like:
		Walk(x.E, fn)
		Walk(x.Pattern, fn)
	case *Between:
		Walk(x.E, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *InList:
		Walk(x.E, fn)
		for _, v := range x.Vals {
			Walk(v, fn)
		}
	case *Case:
		for _, w := range x.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		Walk(x.Else, fn)
	case *Func:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case Parent:
		for _, o := range x.Operands() {
			Walk(o, fn)
		}
	}
}

// Clone deep-copies an expression tree so rebinding one copy does not
// disturb others.
func Clone(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Col:
		c := *x
		return &c
	case *Const:
		c := *x
		return &c
	case *Bin:
		return &Bin{Op: x.Op, L: Clone(x.L), R: Clone(x.R)}
	case *Not:
		return &Not{E: Clone(x.E)}
	case *Neg:
		return &Neg{E: Clone(x.E)}
	case *IsNull:
		return &IsNull{E: Clone(x.E), Negate: x.Negate}
	case *Like:
		return &Like{E: Clone(x.E), Pattern: Clone(x.Pattern), Negate: x.Negate}
	case *Between:
		return &Between{E: Clone(x.E), Lo: Clone(x.Lo), Hi: Clone(x.Hi), Negate: x.Negate}
	case *InList:
		vals := make([]Expr, len(x.Vals))
		for i, v := range x.Vals {
			vals[i] = Clone(v)
		}
		return &InList{E: Clone(x.E), Vals: vals, Negate: x.Negate}
	case *Case:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: Clone(w.Cond), Then: Clone(w.Then)}
		}
		return &Case{Whens: whens, Else: Clone(x.Else)}
	case *Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Clone(a)
		}
		return &Func{Name: x.Name, Args: args}
	default:
		return e
	}
}

// Conjuncts splits a predicate into its top-level AND-ed parts.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// AndAll combines conjuncts back into a single predicate (nil if empty).
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &Bin{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// Columns returns the distinct column names referenced by e.
func Columns(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	Walk(e, func(x Expr) {
		if c, ok := x.(*Col); ok {
			if !seen[c.Name] {
				seen[c.Name] = true
				out = append(out, c.Name)
			}
		}
	})
	return out
}

// ToSkipConj converts the skippable atomic conjuncts of a scan predicate,
// bound to the scanned table's columns, into a skipcache conjunction: parts
// of the form column op constant, each keyed by the name of the table
// column it is bound to — table.Cols[Index].Name, whatever alias or
// qualifier the query wrote — which is what MinMax records and what one
// predicate-cache entry serves under every spelling. Returns the
// conjunction (possibly shorter than the full predicate — a subset is still
// sound for recording "no rows matched the FULL predicate" only when the
// whole predicate converted, so ok reports whether every conjunct was
// convertible).
func ToSkipConj(e Expr, table types.Schema) (skipcache.Conj, bool) {
	conjs := Conjuncts(e)
	out := make(skipcache.Conj, 0, len(conjs))
	all := true
	for _, c := range conjs {
		// BETWEEN converts to a pair of range atoms.
		if b, isBetween := c.(*Between); isBetween && !b.Negate {
			col, cok := b.E.(*Col)
			lo, lok := b.Lo.(*Const)
			hi, hok := b.Hi.(*Const)
			if name, ok := tableCol(col, table); ok && cok && lok && hok && !lo.V.IsNull() && !hi.V.IsNull() {
				out = append(out,
					skipcache.Pred{Col: name, Op: skipcache.OpGe, Val: lo.V},
					skipcache.Pred{Col: name, Op: skipcache.OpLe, Val: hi.V},
				)
				continue
			}
			all = false
			continue
		}
		p, ok := atomToSkipPred(c, table)
		if !ok {
			all = false
			continue
		}
		out = append(out, p)
	}
	return out, all && len(out) > 0
}

// tableCol is the name of the table column col is bound to.
func tableCol(col *Col, table types.Schema) (string, bool) {
	if col == nil || col.Index < 0 || col.Index >= table.Len() {
		return "", false
	}
	return table.Cols[col.Index].Name, true
}

func atomToSkipPred(e Expr, table types.Schema) (skipcache.Pred, bool) {
	b, ok := e.(*Bin)
	if !ok || !b.Op.IsComparison() {
		return skipcache.Pred{}, false
	}
	col, cok := b.L.(*Col)
	cons, vok := b.R.(*Const)
	flip := false
	if !cok || !vok {
		col, cok = b.R.(*Col)
		cons, vok = b.L.(*Const)
		flip = true
	}
	name, bound := tableCol(col, table)
	if !cok || !vok || !bound || cons.V.IsNull() {
		return skipcache.Pred{}, false
	}
	op := b.Op
	if flip {
		switch op {
		case OpLt:
			op = OpGt
		case OpLe:
			op = OpGe
		case OpGt:
			op = OpLt
		case OpGe:
			op = OpLe
		}
	}
	var sop skipcache.CmpOp
	switch op {
	case OpEq:
		sop = skipcache.OpEq
	case OpNe:
		sop = skipcache.OpNe
	case OpLt:
		sop = skipcache.OpLt
	case OpLe:
		sop = skipcache.OpLe
	case OpGt:
		sop = skipcache.OpGt
	case OpGe:
		sop = skipcache.OpGe
	default:
		return skipcache.Pred{}, false
	}
	return skipcache.Pred{Col: name, Op: sop, Val: cons.V}, true
}

// KindOf infers the result kind of an expression under a schema. Best
// effort: unknown constructs report the kind of their first operand.
func KindOf(e Expr, s types.Schema) types.Kind {
	switch x := e.(type) {
	case *Col:
		if idx := s.Find(x.Name); idx >= 0 {
			return s.Cols[idx].Kind
		}
		if x.Index >= 0 && x.Index < s.Len() {
			return s.Cols[x.Index].Kind
		}
		return types.KindNull
	case *Const:
		return x.V.K
	case *Bin:
		if x.Op.IsComparison() || x.Op == OpAnd || x.Op == OpOr {
			return types.KindBool
		}
		lk, rk := KindOf(x.L, s), KindOf(x.R, s)
		if x.Op == OpDiv {
			return types.KindFloat
		}
		if lk == types.KindDate && rk == types.KindInt {
			return types.KindDate
		}
		if lk == types.KindDate && rk == types.KindDate {
			return types.KindInt
		}
		if lk == types.KindFloat || rk == types.KindFloat {
			return types.KindFloat
		}
		return types.KindInt
	case *Not, *IsNull, *Like, *Between, *InList:
		return types.KindBool
	case *Neg:
		return KindOf(x.E, s)
	case *Case:
		// The first branch's kind that is not NULL, promoted to FLOAT when
		// it is INT and another branch is FLOAT, as arithmetic promotes.
		branches := make([]Expr, 0, len(x.Whens)+1)
		for _, w := range x.Whens {
			branches = append(branches, w.Then)
		}
		if x.Else != nil {
			branches = append(branches, x.Else)
		}
		k, float := types.KindNull, false
		for _, b := range branches {
			bk := KindOf(b, s)
			if k == types.KindNull {
				k = bk
			}
			float = float || bk == types.KindFloat
		}
		if k == types.KindInt && float {
			return types.KindFloat
		}
		return k
	case *Func:
		switch strings.ToUpper(x.Name) {
		case "EXTRACT_YEAR", "YEAR", "EXTRACT_MONTH", "MONTH":
			return types.KindInt
		case "SUBSTRING", "SUBSTR", "UPPER", "LOWER":
			return types.KindString
		case "ABS":
			return KindOf(x.Args[0], s)
		}
		return types.KindNull
	default:
		return types.KindNull
	}
}
