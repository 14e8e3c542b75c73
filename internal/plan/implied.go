package plan

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/types"
)

// impliedFilters derives single-relation filters from an OR conjunct that
// spans two or more of rels. For each relation T on which every disjunct
// has conjuncts of its own (conjuncts over T's columns alone), the OR of
// those conjuncts, disjunct by disjunct, is implied by c: a row pair that
// makes c TRUE makes some disjunct TRUE, so that disjunct's T-part is TRUE
// on the T row, and a filter keeps only TRUE rows. The filter is returned
// as a new conjunct for joinRelations to push into T's scan; c itself stays
// (as the join's residual), since the filter is implied, not equivalent.
// TPC-H q19's `(p_brand = … AND l_quantity >= 1 AND l_quantity <= 11) OR …`
// yields an OR over part and `l_quantity BETWEEN 1 AND 30` on lineitem.
func impliedFilters(c expr.Expr, rels []Node) []expr.Expr {
	if or, ok := c.(*expr.Bin); !ok || or.Op != expr.OpOr {
		return nil
	}
	spanned := 0
	for _, r := range rels {
		if referencesAny(c, r.Schema()) {
			spanned++
		}
	}
	if spanned < 2 {
		return nil
	}
	branches := disjuncts(c)
	var out []expr.Expr
	for _, r := range rels {
		sch := r.Schema()
		parts := make([][]expr.Expr, len(branches))
		for i, br := range branches {
			for _, bc := range expr.Conjuncts(br) {
				if referencesAny(bc, sch) && bindsTo(bc, sch) {
					parts[i] = append(parts[i], bc)
				}
			}
			if len(parts[i]) == 0 {
				parts = nil
				break
			}
		}
		if parts != nil {
			out = append(out, impliedFilter(parts))
		}
	}
	return out
}

// impliedFilter is the OR over disjuncts of each one's conjuncts, folded to
// one atom when foldColumn can. It shares no node with parts, which stay in
// the residual and are bound to another schema.
func impliedFilter(parts [][]expr.Expr) expr.Expr {
	if f, ok := foldColumn(parts); ok {
		return f
	}
	var out expr.Expr
	for _, p := range parts {
		d := expr.Clone(expr.AndAll(p))
		if out == nil {
			out = d
		} else {
			out = &expr.Bin{Op: expr.OpOr, L: out, R: d}
		}
	}
	return out
}

// colBound is what one disjunct's atoms say about their column: the values
// it may equal (set, from its first `=` or IN atom) or the range it lies in
// (lo, hi; nil where a side is open).
type colBound struct {
	set    []types.Value
	lo, hi *types.Value
}

// foldColumn folds an OR whose every disjunct constrains one and the same
// column by constants of one kind: to an IN list of the union of their
// values (`=` for one value) when each disjunct has an `=` or IN atom, else
// to their hull — BETWEEN the least lower and the greatest upper bound, or
// a single bound when some disjunct leaves the other side open. The fold
// may be looser than the OR (a strict bound becomes inclusive, a gap
// between ranges is filled), never tighter, so it is implied as the OR is.
// ok is false when the parts have another shape, a NULL constant, or no
// bound on either side.
func foldColumn(parts [][]expr.Expr) (expr.Expr, bool) {
	var col *expr.Col
	kind := types.KindNull
	// atom reads one conjunct as column op constants; ok only when it is
	// over col (the first atom picks it) with non-NULL constants of kind.
	atom := func(e expr.Expr) (op expr.BinOp, vals []types.Value, ok bool) {
		var c *expr.Col
		switch x := e.(type) {
		case *expr.Bin:
			var v types.Value
			c, v, op, ok = expr.ColConst(x)
			if !ok || !op.IsComparison() || op == expr.OpNe {
				return 0, nil, false
			}
			vals = []types.Value{v}
		case *expr.Between:
			lo, lok := x.Lo.(*expr.Const)
			hi, hok := x.Hi.(*expr.Const)
			if x.Negate || !lok || !hok {
				return 0, nil, false
			}
			c, _ = x.E.(*expr.Col)
			op, vals = expr.OpAnd, []types.Value{lo.V, hi.V}
		case *expr.InList:
			if x.Negate {
				return 0, nil, false
			}
			c, _ = x.E.(*expr.Col)
			op = expr.OpEq
			for _, v := range x.Vals {
				k, isConst := v.(*expr.Const)
				if !isConst {
					return 0, nil, false
				}
				vals = append(vals, k.V)
			}
		default:
			return 0, nil, false
		}
		if c == nil || col != nil && c.Name != col.Name {
			return 0, nil, false
		}
		col = c
		for _, v := range vals {
			if kind == types.KindNull {
				kind = v.K
			}
			if v.IsNull() || v.K != kind {
				return 0, nil, false
			}
		}
		return op, vals, true
	}
	bounds := make([]colBound, len(parts))
	allSets := true
	for i, p := range parts {
		b := &bounds[i]
		for _, e := range p {
			op, vals, ok := atom(e)
			if !ok {
				return nil, false
			}
			switch op {
			case expr.OpEq:
				if b.set == nil {
					b.set = vals
				}
			case expr.OpAnd: // BETWEEN
				b.lo, b.hi = tighter(b.lo, vals[0], 1), tighter(b.hi, vals[1], -1)
			case expr.OpGt, expr.OpGe:
				b.lo = tighter(b.lo, vals[0], 1)
			case expr.OpLt, expr.OpLe:
				b.hi = tighter(b.hi, vals[0], -1)
			}
		}
		if b.set != nil {
			// The disjunct allows no value outside its set (its range
			// atoms may allow fewer), so the set's extremes bound it.
			lo, hi := slices.MinFunc(b.set, types.Compare), slices.MaxFunc(b.set, types.Compare)
			b.lo, b.hi = &lo, &hi
		} else {
			allSets = false
		}
	}
	ref := &expr.Col{Index: -1, Name: col.Name}
	if allSets {
		// The union in value order, so one set of values reads one way
		// whichever disjunct named a value first.
		var union []types.Value
		for _, b := range bounds {
			union = append(union, b.set...)
		}
		slices.SortFunc(union, types.Compare)
		union = slices.CompactFunc(union, func(a, b types.Value) bool { return types.Compare(a, b) == 0 })
		if len(union) == 1 {
			return &expr.Bin{Op: expr.OpEq, L: ref, R: &expr.Const{V: union[0]}}, true
		}
		vals := make([]expr.Expr, len(union))
		for i, v := range union {
			vals[i] = &expr.Const{V: v}
		}
		return &expr.InList{E: ref, Vals: vals}, true
	}
	lo, hi := bounds[0].lo, bounds[0].hi
	for _, b := range bounds[1:] {
		lo, hi = looser(lo, b.lo, -1), looser(hi, b.hi, 1)
	}
	switch {
	case lo != nil && hi != nil:
		return &expr.Between{E: ref, Lo: &expr.Const{V: *lo}, Hi: &expr.Const{V: *hi}}, true
	case lo != nil:
		return &expr.Bin{Op: expr.OpGe, L: ref, R: &expr.Const{V: *lo}}, true
	case hi != nil:
		return &expr.Bin{Op: expr.OpLe, L: ref, R: &expr.Const{V: *hi}}, true
	}
	return nil, false
}

// tighter narrows bound b by v: the greater of the two when dir is 1 (a
// lower bound), the lesser when -1 (an upper bound); nil b is open.
func tighter(b *types.Value, v types.Value, dir int) *types.Value {
	if b == nil || types.Compare(v, *b)*dir > 0 {
		return &v
	}
	return b
}

// looser widens bound a to cover b: the lesser when dir is -1 (a lower
// bound), the greater when 1 (an upper bound); a nil side stays open.
func looser(a, b *types.Value, dir int) *types.Value {
	if a == nil || b == nil {
		return nil
	}
	if types.Compare(*b, *a)*dir > 0 {
		return b
	}
	return a
}
