package opt

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// The fold rule: an uncorrelated scalar subquery that aggregates the very
// rows its outer block groups is computed from that block's groups, instead
// of running the same input a second time (q11's join). It works on the
// trees plan.Build returns, where the outer block's input and the
// subquery's are still the same tree: Filter_P(Agg_G(X)) where P holds
// Project_e(Agg_∅(a₁…aₖ)(X′)) and X′ equals X. Each aᵢ is an aggregate the
// outer Agg also computes per group, and folds over the groups: SUM as the
// SUM of the sums, COUNT as the SUM of the counts, MIN and MAX as the MIN
// and MAX of theirs. AVG and DISTINCT aggregates do not fold, and a
// subquery with GROUP BY keeps its "returned n rows" error.
//
// The subquery's plan is replaced by a plan.Fold that the Filter computes
// from its input before it filters (exec.Filter). A fold reads all of its
// Filter's input, so no rewrite may later put anything between the two
// (magicSets refuses to, and the cluster runs the Filter where the whole
// input is).

// foldScalars applies the rule bottom-up over the whole plan.
func foldScalars(n plan.Node) plan.Node {
	rewriteChildren(n, foldScalars)
	if f, ok := n.(*plan.Filter); ok {
		if agg, ok := f.Child.(*plan.Agg); ok {
			for _, s := range plan.ScalarsOf(f) {
				foldOverGroups(s, agg)
			}
		}
	}
	return n
}

// overGroups is the aggregate that folds per-group values of kind k into
// the value of k over all of their rows.
var overGroups = map[exec.AggKind]exec.AggKind{
	exec.AggSum: exec.AggSum, exec.AggCount: exec.AggSum, exec.AggMin: exec.AggMin, exec.AggMax: exec.AggMax,
}

// foldOverGroups replaces the plan of scalar s, of a Filter directly over
// outer, by the fold of outer's groups, when the rule applies.
func foldOverGroups(s *plan.ScalarSubquery, outer *plan.Agg) {
	p, ok := s.Plan.(*plan.Project)
	if !ok || len(p.Exprs) != 1 {
		return
	}
	inner, ok := p.Child.(*plan.Agg)
	m := map[string]string{}
	if !ok || len(inner.GroupBy) != 0 || !sameTree(outer.Child, inner.Child, m) {
		return
	}
	sch := outer.Schema()
	aggs := make([]plan.AggItem, len(inner.Aggs))
	names := map[string]string{}
	fsch := types.Schema{Cols: make([]types.Column, len(aggs))}
	for i, a := range inner.Aggs {
		kind, ok := overGroups[a.Kind]
		j := slices.IndexFunc(outer.Aggs, func(o plan.AggItem) bool {
			return o.Kind == a.Kind && !o.Distinct && sameExpr(o.Arg, a.Arg, m)
		})
		if !ok || a.Distinct || j < 0 {
			return
		}
		c := len(outer.GroupBy) + j
		arg := &expr.Col{Index: c, Name: sch.Cols[c].Name}
		name := fmt.Sprintf("fold %s(%s)", kind, arg)
		aggs[i] = plan.AggItem{Kind: kind, Arg: arg, Name: name}
		names[a.Name], fsch.Cols[i].Name = name, name
	}
	// The projection reads nothing but the aggregates' values.
	e := renamed(p.Exprs[0], names)
	if expr.Bind(e, fsch) != nil {
		return
	}
	s.Fold, s.Plan = &plan.Fold{Aggs: aggs, Expr: e}, nil
}

// renamed is a copy of e whose column references m renames.
func renamed(e expr.Expr, m map[string]string) expr.Expr {
	out := expr.Clone(e)
	expr.Walk(out, func(x expr.Expr) {
		if c, ok := x.(*expr.Col); ok {
			if to, ok := m[c.Name]; ok {
				c.Name = to
			}
		}
	})
	return out
}

// sameTree reports whether plan b computes exactly what plan a does, once
// m renames b's columns to a's: the same nodes over the same tables under
// the same aliases, with the same expressions. As it matches each node it
// adds to m the names b's output gives where a's differ (a generated
// agg$n), for the nodes above to compare under.
func sameTree(a, b plan.Node, m map[string]string) bool {
	ac, bc := a.Children(), b.Children()
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !sameTree(ac[i], bc[i], m) {
			return false
		}
	}
	same := false
	switch x := a.(type) {
	case *plan.Scan:
		y, ok := b.(*plan.Scan)
		same = ok && x.Table.Name == y.Table.Name && x.Alias == y.Alias &&
			slices.Equal(x.Cols, y.Cols) && sameExpr(x.Pred, y.Pred, m)
	case *plan.Filter:
		y, ok := b.(*plan.Filter)
		same = ok && sameExpr(x.Pred, y.Pred, m)
	case *plan.Project:
		y, ok := b.(*plan.Project)
		same = ok && sameExprs(x.Exprs, y.Exprs, m)
	case *plan.Join:
		y, ok := b.(*plan.Join)
		same = ok && x.Type == y.Type && sameExprs(x.EquiLeft, y.EquiLeft, m) &&
			sameExprs(x.EquiRight, y.EquiRight, m) && sameExpr(x.Residual, y.Residual, m)
	case *plan.Agg:
		y, ok := b.(*plan.Agg)
		same = ok && sameExprs(x.GroupBy, y.GroupBy, m) && len(x.Aggs) == len(y.Aggs)
		for i := 0; same && i < len(x.Aggs); i++ {
			xa, ya := x.Aggs[i], y.Aggs[i]
			same = xa.Kind == ya.Kind && xa.Distinct == ya.Distinct && sameExpr(xa.Arg, ya.Arg, m)
		}
	}
	as, bs := a.Schema(), b.Schema()
	if !same || as.Len() != bs.Len() {
		return false
	}
	for i, c := range bs.Cols {
		if c.Name != as.Cols[i].Name {
			m[c.Name] = as.Cols[i].Name
		}
	}
	return true
}

// sameExpr reports whether b, once m renames its columns, is a: the same
// operators, constants and columns. Column positions are not compared (they
// follow from the names), and an expression that holds a scalar subquery is
// the same as none.
func sameExpr(a, b expr.Expr, m map[string]string) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	a, b = expr.Clone(a), renamed(b, m)
	nested := false
	for _, e := range []expr.Expr{a, b} {
		expr.Walk(e, func(x expr.Expr) {
			switch c := x.(type) {
			case *expr.Col:
				c.Index = 0
			case *plan.ScalarSubquery:
				nested = true
			}
		})
	}
	return !nested && reflect.DeepEqual(a, b)
}

func sameExprs(a, b []expr.Expr, m map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameExpr(a[i], b[i], m) {
			return false
		}
	}
	return true
}
