package opt

import (
	"slices"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
)

// Magic sets: filter an aggregate's input by the keys its consumer can use.
// A decorrelated scalar subquery (q2, q17, q20) or an aggregated IN (q18)
// becomes an inner or semi join I between an outer block O and an aggregate
// grouped on I's key. When O is selective the aggregate still groups every
// row of its input R, and I then throws most groups away. For any S that
// holds every key value O can carry (S ⊇ π_k O),
//
//	I(O, Agg_g(R))  ⇒  I(O, Agg_g(SEMI(R, S)))
//
// returns the same rows: a group whose key O lacks is dropped by I anyway, a
// group that survives keeps all of its rows (the semi join tests the group
// key, which every row of a group shares), so its aggregates and any HAVING
// filter above them are unchanged; and a NULL key matches nothing on either
// side. S need not be all of O: it is the cheapest subtree of O that binds a
// column equal to O's key through O's own inner and semi join conditions.
// An anti join's condition says which values its left side lacks, not which
// it holds, so it links nothing, and an anti join never plays I.
//
// The pass runs first in OptimizeOpts, before the join order is chosen, so
// DPsize orders O against the shrunken aggregate; S is a copy, so the plan
// stays a tree (the estimator memoizes by node pointer and plan.Rebind
// rebinds a node in place). Its gate is the estimator's: S must be estimated
// at no more than magicKeyShare of the key's distinct values in R.

// magicSets applies the rewrite bottom-up over the whole plan.
func magicSets(n plan.Node, est *Estimator) plan.Node {
	rewriteChildren(n, func(c plan.Node) plan.Node { return magicSets(c, est) })
	if j, ok := n.(*plan.Join); ok && j.Type != exec.JoinAnti {
		filterAggInput(j, est)
	}
	return n
}

// filterAggInput applies the rewrite at inner or semi join j, on whichever
// input and key leave the aggregate the smallest estimated share of its
// groups, if any passes the gate. The aggregate's input is replaced in
// place: nothing has estimated the aggregate or anything above it yet, as
// the pass runs first and bottom-up (the gate estimates only below it).
func filterAggInput(j *plan.Join, est *Estimator) {
	var (
		agg   *plan.Agg
		key   *expr.Col
		src   keySource
		share = magicKeyShare
	)
	try := func(aggSide, outer plan.Node, aggKeys, outerKeys []expr.Expr) {
		for i, k := range aggKeys {
			a, g := groupKeyOf(aggSide, k)
			if a == nil {
				continue
			}
			s, ok := cheapestSource(outer, outerKeys[i], est)
			if !ok {
				continue
			}
			if sh := s.rows / est.exprNDV(a.Child, g); sh <= share {
				agg, key, src, share = a, g, s, sh
			}
		}
	}
	try(j.Right, j.Left, j.EquiRight, j.EquiLeft)
	try(j.Left, j.Right, j.EquiLeft, j.EquiRight)
	if agg != nil {
		agg.Child = semiJoinBelow(agg.Child, key.Name, clonePlan(src.node), src.col)
	}
}

// groupKeyOf follows join key k of input n down through projections,
// renames and HAVING filters to the aggregate that makes it. It returns that
// aggregate and the group expression, when k is a group column that is a
// plain column of the aggregate's input; nil otherwise.
func groupKeyOf(n plan.Node, k expr.Expr) (*plan.Agg, *expr.Col) {
	c, ok := k.(*expr.Col)
	if !ok {
		return nil, nil
	}
	pos := n.Schema().Find(c.Name)
	for pos >= 0 {
		switch x := n.(type) {
		case *plan.Project:
			c, ok := x.Exprs[pos].(*expr.Col)
			if !ok {
				return nil, nil
			}
			n, pos = x.Child, x.Child.Schema().Find(c.Name)
		case *plan.Rename:
			n = x.Child
		case *plan.Filter:
			n = x.Child
		case *plan.Agg:
			if pos >= len(x.GroupBy) {
				return nil, nil
			}
			g, ok := x.GroupBy[pos].(*expr.Col)
			if !ok {
				return nil, nil
			}
			return x, g
		default:
			return nil, nil
		}
	}
	return nil, nil
}

// keySource is a subtree of an outer block whose column col holds every
// value the block's key can take, and its estimated rows.
type keySource struct {
	node plan.Node
	col  string
	rows float64
	size int
}

// colID names a column by the node that makes it and its position there.
type colID struct {
	node plan.Node
	pos  int
}

// origin follows output column pos of n down through the nodes that pass a
// column on unchanged, to the node that makes it.
func origin(n plan.Node, pos int) colID {
	for {
		switch x := n.(type) {
		case *plan.Filter, *plan.Rename, *plan.Sort, *plan.Limit, *plan.Distinct:
			n = x.Children()[0]
		case *plan.Project:
			c, ok := x.Exprs[pos].(*expr.Col)
			if !ok {
				return colID{n, pos}
			}
			p := x.Child.Schema().Find(c.Name)
			if p < 0 {
				return colID{n, pos}
			}
			n, pos = x.Child, p
		case *plan.Join:
			if l := x.Left.Schema().Len(); pos >= l {
				n, pos = x.Right, pos-l
			} else {
				n = x.Left
			}
		default:
			return colID{n, pos}
		}
	}
}

// columnOf resolves key k, a plain column bound to n, to the column that
// makes it.
func columnOf(n plan.Node, k expr.Expr) (colID, bool) {
	c, ok := k.(*expr.Col)
	if !ok {
		return colID{}, false
	}
	pos := n.Schema().Find(c.Name)
	if pos < 0 {
		return colID{}, false
	}
	return origin(n, pos), true
}

// cheapestSource returns the subtree of o with the smallest estimate (the
// smaller subtree on a tie) that binds a column equal to o's key k through
// o's inner and semi join conditions — k's own column included.
func cheapestSource(o plan.Node, k expr.Expr, est *Estimator) (keySource, bool) {
	seed, ok := columnOf(o, k)
	if !ok {
		return keySource{}, false
	}
	var edges [][2]colID
	plan.Walk(o, func(m plan.Node) {
		j, ok := m.(*plan.Join)
		if !ok || j.Type == exec.JoinAnti {
			return
		}
		for i := range j.EquiLeft {
			l, lok := columnOf(j.Left, j.EquiLeft[i])
			r, rok := columnOf(j.Right, j.EquiRight[i])
			if lok && rok {
				edges = append(edges, [2]colID{l, r})
			}
		}
	})
	equal := map[colID]bool{seed: true}
	for grew := true; grew; {
		grew = false
		for _, e := range edges {
			if equal[e[0]] != equal[e[1]] {
				equal[e[0]], equal[e[1]] = true, true
				grew = true
			}
		}
	}
	var best keySource
	plan.Walk(o, func(m plan.Node) {
		sch := m.Schema()
		for pos, c := range sch.Cols {
			// The column must be the one its name binds to, as the semi
			// join's key will be bound by name.
			if !equal[origin(m, pos)] || sch.Find(c.Name) != pos {
				continue
			}
			s := keySource{node: m, col: c.Name, rows: est.Estimate(m), size: planSize(m)}
			if best.node == nil || s.rows < best.rows || s.rows == best.rows && s.size < best.size {
				best = s
			}
			return
		}
	})
	return best, best.node != nil
}

// planSize counts the nodes of n.
func planSize(n plan.Node) int {
	size := 0
	plan.Walk(n, func(plan.Node) { size++ })
	return size
}

// semiJoinBelow returns n with a semi join of its column named key against
// column col of s, placed below the projections that pass key on, so that it
// probes the aggregate's input where that is read. It copies the projections
// it passes: the gate may have estimated them.
func semiJoinBelow(n plan.Node, key string, s plan.Node, col string) plan.Node {
	if p, ok := n.(*plan.Project); ok {
		if c, ok := p.Exprs[p.Schema().Find(key)].(*expr.Col); ok && p.Child.Schema().Find(c.Name) >= 0 {
			q := *p
			q.Child = semiJoinBelow(p.Child, c.Name, s, col)
			return &q
		}
	}
	return &plan.Join{Left: n, Right: s, Type: exec.JoinSemi,
		EquiLeft:  []expr.Expr{&expr.Col{Index: n.Schema().Find(key), Name: key}},
		EquiRight: []expr.Expr{&expr.Col{Index: s.Schema().Find(col), Name: col}}}
}

// clonePlan deep-copies a plan: nodes, and the expressions they bind. A
// scalar subquery inside an expression is shared, not copied; it is
// uncorrelated and materialized once, whoever reads it.
func clonePlan(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Scan:
		c := *x
		c.Pred = expr.Clone(x.Pred)
		c.Cols = slices.Clone(x.Cols)
		return &c
	case *plan.Filter:
		c := *x
		c.Child, c.Pred = clonePlan(x.Child), expr.Clone(x.Pred)
		return &c
	case *plan.Project:
		c := *x
		c.Child, c.Exprs, c.Names = clonePlan(x.Child), cloneExprs(x.Exprs), slices.Clone(x.Names)
		return &c
	case *plan.Join:
		c := *x
		c.Left, c.Right = clonePlan(x.Left), clonePlan(x.Right)
		c.EquiLeft, c.EquiRight, c.Residual = cloneExprs(x.EquiLeft), cloneExprs(x.EquiRight), expr.Clone(x.Residual)
		return &c
	case *plan.Agg:
		c := *x
		c.Child, c.GroupBy, c.Aggs = clonePlan(x.Child), cloneExprs(x.GroupBy), slices.Clone(x.Aggs)
		for i := range c.Aggs {
			c.Aggs[i].Arg = expr.Clone(x.Aggs[i].Arg)
		}
		return &c
	case *plan.Sort:
		c := *x
		c.Child, c.Keys = clonePlan(x.Child), slices.Clone(x.Keys)
		return &c
	case *plan.Limit:
		c := *x
		c.Child = clonePlan(x.Child)
		return &c
	case *plan.Distinct:
		return &plan.Distinct{Child: clonePlan(x.Child)}
	case *plan.Rename:
		c := *x
		c.Child = clonePlan(x.Child)
		return &c
	}
	panic("opt: clonePlan of an unknown node")
}

func cloneExprs(es []expr.Expr) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = expr.Clone(e)
	}
	return out
}
