package plan

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

// PruneColumns is projection pushdown: one top-down pass that works out,
// for every node, which of its output columns anything above it refers to,
// and narrows each Scan (Scan.Cols) to those. Projections whose outputs
// nobody reads (the SELECT * under a semi join, a derived table's unused
// items) lose them too, so their inputs can narrow. Every other schema
// narrows by construction, being derived from the scans'. The root keeps
// its whole schema. Scalar subquery plans are pruned the same way, each as
// a root of its own. The plan comes back re-bound (Rebind).
//
// A column survives exactly when a reference that reaches it names it:
// Build resolves every reference to the exact schema name of its column,
// and no schema names one column twice, so the name is the column.
func PruneColumns(root Node) error {
	if _, err := prune(root, colRefs{all: true}); err != nil {
		return err
	}
	return Rebind(root)
}

// colRefs is the set of column references a node's ancestors make to its
// output: either all of it, or the named columns.
type colRefs struct {
	all   bool
	names map[string]bool
}

func (r *colRefs) add(name string) {
	if r.names == nil {
		r.names = map[string]bool{}
	}
	r.names[name] = true
}

func (r *colRefs) addExprs(es ...expr.Expr) {
	for _, e := range es {
		expr.Walk(e, func(x expr.Expr) {
			if c, ok := x.(*expr.Col); ok {
				r.add(c.Name)
			}
		})
	}
}

// extend returns a copy of r that the caller may add to.
func (r colRefs) extend() colRefs {
	out := colRefs{all: r.all}
	for n := range r.names {
		out.add(n)
	}
	return out
}

// has reports whether r refers to the column of this name.
func (r colRefs) has(col string) bool {
	return r.all || r.names[col]
}

// keep returns, for each column of sch, its offset among the columns r
// refers to, or -1; and how many those are.
func (r colRefs) keep(sch types.Schema) (remap []int, n int) {
	remap = make([]int, sch.Len())
	for i, c := range sch.Cols {
		remap[i] = -1
		if r.has(c.Name) {
			remap[i] = n
			n++
		}
	}
	return remap, n
}

// identity is the remap of a node whose n output columns all stay put.
func identity(n int) []int {
	remap := make([]int, n)
	for i := range remap {
		remap[i] = i
	}
	return remap
}

// prune narrows n to what need refers to and returns, for each column of
// n's schema before the call, its offset afterwards or -1. The plan of each
// scalar subquery in n's expressions is pruned as a root of its own.
func prune(n Node, need colRefs) ([]int, error) {
	for _, s := range ScalarsOf(n) {
		if err := PruneColumns(s.Plan); err != nil {
			return nil, err
		}
	}
	switch x := n.(type) {
	case *Scan:
		old := x.Schema()
		remap, kept := need.keep(old)
		if kept == old.Len() {
			return remap, nil
		}
		cols := make([]int, 0, kept)
		for i, to := range remap {
			if to < 0 {
				continue
			}
			if x.Cols == nil {
				cols = append(cols, i)
			} else {
				cols = append(cols, x.Cols[i])
			}
		}
		x.Cols = cols
		return remap, nil
	case *Filter:
		down := need.extend()
		down.addExprs(x.Pred)
		return prune(x.Child, down)
	case *Project:
		remap, kept := need.keep(x.sch)
		if kept < len(x.Exprs) {
			exprs, names, cols := make([]expr.Expr, kept), make([]string, kept), make([]types.Column, kept)
			for i, to := range remap {
				if to >= 0 {
					exprs[to], names[to], cols[to] = x.Exprs[i], x.Names[i], x.sch.Cols[i]
				}
			}
			x.Exprs, x.Names, x.sch = exprs, names, types.Schema{Cols: cols}
		}
		var down colRefs
		down.addExprs(x.Exprs...)
		_, err := prune(x.Child, down)
		return remap, err
	case *Agg:
		var down colRefs
		down.addExprs(x.GroupBy...)
		for _, a := range x.Aggs {
			down.addExprs(a.Arg)
		}
		_, err := prune(x.Child, down)
		return identity(x.sch.Len()), err
	case *Join:
		left := need.extend()
		left.addExprs(x.EquiLeft...)
		left.addExprs(x.Residual)
		var right colRefs
		if x.Type == exec.JoinInner {
			// References above an inner join resolve against both inputs.
			left.addExprs(x.EquiRight...)
			right = left
		} else {
			// A semi or anti join emits its left input only: of the right
			// one, nothing above can see more than the join itself uses.
			right.addExprs(x.EquiRight...)
			right.addExprs(x.Residual)
		}
		remap, err := prune(x.Left, left)
		if err != nil {
			return nil, err
		}
		rmap, err := prune(x.Right, right)
		if err != nil || x.Type != exec.JoinInner {
			return remap, err
		}
		shift := x.Left.Schema().Len()
		for _, to := range rmap {
			if to >= 0 {
				to += shift
			}
			remap = append(remap, to)
		}
		return remap, nil
	case *Sort:
		down := need.extend()
		sch := x.Child.Schema()
		for _, k := range x.Keys {
			down.add(sch.Cols[k.Col].Name)
		}
		remap, err := prune(x.Child, down)
		if err != nil {
			return nil, err
		}
		for i, k := range x.Keys {
			if remap[k.Col] < 0 {
				return nil, fmt.Errorf("plan: sort key $%d (%s) was pruned", k.Col, sch.Cols[k.Col].Name)
			}
			x.Keys[i].Col = remap[k.Col]
		}
		return remap, nil
	case *Limit:
		return prune(x.Child, need)
	case *Rename:
		// References use the rename's names; hand the child its own names
		// for the same positions.
		down := colRefs{all: need.all}
		child := x.Child.Schema()
		for i, c := range x.sch.Cols {
			if !need.all && need.has(c.Name) {
				down.add(child.Cols[i].Name)
			}
		}
		remap, err := prune(x.Child, down)
		if err != nil {
			return nil, err
		}
		var cols []types.Column
		for i, to := range remap {
			if to >= 0 {
				cols = append(cols, x.sch.Cols[i])
			}
		}
		x.sch = types.Schema{Cols: cols}
		return remap, nil
	default:
		return nil, fmt.Errorf("plan: cannot prune %T", n)
	}
}
