package opt

import (
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// Semi/anti join pushdown below inner joins. A decorrelated IN or EXISTS
// becomes a semi (anti) join J over the whole FROM clause; when J's left
// input is an inner join I, every row J tests has been multiplied by I's
// other input first, built, concatenated and shipped, and J keeps or drops
// the copies alike. When everything J reads of its left row comes from one
// input C of I,
//
//	J(I(C, D), S)  ⇒  I(J(C, S), D)
//
// holds for semi and anti joins alike: whether a row of I passes J depends
// only on its C part, so filtering C first keeps exactly the same rows of I.
// Its gate is the estimator's: J moves only when C is estimated no larger
// than I — when I multiplies its rows, not when it is itself selective —
// and it keeps moving down while the input it lands on is an inner join
// that passes the same test.

// pushSemiJoins applies the rewrite bottom-up over the whole plan. It builds
// new nodes along the path a join moves down rather than editing the old
// ones, so each node keeps one parent, the one plan.Rebind rebinds it for.
func pushSemiJoins(n plan.Node, est *Estimator) plan.Node {
	rewriteChildren(n, func(c plan.Node) plan.Node { return pushSemiJoins(c, est) })
	if j, ok := n.(*plan.Join); ok && (j.Type == exec.JoinSemi || j.Type == exec.JoinAnti) {
		return sinkSemiJoin(j, est)
	}
	return n
}

// sinkSemiJoin moves semi or anti join j below the inner join on its left,
// into the input that binds everything j reads of its left row, as far down
// as the estimator allows, and returns what replaces j in the plan.
func sinkSemiJoin(j *plan.Join, est *Estimator) plan.Node {
	in, ok := j.Left.(*plan.Join)
	if !ok || in.Type != exec.JoinInner || len(j.EquiLeft) == 0 {
		return j
	}
	intoLeft, ok := semiJoinSide(j, in)
	if !ok {
		return j
	}
	c := in.Right
	if intoLeft {
		c = in.Left
	}
	if est.Estimate(c) > est.Estimate(in) {
		return j
	}
	moved := *j
	moved.Left = c
	lifted := *in
	if intoLeft {
		lifted.Left = sinkSemiJoin(&moved, est)
	} else {
		lifted.Right = sinkSemiJoin(&moved, est)
	}
	return &lifted
}

// semiJoinSide reports which input of inner join in binds every column semi
// join j reads of its left row — its left keys, and the residual's columns
// that bind in in. ok is false when no input qualifies. A name is one
// column, so no input shares one with the other.
func semiJoinSide(j, in *plan.Join) (intoLeft, ok bool) {
	var cols []string
	for _, k := range j.EquiLeft {
		cols = append(cols, expr.Columns(k)...)
	}
	if j.Residual != nil {
		inSch := in.Schema()
		for _, c := range expr.Columns(j.Residual) {
			if inSch.Find(c) >= 0 {
				cols = append(cols, c)
			}
		}
	}
	if len(cols) == 0 {
		return false, false
	}
	bindsAll := func(sch types.Schema) bool {
		for _, c := range cols {
			if sch.Find(c) < 0 {
				return false
			}
		}
		return true
	}
	switch {
	case bindsAll(in.Left.Schema()):
		return true, true
	case bindsAll(in.Right.Schema()):
		return false, true
	}
	return false, false
}
