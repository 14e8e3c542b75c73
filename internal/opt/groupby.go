package opt

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
)

// Group-by pushdown through joins (Section V, after Wong et al. [48]):
// when an aggregation sits on an inner equi-join and
//
//  1. every group-by expression and aggregate argument binds to the LEFT
//     join input,
//  2. the left join keys are a subset of the group-by expressions (so all
//     rows of a group share one join key), and
//  3. the RIGHT input joins on a unique key (each left row matches at most
//     one right row — verified from catalog statistics: exact NDV == row
//     count; sketch estimates cannot prove uniqueness),
//
// the aggregation can run below the join:
//
//	Agg(G,A)(L ⋈ R)  ⇒  Π_{G,A}(Agg(G,A)(L) ⋈ R)
//
// Matching groups pass through the key join unchanged; non-matching groups
// drop whole (every row of a group shares the key). The paper applies this
// transformation cost-based; we require the aggregation to shrink its
// input by at least 2×.

// pushGroupByThroughJoins walks the plan applying the rewrite bottom-up.
func pushGroupByThroughJoins(n plan.Node, est *Estimator) plan.Node {
	// Recurse first.
	rewriteChildren(n, func(c plan.Node) plan.Node { return pushGroupByThroughJoins(c, est) })
	agg, ok := n.(*plan.Agg)
	if !ok || len(agg.GroupBy) == 0 {
		return n
	}
	join, ok := agg.Child.(*plan.Join)
	if !ok || join.Type != exec.JoinInner || len(join.EquiLeft) == 0 || join.Residual != nil {
		return n
	}
	leftSchema := join.Left.Schema()

	// (1) Everything the aggregation computes must bind to the left input.
	bindsLeft := func(e expr.Expr) bool {
		for _, c := range expr.Columns(e) {
			if leftSchema.Find(c) < 0 {
				return false
			}
		}
		return true
	}
	for _, g := range agg.GroupBy {
		if !bindsLeft(g) {
			return n
		}
	}
	for _, a := range agg.Aggs {
		if a.Arg != nil && !bindsLeft(a.Arg) {
			return n
		}
		if a.Distinct {
			return n // keep the conservative path for DISTINCT aggregates
		}
	}
	// (2) Left join keys ⊆ group-by expressions. Plain columns compare by
	// schema position (qualification-insensitive); other expressions by
	// text.
	canon := func(e expr.Expr) string {
		if c, isCol := e.(*expr.Col); isCol {
			if idx := leftSchema.Find(c.Name); idx >= 0 {
				return "$" + strings.ToLower(leftSchema.Cols[idx].Name)
			}
		}
		return e.String()
	}
	groupKeys := map[string]bool{}
	for _, g := range agg.GroupBy {
		groupKeys[canon(g)] = true
	}
	for _, k := range join.EquiLeft {
		if !groupKeys[canon(k)] {
			return n
		}
	}
	// (3) Right side joins on a unique key.
	if !rightSideUnique(join.Right, join.EquiRight, est.Cat) {
		return n
	}
	// Cost gate: the pushed aggregation must shrink the join input.
	inputCard := est.Estimate(join.Left)
	groupCard := est.Estimate(agg) // group count estimate
	if groupCard*2 > inputCard {
		return n
	}

	// Rewrite. The pushed aggregation's output schema is G ++ aggs; the
	// join keys re-bind to the group columns by name.
	groupNames := make([]string, len(agg.GroupBy))
	for i, g := range agg.GroupBy {
		if c, isCol := g.(*expr.Col); isCol {
			groupNames[i] = c.Name
		} else {
			groupNames[i] = g.String()
		}
	}
	pushed := plan.NewAgg(join.Left, agg.GroupBy, agg.Aggs, groupNames)
	newKeys := make([]expr.Expr, len(join.EquiLeft))
	for i, k := range join.EquiLeft {
		newKeys[i] = expr.Clone(k)
	}
	newJoin := &plan.Join{
		Left: pushed, Right: join.Right, Type: exec.JoinInner,
		EquiLeft: newKeys, EquiRight: join.EquiRight,
	}
	// Project back to the aggregation's schema (group cols then aggs, which
	// are exactly the first len(schema) columns of the pushed agg's output
	// inside the join result).
	outSchema := agg.Schema()
	exprs := make([]expr.Expr, outSchema.Len())
	names := make([]string, outSchema.Len())
	for i, col := range outSchema.Cols {
		exprs[i] = &expr.Col{Index: i, Name: pushed.Schema().Cols[i].Name}
		names[i] = col.Name
	}
	return plan.NewProject(newJoin, exprs, names)
}

// rightSideUnique reports whether the right input's join key is unique:
// a (possibly filtered/projected) base-table scan whose key column has
// NDV == row count in the statistics.
func rightSideUnique(n plan.Node, keys []expr.Expr, cat *catalog.Catalog) bool {
	if len(keys) != 1 {
		return false
	}
	col, ok := keys[0].(*expr.Col)
	if !ok {
		return false
	}
	// Unwrap filters/projections that pass the column through.
	cur := n
	for {
		switch x := cur.(type) {
		case *plan.Filter:
			cur = x.Child
			continue
		case *plan.Scan:
			stats := cat.Stats(x.Table.Name)
			bare := strings.ToLower(col.Name)
			if i := strings.LastIndexByte(bare, '.'); i >= 0 {
				bare = bare[i+1:]
			}
			cs, exists := stats.Cols[bare]
			if !exists || stats.RowCount <= 0 {
				return false
			}
			// The rewrite is only correct when the key really is unique, so
			// a sketch-estimated NDV (±2% error) can never prove it; only
			// the exact distinct count qualifies. Duplicates always drive
			// the exact count strictly below the row count, so this cannot
			// false-positive.
			return cs.NDVExact && cs.NDV == stats.RowCount
		default:
			return false
		}
	}
}
