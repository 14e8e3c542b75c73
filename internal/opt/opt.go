// Package opt implements HRDBMS's phase-1 global optimization (Section V):
// statistics-based cardinality estimation (histograms + NDV sketches) and
// DPsize join enumeration with network-aware costing. (Selection pushdown
// and decorrelation happen during plan building, projection pushdown in
// plan.PruneColumns, which runs here right after the magic-set rewrite; the
// dataflow conversion and dataflow optimization phases — operator
// distribution, shuffle insertion and elimination, pre-aggregation
// splitting — live in the cluster layer, which owns node placement and
// re-costs joins at exchange boundaries.)
package opt

import (
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
)

// Estimator computes cardinalities from catalog statistics.
type Estimator struct {
	Cat *catalog.Catalog
}

// Estimate returns the estimated output row count of a plan node.
func (e *Estimator) Estimate(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		base := float64(e.Cat.Stats(x.Table.Name).RowCount)
		if base < 1 {
			base = 1
		}
		return math.Max(1, base*e.selectivity(x.Pred, x))
	case *plan.Filter:
		return math.Max(1, e.Estimate(x.Child)*e.selectivity(x.Pred, x.Child))
	case *plan.Project, *plan.Rename:
		return e.Estimate(n.Children()[0])
	case *plan.Join:
		l := e.Estimate(x.Left)
		r := e.Estimate(x.Right)
		switch x.Type {
		case exec.JoinSemi:
			return math.Max(1, l*0.5)
		case exec.JoinAnti:
			return math.Max(1, l*0.5)
		default:
			if len(x.EquiLeft) == 0 {
				return l * r // cross or theta join
			}
			// Standard equi-join estimate: |L||R| / max(NDV).
			ndv := math.Max(e.keyNDV(x.Left, x.EquiLeft), e.keyNDV(x.Right, x.EquiRight))
			if ndv < 1 {
				ndv = math.Max(l, r)
			}
			sel := e.selectivity(x.Residual, x)
			return math.Max(1, l*r/ndv*sel)
		}
	case *plan.Agg:
		if len(x.GroupBy) == 0 {
			return 1
		}
		card := e.Estimate(x.Child)
		groups := 1.0
		for _, g := range x.GroupBy {
			groups *= e.exprNDV(x.Child, g)
		}
		return math.Max(1, math.Min(card, groups))
	case *plan.Sort:
		return e.Estimate(x.Child)
	case *plan.Limit:
		return math.Min(float64(x.N), e.Estimate(x.Child))
	default:
		if ch := n.Children(); len(ch) == 1 {
			return e.Estimate(ch[0])
		}
		return 1000
	}
}

// keyNDV estimates the distinct count of a composite key.
func (e *Estimator) keyNDV(n plan.Node, keys []expr.Expr) float64 {
	ndv := 1.0
	for _, k := range keys {
		ndv *= e.exprNDV(n, k)
	}
	return math.Min(ndv, e.Estimate(n))
}

// exprNDV estimates the distinct values an expression takes over a node.
func (e *Estimator) exprNDV(n plan.Node, x expr.Expr) float64 {
	if c, ok := x.(*expr.Col); ok {
		if table, col, ok := e.resolveBaseColumn(n, c.Name); ok {
			if cs, exists := e.Cat.Stats(table).Cols[col]; exists && cs.NDV > 0 {
				return float64(cs.NDV)
			}
		}
	}
	// Fallback: a tenth of the input.
	return math.Max(1, e.Estimate(n)/10)
}

// resolveBaseColumn finds the base table and table column a column
// reference names in a subtree: the scan its qualifier is the alias of, when
// that scan's table has the column. Names a scan did not make (a derived
// table's, an aggregate's) resolve to none.
func (e *Estimator) resolveBaseColumn(n plan.Node, name string) (string, string, bool) {
	dot := strings.LastIndexByte(name, '.')
	if dot < 0 {
		return "", "", false
	}
	alias, col := name[:dot], name[dot+1:]
	var table string
	plan.Walk(n, func(m plan.Node) {
		if sc, ok := m.(*plan.Scan); ok && table == "" && sc.Alias == alias && sc.Table.Schema.Find(col) >= 0 {
			table = sc.Table.Name
		}
	})
	return table, col, table != ""
}

// colStatsFor resolves a (possibly qualified) column reference against the
// base tables under scope and returns its column and table statistics.
func (e *Estimator) colStatsFor(scope plan.Node, name string) (*catalog.ColumnStats, *catalog.TableStats) {
	if scope == nil {
		return nil, nil
	}
	if table, col, ok := e.resolveBaseColumn(scope, name); ok {
		ts := e.Cat.Stats(table)
		if cs, exists := ts.Cols[col]; exists {
			return cs, ts
		}
	}
	return nil, nil
}

// selectivity estimates the fraction of rows a predicate keeps. The scope
// node (the predicate's input subtree) resolves column references to base-
// table statistics; nil scope disables stats-based refinement.
func (e *Estimator) selectivity(pred expr.Expr, scope plan.Node) float64 {
	if pred == nil {
		return 1
	}
	sel := 1.0
	// Range conjuncts on the same column form one interval: combining
	// their boundary fractions (upper mass − lower mass) instead of
	// multiplying them as independent predicates avoids the classic 2×
	// overestimate on date windows like `d >= a AND d < b`.
	type interval struct {
		lower, upper float64 // mass excluded below / included through
		nn           float64
	}
	ivals := map[string]*interval{}
	var cols []string
	for _, c := range expr.Conjuncts(pred) {
		key, isUpper, frac, nn, ok := e.rangeBound(c, scope)
		if !ok {
			sel *= e.atomSelectivity(c, scope)
			continue
		}
		iv := ivals[key]
		if iv == nil {
			iv = &interval{lower: 0, upper: 1, nn: nn}
			ivals[key] = iv
			cols = append(cols, key)
		}
		if isUpper {
			iv.upper = math.Min(iv.upper, frac)
		} else {
			iv.lower = math.Max(iv.lower, frac)
		}
	}
	// cols (not map order) keeps the product bit-identical across runs —
	// plan choice must be deterministic.
	for _, key := range cols {
		iv := ivals[key]
		sel *= clampSel(math.Max(0, iv.upper-iv.lower) * iv.nn)
	}
	if sel < 1e-9 {
		sel = 1e-9
	}
	return sel
}

// rangeBound decomposes a conjunct that is a histogram-estimable range
// comparison on one column into an interval boundary: upper bounds report
// the included mass below them, lower bounds the excluded mass below them.
func (e *Estimator) rangeBound(c expr.Expr, scope plan.Node) (key string, isUpper bool, frac, nn float64, ok bool) {
	x, isBin := c.(*expr.Bin)
	if !isBin {
		return "", false, 0, 0, false
	}
	switch x.Op {
	case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
	default:
		return "", false, 0, 0, false
	}
	col, v, op, okc := expr.ColConst(x)
	if !okc || v.IsNull() {
		return "", false, 0, 0, false
	}
	cs, ts := e.colStatsFor(scope, col.Name)
	if cs == nil {
		return "", false, 0, 0, false
	}
	var f float64
	var have bool
	switch op {
	case expr.OpLt:
		f, have = cs.FracLT(v)
		isUpper = true
	case expr.OpLe:
		f, have = cs.FracLE(v)
		isUpper = true
	case expr.OpGt:
		f, have = cs.FracLE(v)
	case expr.OpGe:
		f, have = cs.FracLT(v)
	}
	if !have {
		return "", false, 0, 0, false
	}
	return col.Name, isUpper, f, notNullFrac(cs, ts), true
}

// notNullFrac is the fraction of rows with a non-null value in the column.
func notNullFrac(cs *catalog.ColumnStats, ts *catalog.TableStats) float64 {
	if ts == nil || ts.RowCount <= 0 || cs == nil {
		return 1
	}
	f := 1 - float64(cs.NullCount)/float64(ts.RowCount)
	if f < 0 {
		return 0
	}
	return f
}

func (e *Estimator) atomSelectivity(c expr.Expr, scope plan.Node) float64 {
	switch x := c.(type) {
	case *expr.Bin:
		switch x.Op {
		case expr.OpEq:
			// 1/NDV when the column is known.
			if col, v, _, ok := expr.ColConst(x); ok && !v.IsNull() {
				if cs, ts := e.colStatsFor(scope, col.Name); cs != nil && cs.NDV > 0 {
					return notNullFrac(cs, ts) / float64(cs.NDV)
				}
			}
			return 0.05
		case expr.OpNe:
			return 0.9
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return e.rangeSelectivity(x, scope)
		case expr.OpOr:
			a := e.atomSelectivity(x.L, scope)
			b := e.atomSelectivity(x.R, scope)
			return math.Min(1, a+b-a*b)
		case expr.OpAnd:
			return e.atomSelectivity(x.L, scope) * e.atomSelectivity(x.R, scope)
		}
	case *expr.Between:
		if sel, ok := e.betweenSelectivity(x, scope); ok {
			return sel
		}
		if x.Negate {
			return 0.75
		}
		return 0.25
	case *expr.Like:
		return 0.1
	case *expr.InList:
		sel := math.Min(1, 0.05*float64(len(x.Vals)))
		if col, isCol := x.E.(*expr.Col); isCol {
			if cs, ts := e.colStatsFor(scope, col.Name); cs != nil && cs.NDV > 0 {
				sel = math.Min(1, notNullFrac(cs, ts)*float64(len(x.Vals))/float64(cs.NDV))
			}
		}
		if x.Negate {
			return 1 - sel
		}
		return sel
	case *expr.IsNull:
		frac := 0.05
		if col, isCol := x.E.(*expr.Col); isCol {
			if cs, ts := e.colStatsFor(scope, col.Name); cs != nil && ts != nil && ts.RowCount > 0 {
				frac = float64(cs.NullCount) / float64(ts.RowCount)
			}
		}
		if x.Negate {
			return 1 - frac
		}
		return frac
	case *expr.Not:
		return 1 - e.atomSelectivity(x.E, scope)
	}
	return 0.5
}

// rangeSelectivity estimates a single-column range comparison from the
// column's equi-depth histogram (min/max interpolation when no histogram
// exists), replacing the old magic 1/3 constant whenever statistics allow.
func (e *Estimator) rangeSelectivity(x *expr.Bin, scope plan.Node) float64 {
	const fallback = 1.0 / 3
	// const OP col  ≡  col OP' const with the comparison mirrored.
	col, v, op, ok := expr.ColConst(x)
	if !ok || v.IsNull() {
		return fallback
	}
	cs, ts := e.colStatsFor(scope, col.Name)
	if cs == nil {
		return fallback
	}
	var frac float64
	var have bool
	switch op {
	case expr.OpLt:
		frac, have = cs.FracLT(v)
	case expr.OpLe:
		frac, have = cs.FracLE(v)
	case expr.OpGt:
		if f, okf := cs.FracLE(v); okf {
			frac, have = 1-f, true
		}
	case expr.OpGe:
		if f, okf := cs.FracLT(v); okf {
			frac, have = 1-f, true
		}
	}
	if !have {
		return fallback
	}
	return clampSel(frac * notNullFrac(cs, ts))
}

// betweenSelectivity estimates col BETWEEN lo AND hi from the histogram.
func (e *Estimator) betweenSelectivity(x *expr.Between, scope plan.Node) (float64, bool) {
	col, isCol := x.E.(*expr.Col)
	if !isCol {
		return 0, false
	}
	loC, loOK := x.Lo.(*expr.Const)
	hiC, hiOK := x.Hi.(*expr.Const)
	if !loOK || !hiOK || loC.V.IsNull() || hiC.V.IsNull() {
		return 0, false
	}
	cs, ts := e.colStatsFor(scope, col.Name)
	if cs == nil {
		return 0, false
	}
	hi, ok1 := cs.FracLE(hiC.V)
	lo, ok2 := cs.FracLT(loC.V)
	if !ok1 || !ok2 {
		return 0, false
	}
	sel := clampSel((hi - lo) * notNullFrac(cs, ts))
	if x.Negate {
		return clampSel(1 - sel), true
	}
	return sel, true
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// OptimizeOpts runs phase-1 transformations: folding a scalar subquery
// over its own outer block's rows, magic-set filtering of
// aggregates joined to a selective outer block, DPsize join reordering of
// inner-join clusters using the estimator, semi/anti join pushdown below
// inner joins, and cost-based group-by pushdown. The options fit it to a
// concrete cluster: the worker count scales the network cost terms.
func OptimizeOpts(root plan.Node, cat *catalog.Catalog, o Options) (plan.Node, error) {
	est := &Estimator{Cat: cat}
	// Scalar subqueries fold first, while an outer block's input and the
	// subquery's are still the same tree: join ordering reorders only the
	// outer block's.
	root = foldScalars(root)
	// Magic sets go before projection pushdown, which narrows each copied
	// key source to its key, and before join enumeration, which orders the
	// outer block against the shrunken aggregate.
	root = magicSets(root, est)
	// Projection pushdown goes next, so that join enumeration and the
	// shuffle-vs-broadcast choice cost the rows that will actually move.
	if err := plan.PruneColumns(root); err != nil {
		return nil, err
	}
	out, err := rewriteJoins(root, est, o)
	if err != nil {
		return nil, err
	}
	// Semi/anti joins sink below the (now ordered) inner joins that would
	// only multiply the rows they test.
	out = pushSemiJoins(out, est)
	// Cost-based group-by pushdown through joins (Section V).
	out = pushGroupByThroughJoins(out, est)
	// Reordering changes intermediate column order; re-resolve every
	// bound column reference by name.
	if err := plan.Rebind(out); err != nil {
		return nil, err
	}
	return out, nil
}

// rewriteChildren replaces each child c of n with f(c): the walk of the
// bottom-up rewrites.
func rewriteChildren(n plan.Node, f func(plan.Node) plan.Node) {
	switch x := n.(type) {
	case *plan.Filter:
		x.Child = f(x.Child)
	case *plan.Project:
		x.Child = f(x.Child)
	case *plan.Agg:
		x.Child = f(x.Child)
	case *plan.Sort:
		x.Child = f(x.Child)
	case *plan.Limit:
		x.Child = f(x.Child)
	case *plan.Rename:
		x.Child = f(x.Child)
	case *plan.Join:
		x.Left = f(x.Left)
		x.Right = f(x.Right)
	}
}

// rewriteJoins reorders every maximal inner-join cluster of the tree with
// the DP enumerator; reorderCluster handles a cluster whole, leaves
// included, so the walk stops at a cluster's root.
func rewriteJoins(n plan.Node, est *Estimator, o Options) (plan.Node, error) {
	if j, ok := n.(*plan.Join); ok && j.Type == exec.JoinInner {
		return reorderCluster(j, est, o)
	}
	var err error
	rewriteChildren(n, func(c plan.Node) plan.Node {
		if err != nil {
			return c
		}
		var nc plan.Node
		if nc, err = rewriteJoins(c, est, o); err != nil {
			return c
		}
		return nc
	})
	return n, err
}

// reorderCluster flattens a maximal inner-join cluster rooted at j into
// leaves + conditions, rewrites each leaf, and reassembles the cluster
// once, in DP order (greedy above DPMaxRelations).
func reorderCluster(j *plan.Join, est *Estimator, o Options) (plan.Node, error) {
	var leaves []plan.Node
	var conds []expr.Expr
	var collect func(n plan.Node)
	collect = func(n plan.Node) {
		jn, ok := n.(*plan.Join)
		if !ok || jn.Type != exec.JoinInner {
			leaves = append(leaves, n)
			return
		}
		collect(jn.Left)
		collect(jn.Right)
		for i := range jn.EquiLeft {
			conds = append(conds, &expr.Bin{Op: expr.OpEq,
				L: expr.Clone(jn.EquiLeft[i]), R: expr.Clone(jn.EquiRight[i])})
		}
		if jn.Residual != nil {
			conds = append(conds, expr.Clone(jn.Residual))
		}
	}
	collect(j)
	for i, l := range leaves {
		nl, err := rewriteJoins(l, est, o)
		if err != nil {
			return nil, err
		}
		leaves[i] = nl
	}
	if len(leaves) <= 2 {
		return plan.AssembleJoins(leaves, conds)
	}
	conds = augmentWithEquivalences(conds)
	order := dpOrder(leaves, conds, est, o)
	if order == nil {
		order = greedyOrder(leaves, conds, est)
	}
	return plan.AssembleJoins(order, conds)
}

// augmentWithEquivalences computes attribute equivalence classes from the
// equality conditions (Section V phase 1) and adds the derived transitive
// equalities, so the greedy enumerator can join any two relations whose
// columns share a class (a=b ∧ b=c lets a⋈c directly). Redundant derived
// conditions are harmless residual filters.
func augmentWithEquivalences(conds []expr.Expr) []expr.Expr {
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	colName := func(e expr.Expr) (string, bool) {
		c, ok := e.(*expr.Col)
		if !ok || c.Name == "" {
			return "", false
		}
		return c.Name, true
	}
	type member struct {
		name string
		ref  *expr.Col
	}
	members := map[string]member{}
	for _, c := range conds {
		b, ok := c.(*expr.Bin)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		ln, lok := colName(b.L)
		rn, rok := colName(b.R)
		if !lok || !rok {
			continue
		}
		union(ln, rn)
		members[ln] = member{name: ln, ref: b.L.(*expr.Col)}
		members[rn] = member{name: rn, ref: b.R.(*expr.Col)}
	}
	// Group members per class root.
	classes := map[string][]member{}
	for _, m := range members {
		root := find(m.name)
		classes[root] = append(classes[root], m)
	}
	existing := map[string]bool{}
	for _, c := range conds {
		existing[c.String()] = true
	}
	out := append([]expr.Expr(nil), conds...)
	// Iterate classes in sorted-root order: map order would emit the
	// derived conditions in a different sequence each run, and condition
	// order must be deterministic (it decides conjunct order in assembled
	// joins and breaks exact cost ties in enumeration).
	roots := make([]string, 0, len(classes))
	for root := range classes {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		ms := classes[root]
		sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				cand := &expr.Bin{Op: expr.OpEq,
					L: &expr.Col{Index: -1, Name: ms[i].ref.Name},
					R: &expr.Col{Index: -1, Name: ms[j].ref.Name}}
				rev := &expr.Bin{Op: expr.OpEq, L: cand.R, R: cand.L}
				if existing[cand.String()] || existing[rev.String()] {
					continue
				}
				existing[cand.String()] = true
				out = append(out, cand)
			}
		}
	}
	return out
}

// connected reports whether cond links something in the used set with rel.
func connected(cond expr.Expr, used []plan.Node, rel plan.Node) bool {
	usedSchema := used[0].Schema()
	for _, u := range used[1:] {
		usedSchema = usedSchema.Concat(u.Schema())
	}
	joined := usedSchema.Concat(rel.Schema())
	ok := true
	for _, c := range expr.Columns(cond) {
		if joined.Find(c) < 0 {
			ok = false
		}
	}
	if !ok {
		return false
	}
	// Must reference both sides.
	refUsed, refRel := false, false
	for _, c := range expr.Columns(cond) {
		if rel.Schema().Find(c) >= 0 {
			refRel = true
		}
		if usedSchema.Find(c) >= 0 {
			refUsed = true
		}
	}
	return refUsed && refRel
}

// greedyOrder implements the paper's greedy join enumeration: start from
// the smallest relation, repeatedly joining the connected relation that
// minimizes the estimated intermediate cardinality.
func greedyOrder(leaves []plan.Node, conds []expr.Expr, est *Estimator) []plan.Node {
	remaining := append([]plan.Node(nil), leaves...)
	// Seed: smallest estimated leaf.
	best := 0
	for i := 1; i < len(remaining); i++ {
		if est.Estimate(remaining[i]) < est.Estimate(remaining[best]) {
			best = i
		}
	}
	order := []plan.Node{remaining[best]}
	remaining = append(remaining[:best], remaining[best+1:]...)
	currentCard := est.Estimate(order[0])

	for len(remaining) > 0 {
		bestIdx := -1
		bestCard := math.Inf(1)
		for i, rel := range remaining {
			isConnected := false
			for _, c := range conds {
				if connected(c, order, rel) {
					isConnected = true
					break
				}
			}
			relCard := est.Estimate(rel)
			var resultCard float64
			if isConnected {
				// Join through a key: |cur|*|rel|/max(|cur|,|rel|).
				resultCard = currentCard * relCard / math.Max(currentCard, relCard)
			} else {
				resultCard = currentCard * relCard * 1e6 // punish cross joins
			}
			if resultCard < bestCard {
				bestCard = resultCard
				bestIdx = i
			}
		}
		order = append(order, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		currentCard = math.Max(1, bestCard)
		if currentCard > 1e30 {
			currentCard = 1e30
		}
	}
	return order
}
