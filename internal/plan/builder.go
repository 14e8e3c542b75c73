package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

// Build converts a parsed SELECT into a logical plan over the catalog,
// performing aggregate extraction and subquery decorrelation (the Kim [24]
// rewrites the paper implements: scalar-aggregate subqueries become
// grouped joins; EXISTS/IN become semi joins; NOT EXISTS/NOT IN become
// anti joins). The result is a single-node logical plan; distribution
// happens in the dataflow phases.
//
// Build binds each column reference once, where SQL scoping defines it: a
// block's references resolve against its own FROM schema first, then each
// enclosing block's (scope.resolve), and are rewritten to the exact schema
// name they denote. The parsed statement is not modified, so a prepared
// one builds the same plan every time.
func Build(sel *sqlparse.Select, cat *catalog.Catalog) (Node, error) {
	b := &builder{cat: cat}
	node, _, err := b.buildSelect(sel, nil)
	return node, err
}

// BindTable resolves and binds an expression over one table's rows — a DML
// statement's WHERE or SET, an external scan's filter — where a column
// reference is bare or qualified by the table's name. It returns a bound
// copy, each reference renamed to its qualified column and indexed into the
// table's columns; e is not modified.
func BindTable(e expr.Expr, table string, sch types.Schema) (expr.Expr, error) {
	full := sch.Qualify(table)
	out, err := scope{full}.resolve(e)
	if err != nil {
		return nil, err
	}
	return out, expr.Bind(out, full)
}

type builder struct {
	cat    *catalog.Catalog
	nextID int
}

func (b *builder) genName(prefix string) string {
	b.nextID++
	return fmt.Sprintf("%s$%d", prefix, b.nextID)
}

// scope is the chain of FROM schemas a column reference can resolve
// against, innermost block first.
type scope []types.Schema

// within returns the scope of a block nested in sc whose FROM schema is sch.
func (sc scope) within(sch types.Schema) scope {
	return append(scope{sch}, sc...)
}

// column resolves a column reference to the exact name of the column it
// denotes: in the innermost block that has one, the column spelled so, or,
// for a bare name, the column of that name under any qualifier. ok is false
// when no block has one; a name two columns of one block answer to is an
// error.
func (sc scope) column(name string) (resolved string, ok bool, err error) {
	suffix := ""
	if !strings.Contains(name, ".") {
		suffix = "." + name
	}
	for _, sch := range sc {
		var hits []string
		for _, c := range sch.Cols {
			if c.Name == name || suffix != "" && strings.HasSuffix(c.Name, suffix) {
				hits = append(hits, c.Name)
			}
		}
		switch len(hits) {
		case 0:
			continue
		case 1:
			return hits[0], true, nil
		}
		return "", false, fmt.Errorf("plan: column %q is ambiguous (%s)", name, strings.Join(hits, ", "))
	}
	return "", false, nil
}

// resolve returns a copy of e whose column references carry the exact
// names they resolve to in sc; an unknown or ambiguous name is an error.
// Subqueries inside e are resolved when their blocks are built; an IN
// subquery's left operand belongs to this block and is resolved here.
func (sc scope) resolve(e expr.Expr) (expr.Expr, error) {
	var err error
	out := rewriteExpr(e, func(x expr.Expr) (expr.Expr, bool) {
		switch c := x.(type) {
		case *expr.Col:
			name, ok, cerr := sc.column(c.Name)
			if cerr == nil && !ok {
				cerr = fmt.Errorf("plan: unknown column %q", c.Name)
			}
			if cerr != nil && err == nil {
				err = cerr
			}
			return &expr.Col{Index: -1, Name: name}, true
		case *sqlparse.InSubqueryExpr:
			left, lerr := sc.resolve(c.E)
			if lerr != nil && err == nil {
				err = lerr
			}
			return &sqlparse.InSubqueryExpr{E: left, Query: c.Query, Negate: c.Negate}, true
		}
		return nil, false
	})
	return out, err
}

// bindsTo reports whether every column of e resolves in sch.
func bindsTo(e expr.Expr, sch types.Schema) bool {
	ok := true
	for _, c := range expr.Columns(e) {
		if sch.Find(c) < 0 {
			ok = false
		}
	}
	return ok
}

// referencesAny reports whether e references at least one column of sch.
func referencesAny(e expr.Expr, sch types.Schema) bool {
	for _, c := range expr.Columns(e) {
		if sch.Find(c) >= 0 {
			return true
		}
	}
	return false
}

// hasSubquery reports whether e contains any subquery node.
func hasSubquery(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) {
		switch x.(type) {
		case *sqlparse.SubqueryExpr, *sqlparse.ExistsExpr, *sqlparse.InSubqueryExpr:
			found = true
		}
	})
	return found
}

// buildSelect builds the plan for sel. outer is the scope of the enclosing
// blocks, innermost first; conjuncts of sel's WHERE that reference the
// innermost one's columns are returned as corrConds instead of being
// applied (the caller turns them into join conditions).
func (b *builder) buildSelect(sel *sqlparse.Select, outer scope) (Node, []expr.Expr, error) {
	if len(sel.From) == 0 {
		return nil, nil, fmt.Errorf("plan: SELECT without FROM is not supported")
	}
	// 1. FROM relations.
	var rels []Node
	for _, ref := range sel.From {
		rel, err := b.buildTableRef(ref)
		if err != nil {
			return nil, nil, err
		}
		rels = append(rels, rel)
	}
	fromSchema := rels[0].Schema()
	for _, r := range rels[1:] {
		fromSchema = fromSchema.Concat(r.Schema())
	}
	sc := outer.within(fromSchema)
	where, err := sc.resolve(sel.Where)
	if err != nil {
		return nil, nil, err
	}

	// 2. Classify WHERE conjuncts. OR conjuncts first have their common
	// factors pulled out (e.g. TPC-H Q19 repeats p_partkey = l_partkey in
	// every OR branch; extracting it turns a nested-loop cross into a hash
	// join with the OR as a residual).
	var conjuncts []expr.Expr
	for _, c := range expr.Conjuncts(where) {
		conjuncts = append(conjuncts, extractCommonFactors(c)...)
	}
	var plain, subq, corr []expr.Expr
	for _, c := range conjuncts {
		switch {
		case hasSubquery(c):
			subq = append(subq, c)
		case bindsTo(c, fromSchema):
			plain = append(plain, c)
		case len(outer) > 0 && bindsTo(c, fromSchema.Concat(outer[0])):
			corr = append(corr, c)
		default:
			return nil, nil, fmt.Errorf("plan: cannot resolve columns of %s", c)
		}
	}

	// 3. Join tree from plain conjuncts, left-deep in FROM order.
	tree, err := b.joinRelations(rels, plain)
	if err != nil {
		return nil, nil, err
	}

	// 4. Apply subquery conjuncts (decorrelation).
	for _, c := range subq {
		tree, err = b.applySubqueryConjunct(tree, c, outer)
		if err != nil {
			return nil, nil, err
		}
	}

	// 5. Aggregation + projection.
	tree, err = b.buildProjection(tree, sel, sc)
	if err != nil {
		return nil, nil, err
	}
	return tree, corr, nil
}

func (b *builder) buildTableRef(ref sqlparse.TableRef) (Node, error) {
	if ref.Subquery != nil {
		sub, _, err := b.buildSelect(ref.Subquery, nil)
		if err != nil {
			return nil, err
		}
		alias := ref.Alias
		if alias == "" {
			alias = b.genName("subq")
		}
		return NewRename(sub, alias), nil
	}
	def, err := b.cat.Table(ref.Table)
	if err != nil {
		return nil, err
	}
	alias := ref.Alias
	if alias == "" {
		alias = ref.Table
	}
	return NewScan(def, alias), nil
}

// AssembleJoins builds a left-deep inner-join tree over rels in the given
// order, attaching the conjuncts as join keys, residuals, or filters. The
// optimizer uses this to reassemble a reordered join cluster.
func AssembleJoins(rels []Node, conjs []expr.Expr) (Node, error) {
	b := &builder{}
	return b.joinRelations(rels, conjs)
}

// joinRelations builds a left-deep join tree applying conjuncts as early
// as possible: single-relation conjuncts become filters, two-side
// equalities become hash join keys, the rest residuals or late filters.
func (b *builder) joinRelations(rels []Node, conjs []expr.Expr) (Node, error) {
	used := make([]bool, len(conjs))
	// Push single-relation conjuncts down to their relation.
	for i := range rels {
		var preds []expr.Expr
		for ci, c := range conjs {
			if used[ci] {
				continue
			}
			if bindsTo(c, rels[i].Schema()) && referencesAny(c, rels[i].Schema()) {
				preds = append(preds, c)
				used[ci] = true
			}
		}
		if len(preds) > 0 {
			combined := expr.AndAll(preds)
			if sc, ok := rels[i].(*Scan); ok {
				// A scan evaluates its predicate on the table row, not on
				// the columns it emits.
				if err := expr.Bind(combined, sc.full); err != nil {
					return nil, err
				}
				if sc.Pred != nil {
					combined = &expr.Bin{Op: expr.OpAnd, L: sc.Pred, R: combined}
				}
				sc.Pred = combined
			} else {
				if err := expr.Bind(combined, rels[i].Schema()); err != nil {
					return nil, err
				}
				rels[i] = &Filter{Child: rels[i], Pred: combined}
			}
		}
	}
	tree := rels[0]
	for i := 1; i < len(rels); i++ {
		right := rels[i]
		joined := tree.Schema().Concat(right.Schema())
		var equiL, equiR []expr.Expr
		var residual []expr.Expr
		for ci, c := range conjs {
			if used[ci] {
				continue
			}
			if !bindsTo(c, joined) || !referencesAny(c, right.Schema()) {
				continue
			}
			used[ci] = true
			if l, r, ok := splitEquiCond(c, tree.Schema(), right.Schema()); ok {
				equiL = append(equiL, l)
				equiR = append(equiR, r)
			} else {
				residual = append(residual, c)
			}
		}
		j := &Join{Left: tree, Right: right, Type: exec.JoinInner}
		for k := range equiL {
			if err := expr.Bind(equiL[k], tree.Schema()); err != nil {
				return nil, err
			}
			if err := expr.Bind(equiR[k], right.Schema()); err != nil {
				return nil, err
			}
		}
		j.EquiLeft, j.EquiRight = equiL, equiR
		if len(residual) > 0 {
			resid := expr.AndAll(residual)
			if err := expr.Bind(resid, joined); err != nil {
				return nil, err
			}
			j.Residual = resid
		}
		tree = j
	}
	// Leftover conjuncts (e.g. referencing 3+ relations resolved only now).
	var late []expr.Expr
	for ci, c := range conjs {
		if !used[ci] {
			late = append(late, c)
		}
	}
	if len(late) > 0 {
		pred := expr.AndAll(late)
		if err := expr.Bind(pred, tree.Schema()); err != nil {
			return nil, err
		}
		tree = &Filter{Child: tree, Pred: pred}
	}
	return tree, nil
}

// extractCommonFactors rewrites an OR conjunct `(A AND X) OR (A AND Y)`
// into the conjuncts [A, (X OR Y)]. Non-OR conjuncts pass through.
func extractCommonFactors(c expr.Expr) []expr.Expr {
	or, ok := c.(*expr.Bin)
	if !ok || or.Op != expr.OpOr {
		return []expr.Expr{c}
	}
	branches := disjuncts(or)
	if len(branches) < 2 {
		return []expr.Expr{c}
	}
	// Common = conjuncts (by text) present in every branch.
	first := expr.Conjuncts(branches[0])
	var common []expr.Expr
	for _, cand := range first {
		key := cand.String()
		inAll := true
		for _, b := range branches[1:] {
			found := false
			for _, bc := range expr.Conjuncts(b) {
				if bc.String() == key {
					found = true
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if inAll {
			common = append(common, cand)
		}
	}
	if len(common) == 0 {
		return []expr.Expr{c}
	}
	isCommon := map[string]bool{}
	for _, cc := range common {
		isCommon[cc.String()] = true
	}
	// Rebuild each branch without the common parts.
	var reduced []expr.Expr
	allCovered := true
	for _, b := range branches {
		var rest []expr.Expr
		for _, bc := range expr.Conjuncts(b) {
			if !isCommon[bc.String()] {
				rest = append(rest, bc)
			}
		}
		if len(rest) == 0 {
			// A branch that is ENTIRELY common: the OR is implied by the
			// commons; drop the residual.
			allCovered = false
			break
		}
		reduced = append(reduced, expr.AndAll(rest))
	}
	out := append([]expr.Expr{}, common...)
	if allCovered {
		residual := reduced[0]
		for _, r := range reduced[1:] {
			residual = &expr.Bin{Op: expr.OpOr, L: residual, R: r}
		}
		out = append(out, residual)
	}
	return out
}

// disjuncts flattens nested ORs.
func disjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Bin); ok && b.Op == expr.OpOr {
		return append(disjuncts(b.L), disjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

// splitEquiCond decomposes `a = b` with a over left and b over right (or
// swapped) into the per-side key expressions.
func splitEquiCond(c expr.Expr, left, right types.Schema) (expr.Expr, expr.Expr, bool) {
	bin, ok := c.(*expr.Bin)
	if !ok || bin.Op != expr.OpEq {
		return nil, nil, false
	}
	if bindsTo(bin.L, left) && bindsTo(bin.R, right) && referencesAny(bin.L, left) && referencesAny(bin.R, right) {
		return bin.L, bin.R, true
	}
	if bindsTo(bin.R, left) && bindsTo(bin.L, right) && referencesAny(bin.R, left) && referencesAny(bin.L, right) {
		return bin.R, bin.L, true
	}
	return nil, nil, false
}

// applySubqueryConjunct rewrites one WHERE conjunct containing a subquery
// into joins/filters on top of tree. The subquery's block sees tree's
// columns, then outer's.
func (b *builder) applySubqueryConjunct(tree Node, c expr.Expr, outer scope) (Node, error) {
	sc := outer.within(tree.Schema())
	switch x := c.(type) {
	case *sqlparse.ExistsExpr:
		return b.applyExists(tree, x.Query, false, sc)
	case *expr.Not:
		if ex, ok := x.E.(*sqlparse.ExistsExpr); ok {
			return b.applyExists(tree, ex.Query, true, sc)
		}
	case *sqlparse.InSubqueryExpr:
		return b.applyInSubquery(tree, x, sc)
	case *expr.Bin:
		if x.Op.IsComparison() {
			if sub, ok := x.R.(*sqlparse.SubqueryExpr); ok {
				return b.applyScalarComparison(tree, x.L, x.Op, sub.Query, false, sc)
			}
			if sub, ok := x.L.(*sqlparse.SubqueryExpr); ok {
				return b.applyScalarComparison(tree, x.R, x.Op, sub.Query, true, sc)
			}
		}
	}
	return nil, fmt.Errorf("plan: unsupported subquery placement in %s", c)
}

// applyExists rewrites [NOT] EXISTS into a semi/anti join.
func (b *builder) applyExists(tree Node, sub *sqlparse.Select, negate bool, sc scope) (Node, error) {
	subPlan, corr, err := b.buildFromWhere(sub, sc)
	if err != nil {
		return nil, err
	}
	return b.correlatedJoin(tree, subPlan, corr, nil, nil, negate)
}

// applyInSubquery rewrites expr [NOT] IN (SELECT x ...) into a semi/anti
// join with the extra key expr = x.
func (b *builder) applyInSubquery(tree Node, in *sqlparse.InSubqueryExpr, sc scope) (Node, error) {
	if len(in.Query.Items) != 1 || in.Query.Items[0].Star {
		return nil, fmt.Errorf("plan: IN subquery must select exactly one expression")
	}
	// Aggregated IN subqueries (e.g. Q18's HAVING-filtered grouping) build
	// the full subquery plan; plain ones keep the raw FROM/WHERE plan so
	// correlation conditions can reference inner columns.
	if hasAggregates(in.Query) {
		subPlan, corr, err := b.buildSelect(in.Query, sc)
		if err != nil {
			return nil, err
		}
		if len(corr) > 0 {
			return nil, fmt.Errorf("plan: correlated aggregated IN subquery not supported")
		}
		keyR := &expr.Col{Index: 0, Name: subPlan.Schema().Cols[0].Name}
		keyL := expr.Clone(in.E)
		if err := expr.Bind(keyL, tree.Schema()); err != nil {
			return nil, err
		}
		return b.correlatedJoin(tree, subPlan, nil, []expr.Expr{keyL}, []expr.Expr{keyR}, in.Negate)
	}
	subPlan, corr, err := b.buildFromWhere(in.Query, sc)
	if err != nil {
		return nil, err
	}
	keyR, err := sc.within(subPlan.Schema()).resolve(in.Query.Items[0].Expr)
	if err != nil {
		return nil, err
	}
	if err := expr.Bind(keyR, subPlan.Schema()); err != nil {
		return nil, err
	}
	keyL := expr.Clone(in.E)
	if err := expr.Bind(keyL, tree.Schema()); err != nil {
		return nil, err
	}
	return b.correlatedJoin(tree, subPlan, corr, []expr.Expr{keyL}, []expr.Expr{keyR}, in.Negate)
}

// hasAggregates reports whether the select has aggregation.
func hasAggregates(sel *sqlparse.Select) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, it := range sel.Items {
		if it.Expr != nil && len(collectAggCalls(it.Expr)) > 0 {
			return true
		}
	}
	return false
}

// buildFromWhere builds a subquery's FROM + WHERE (no projection), so
// correlation predicates can reference any inner column. Its schema is the
// subquery's FROM schema.
func (b *builder) buildFromWhere(sel *sqlparse.Select, outer scope) (Node, []expr.Expr, error) {
	inner := &sqlparse.Select{From: sel.From, Where: sel.Where, Limit: -1,
		Items: []sqlparse.SelectItem{{Star: true}}}
	return b.buildSelect(inner, outer)
}

// correlatedJoin joins tree (left) with subPlan (right) as a semi/anti
// join: correlation equalities plus explicit keys become hash keys,
// non-equality correlations become residuals.
func (b *builder) correlatedJoin(tree, subPlan Node, corr []expr.Expr, extraL, extraR []expr.Expr, negate bool) (Node, error) {
	j := &Join{Left: tree, Right: subPlan, Type: exec.JoinSemi}
	if negate {
		j.Type = exec.JoinAnti
	}
	j.EquiLeft = append(j.EquiLeft, extraL...)
	j.EquiRight = append(j.EquiRight, extraR...)
	var residual []expr.Expr
	for _, c := range corr {
		if l, r, ok := splitEquiCond(c, tree.Schema(), subPlan.Schema()); ok {
			lc, rc := expr.Clone(l), expr.Clone(r)
			if err := expr.Bind(lc, tree.Schema()); err != nil {
				return nil, err
			}
			if err := expr.Bind(rc, subPlan.Schema()); err != nil {
				return nil, err
			}
			j.EquiLeft = append(j.EquiLeft, lc)
			j.EquiRight = append(j.EquiRight, rc)
		} else {
			residual = append(residual, c)
		}
	}
	if len(residual) > 0 {
		resid := expr.AndAll(residual)
		if err := expr.Bind(resid, tree.Schema().Concat(subPlan.Schema())); err != nil {
			return nil, err
		}
		j.Residual = resid
	}
	if len(j.EquiLeft) == 0 && j.Residual == nil {
		// Uncorrelated EXISTS: keep everything iff subquery non-empty.
		// Model as a nested-loop semi/anti join with no condition.
		j.Residual = &expr.Const{V: types.NewBool(true)}
	}
	return j, nil
}

// applyScalarComparison rewrites `lhs op (SELECT agg ...)`. flipped means
// the subquery was on the left.
func (b *builder) applyScalarComparison(tree Node, lhs expr.Expr, op expr.BinOp, sub *sqlparse.Select, flipped bool, sc scope) (Node, error) {
	if len(sub.Items) != 1 || sub.Items[0].Star {
		return nil, fmt.Errorf("plan: scalar subquery must select one expression")
	}
	// Determine correlation by building the subquery FROM/WHERE.
	subFW, corr, err := b.buildFromWhere(sub, sc)
	if err != nil {
		return nil, err
	}
	if len(corr) == 0 {
		// Uncorrelated: plan the whole subquery; the executor materializes
		// it into a constant.
		subPlan, _, err := b.buildSelect(sub, nil)
		if err != nil {
			return nil, err
		}
		scalar := &ScalarSubquery{Plan: subPlan}
		lhsB := expr.Clone(lhs)
		if err := expr.Bind(lhsB, tree.Schema()); err != nil {
			return nil, err
		}
		var pred expr.Expr
		if flipped {
			pred = &expr.Bin{Op: op, L: scalar, R: lhsB}
		} else {
			pred = &expr.Bin{Op: op, L: lhsB, R: scalar}
		}
		return &Filter{Child: tree, Pred: pred}, nil
	}
	// Correlated: the Kim rewrite. Extract correlation equalities; group
	// the subquery by its side of each equality; join back.
	var outerKeys, innerKeys []expr.Expr
	for _, c := range corr {
		l, r, ok := splitEquiCond(c, tree.Schema(), subFW.Schema())
		if !ok {
			return nil, fmt.Errorf("plan: scalar subquery correlation must be equality, got %s", c)
		}
		lc, rc := expr.Clone(l), expr.Clone(r)
		if err := expr.Bind(lc, tree.Schema()); err != nil {
			return nil, err
		}
		if err := expr.Bind(rc, subFW.Schema()); err != nil {
			return nil, err
		}
		outerKeys = append(outerKeys, lc)
		innerKeys = append(innerKeys, rc)
	}
	// Aggregate the subquery grouped by the inner correlation keys.
	item, err := sc.within(subFW.Schema()).resolve(sub.Items[0].Expr)
	if err != nil {
		return nil, err
	}
	calls := collectAggCalls(item)
	if len(calls) == 0 {
		return nil, fmt.Errorf("plan: correlated scalar subquery must aggregate")
	}
	aggs, replaced, err := buildAggItems(b, item, calls, subFW.Schema(), len(innerKeys))
	if err != nil {
		return nil, err
	}
	groupNames := make([]string, len(innerKeys))
	for i := range innerKeys {
		groupNames[i] = b.genName("corr")
	}
	aggNode := NewAgg(subFW, innerKeys, aggs, groupNames)
	// Post-project: correlation keys + the (rewritten) item expression.
	outName := b.genName("scalar")
	projExprs := make([]expr.Expr, 0, len(innerKeys)+1)
	projNames := make([]string, 0, len(innerKeys)+1)
	for i, gn := range groupNames {
		projExprs = append(projExprs, &expr.Col{Index: i, Name: gn})
		projNames = append(projNames, gn)
	}
	if err := expr.Bind(replaced, aggNode.Schema()); err != nil {
		return nil, err
	}
	projExprs = append(projExprs, replaced)
	projNames = append(projNames, outName)
	subAgg := NewProject(aggNode, projExprs, projNames)

	// Join outer with the aggregated subquery on the correlation keys.
	rightKeys := make([]expr.Expr, len(groupNames))
	for i, gn := range groupNames {
		rightKeys[i] = &expr.Col{Index: i, Name: gn}
	}
	j := &Join{Left: tree, Right: subAgg, Type: exec.JoinInner,
		EquiLeft: outerKeys, EquiRight: rightKeys}
	// Filter lhs op scalar over the joined schema.
	joined := j.Schema()
	lhsB := expr.Clone(lhs)
	scalarCol := &expr.Col{Index: -1, Name: outName}
	var pred expr.Expr
	if flipped {
		pred = &expr.Bin{Op: op, L: scalarCol, R: lhsB}
	} else {
		pred = &expr.Bin{Op: op, L: lhsB, R: scalarCol}
	}
	if err := expr.Bind(pred, joined); err != nil {
		return nil, err
	}
	// Project away the subquery's columns to restore the outer schema.
	keep := make([]expr.Expr, tree.Schema().Len())
	names := make([]string, tree.Schema().Len())
	for i, c := range tree.Schema().Cols {
		keep[i] = &expr.Col{Index: i, Name: c.Name}
		names[i] = c.Name
	}
	return NewProject(&Filter{Child: j, Pred: pred}, keep, names), nil
}

// replaceScalarSubqueries converts uncorrelated SubqueryExpr nodes inside
// an expression into ScalarSubquery plan nodes. Other subquery forms in
// this position are unsupported.
func (b *builder) replaceScalarSubqueries(e expr.Expr) (expr.Expr, error) {
	var buildErr error
	out := rewriteExpr(e, func(x expr.Expr) (expr.Expr, bool) {
		switch s := x.(type) {
		case *sqlparse.SubqueryExpr:
			sub, corr, err := b.buildSelect(s.Query, nil)
			if err != nil {
				buildErr = err
				return &expr.Const{V: types.Null}, true
			}
			if len(corr) > 0 {
				buildErr = fmt.Errorf("plan: correlated subquery not supported in this position")
				return &expr.Const{V: types.Null}, true
			}
			return &ScalarSubquery{Plan: sub}, true
		case *sqlparse.ExistsExpr, *sqlparse.InSubqueryExpr:
			buildErr = fmt.Errorf("plan: EXISTS/IN subquery not supported in this position")
			return &expr.Const{V: types.Null}, true
		}
		return nil, false
	})
	return out, buildErr
}

var aggFuncNames = map[string]struct {
	kind     exec.AggKind
	distinct bool
	star     bool
}{
	"SUM":            {exec.AggSum, false, false},
	"AVG":            {exec.AggAvg, false, false},
	"MIN":            {exec.AggMin, false, false},
	"MAX":            {exec.AggMax, false, false},
	"COUNT":          {exec.AggCount, false, false},
	"COUNT_STAR":     {exec.AggCount, false, true},
	"COUNT_DISTINCT": {exec.AggCount, true, false},
	"SUM_DISTINCT":   {exec.AggSum, true, false},
	"AVG_DISTINCT":   {exec.AggAvg, true, false},
}

// collectAggCalls finds aggregate function calls in an expression.
func collectAggCalls(e expr.Expr) []*expr.Func {
	var out []*expr.Func
	expr.Walk(e, func(x expr.Expr) {
		if f, ok := x.(*expr.Func); ok {
			if _, isAgg := aggFuncNames[strings.ToUpper(f.Name)]; isAgg {
				out = append(out, f)
			}
		}
	})
	return out
}

// buildAggItems creates AggItems for the distinct agg calls inside e and
// returns e with each call replaced by a column reference (offset by
// groupCount, the number of group columns preceding the aggs).
func buildAggItems(b *builder, e expr.Expr, calls []*expr.Func, childSchema types.Schema, groupCount int) ([]AggItem, expr.Expr, error) {
	var items []AggItem
	keyToIdx := map[string]int{}
	for _, call := range calls {
		key := call.String()
		if _, dup := keyToIdx[key]; dup {
			continue
		}
		info := aggFuncNames[strings.ToUpper(call.Name)]
		item := AggItem{Kind: info.kind, Distinct: info.distinct, Name: b.genName("agg")}
		if !info.star {
			if len(call.Args) != 1 {
				return nil, nil, fmt.Errorf("plan: aggregate %s takes one argument", call.Name)
			}
			arg := expr.Clone(call.Args[0])
			if err := expr.Bind(arg, childSchema); err != nil {
				return nil, nil, err
			}
			item.Arg = arg
		}
		keyToIdx[key] = len(items)
		items = append(items, item)
	}
	replaced := rewriteExpr(e, func(x expr.Expr) (expr.Expr, bool) {
		if f, ok := x.(*expr.Func); ok {
			if idx, isAgg := keyToIdx[f.String()]; isAgg {
				return &expr.Col{Index: groupCount + idx, Name: items[idx].Name}, true
			}
		}
		return nil, false
	})
	return items, replaced, nil
}

// rewriteExpr rebuilds an expression, replacing nodes where fn returns
// (replacement, true); children of replaced nodes are not visited.
func rewriteExpr(e expr.Expr, fn func(expr.Expr) (expr.Expr, bool)) expr.Expr {
	if e == nil {
		return nil
	}
	if repl, ok := fn(e); ok {
		return repl
	}
	switch x := e.(type) {
	case *expr.Bin:
		return &expr.Bin{Op: x.Op, L: rewriteExpr(x.L, fn), R: rewriteExpr(x.R, fn)}
	case *expr.Not:
		return &expr.Not{E: rewriteExpr(x.E, fn)}
	case *expr.Neg:
		return &expr.Neg{E: rewriteExpr(x.E, fn)}
	case *expr.IsNull:
		return &expr.IsNull{E: rewriteExpr(x.E, fn), Negate: x.Negate}
	case *expr.Like:
		return &expr.Like{E: rewriteExpr(x.E, fn), Pattern: rewriteExpr(x.Pattern, fn), Negate: x.Negate}
	case *expr.Between:
		return &expr.Between{E: rewriteExpr(x.E, fn), Lo: rewriteExpr(x.Lo, fn), Hi: rewriteExpr(x.Hi, fn), Negate: x.Negate}
	case *expr.InList:
		vals := make([]expr.Expr, len(x.Vals))
		for i, v := range x.Vals {
			vals[i] = rewriteExpr(v, fn)
		}
		return &expr.InList{E: rewriteExpr(x.E, fn), Vals: vals, Negate: x.Negate}
	case *expr.Case:
		whens := make([]expr.When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = expr.When{Cond: rewriteExpr(w.Cond, fn), Then: rewriteExpr(w.Then, fn)}
		}
		return &expr.Case{Whens: whens, Else: rewriteExpr(x.Else, fn)}
	case *expr.Func:
		args := make([]expr.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewriteExpr(a, fn)
		}
		return &expr.Func{Name: x.Name, Args: args}
	default:
		return e
	}
}

// buildProjection handles aggregation, HAVING, SELECT items, DISTINCT,
// ORDER BY, and LIMIT on top of the FROM/WHERE tree. Every clause is
// resolved against the block's scope sc first.
func (b *builder) buildProjection(tree Node, sel *sqlparse.Select, sc scope) (Node, error) {
	// Expand stars and resolve the items. Each output column is named by
	// its alias, or its text as written.
	var items []expr.Expr
	var itemNames []string
	for _, it := range sel.Items {
		if !it.Star {
			e, err := sc.resolve(it.Expr)
			if err != nil {
				return nil, err
			}
			name := it.Alias
			if name == "" {
				name = it.Expr.String()
			}
			items = append(items, e)
			itemNames = append(itemNames, name)
			continue
		}
		for _, col := range tree.Schema().Cols {
			if it.Qualifier != "" && !strings.HasPrefix(col.Name, it.Qualifier+".") {
				continue
			}
			items = append(items, &expr.Col{Index: -1, Name: col.Name})
			itemNames = append(itemNames, col.Name)
		}
	}
	var having expr.Expr
	if sel.Having != nil {
		h, err := sc.resolve(sel.Having)
		if err != nil {
			return nil, err
		}
		having = h
	}

	// Collect aggregate calls across items and HAVING.
	var allCalls []*expr.Func
	for _, e := range items {
		allCalls = append(allCalls, collectAggCalls(e)...)
	}
	if having != nil {
		allCalls = append(allCalls, collectAggCalls(having)...)
	}
	aggregated := len(allCalls) > 0 || len(sel.GroupBy) > 0

	var out Node = tree
	itemExprs := slices.Clone(items)

	if aggregated {
		// Bind group-by expressions to the tree schema. A group-by name no
		// input column has may be a select alias.
		groupExprs := make([]expr.Expr, len(sel.GroupBy))
		groupNames := make([]string, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			ge, err := sc.resolve(g)
			if c, isCol := g.(*expr.Col); isCol && err != nil {
				if _, found, cerr := sc.column(c.Name); !found && cerr == nil {
					if j := slices.Index(itemNames, c.Name); j >= 0 {
						ge, err = expr.Clone(items[j]), nil
					}
				}
			}
			if err != nil {
				return nil, err
			}
			if err := expr.Bind(ge, tree.Schema()); err != nil {
				return nil, err
			}
			groupExprs[i] = ge
			groupNames[i] = b.genName("grp")
			// Prefer a stable name when the group expr is a plain column.
			if c, ok := ge.(*expr.Col); ok {
				groupNames[i] = c.Name
			}
		}
		// Build agg items over all calls, then rewrite item/having exprs.
		var aggItems []AggItem
		keyToIdx := map[string]int{}
		for _, call := range allCalls {
			key := call.String()
			if _, dup := keyToIdx[key]; dup {
				continue
			}
			info := aggFuncNames[strings.ToUpper(call.Name)]
			item := AggItem{Kind: info.kind, Distinct: info.distinct, Name: b.genName("agg")}
			if !info.star {
				if len(call.Args) != 1 {
					return nil, fmt.Errorf("plan: aggregate %s takes one argument", call.Name)
				}
				arg := expr.Clone(call.Args[0])
				if err := expr.Bind(arg, tree.Schema()); err != nil {
					return nil, err
				}
				item.Arg = arg
			}
			keyToIdx[key] = len(aggItems)
			aggItems = append(aggItems, item)
		}
		aggNode := NewAgg(tree, groupExprs, aggItems, groupNames)
		out = aggNode

		// Rewriter: agg calls → agg columns; group exprs → group columns.
		groupKey := map[string]int{}
		for i, g := range groupExprs {
			groupKey[g.String()] = i
		}
		rewrite := func(e expr.Expr) expr.Expr {
			return rewriteExpr(e, func(x expr.Expr) (expr.Expr, bool) {
				if f, ok := x.(*expr.Func); ok {
					if idx, isAgg := keyToIdx[f.String()]; isAgg {
						return &expr.Col{Index: len(groupExprs) + idx, Name: aggItems[idx].Name}, true
					}
				}
				if gi, ok := groupKey[x.String()]; ok {
					return &expr.Col{Index: gi, Name: groupNames[gi]}, true
				}
				return nil, false
			})
		}
		if having != nil {
			h := rewrite(having)
			// Uncorrelated scalar subqueries may appear in HAVING (TPC-H
			// Q11's global threshold); plan them for later materialization.
			h, err := b.replaceScalarSubqueries(h)
			if err != nil {
				return nil, err
			}
			if err := expr.Bind(h, out.Schema()); err != nil {
				return nil, err
			}
			out = &Filter{Child: out, Pred: h}
		}
		for i := range itemExprs {
			itemExprs[i] = rewrite(itemExprs[i])
		}
	}

	// Scalar subqueries inside item expressions are not supported (WHERE
	// placement is). Bind items against the (possibly aggregated) child.
	for i := range itemExprs {
		if hasSubquery(itemExprs[i]) {
			return nil, fmt.Errorf("plan: subqueries in the SELECT list are not supported")
		}
		if err := expr.Bind(itemExprs[i], out.Schema()); err != nil {
			return nil, err
		}
	}
	// ORDER BY may reference columns that are not selected; carry them as
	// hidden projection columns and trim them after sorting.
	preProject := out
	var hiddenExprs []expr.Expr
	var hiddenNames []string
	var keys []SortItem
	if len(sel.OrderBy) > 0 {
		var err error
		keys, hiddenExprs, hiddenNames, err = resolveOrderByWithHidden(
			b, sel.OrderBy, items, itemNames, preProject.Schema(), aggregated, sc)
		if err != nil {
			return nil, err
		}
		if len(hiddenExprs) > 0 && sel.Distinct {
			return nil, fmt.Errorf("plan: SELECT DISTINCT cannot ORDER BY unselected columns")
		}
	}
	allExprs := append(append([]expr.Expr{}, itemExprs...), hiddenExprs...)
	allNames := append(append([]string{}, itemNames...), hiddenNames...)
	if len(hiddenExprs) > 0 {
		// The trim above the sort binds each item by name: a name that
		// an earlier column has is made unique until then.
		for i, n := range allNames {
			if slices.Contains(allNames[:i], n) {
				allNames[i] = fmt.Sprintf("%s#%d", n, i)
			}
		}
	}
	if sel.Distinct {
		// DISTINCT is a grouping by every item, with no aggregates. The
		// keys are the items themselves, bound to the input's names: two
		// items may share an output name, and a key bound by that name
		// would read the first of them.
		out = NewAgg(out, allExprs, nil, allNames)
	} else {
		out = NewProject(out, allExprs, allNames)
	}
	if len(keys) > 0 {
		out = &Sort{Child: out, Keys: keys}
	}
	if sel.Limit >= 0 {
		out = &Limit{Child: out, N: sel.Limit, Offset: sel.Offset}
	}
	if len(hiddenExprs) > 0 {
		trim := make([]expr.Expr, len(itemExprs))
		names := make([]string, len(itemExprs))
		for i := range itemExprs {
			trim[i] = &expr.Col{Index: i, Name: out.Schema().Cols[i].Name}
			names[i] = itemNames[i]
		}
		out = NewProject(out, trim, names)
	}
	return out, nil
}

// resolveOrderByWithHidden resolves ORDER BY terms against the select list
// and, when a term is absent, appends it as a hidden projection column
// (non-aggregated queries only). A term is an output column's name (an
// alias, or an item's text as written) first; otherwise it is resolved in
// sc and matches the item that computes the same resolved expression.
func resolveOrderByWithHidden(b *builder, orders []sqlparse.OrderItem, items []expr.Expr,
	itemNames []string, childSchema types.Schema, aggregated bool, sc scope) ([]SortItem, []expr.Expr, []string, error) {
	keys := make([]SortItem, len(orders))
	var hiddenExprs []expr.Expr
	var hiddenNames []string
	for i, o := range orders {
		keys[i].Desc = o.Desc
		if o.Position > 0 {
			if o.Position > len(items) {
				return nil, nil, nil, fmt.Errorf("plan: ORDER BY position %d out of range", o.Position)
			}
			keys[i].Col = o.Position - 1
			continue
		}
		if c, ok := o.Expr.(*expr.Col); ok {
			if j := slices.Index(itemNames, c.Name); j >= 0 {
				keys[i].Col = j
				continue
			}
		}
		oe, err := sc.resolve(o.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		text := oe.String()
		if j := slices.IndexFunc(items, func(e expr.Expr) bool { return e.String() == text }); j >= 0 {
			keys[i].Col = j
			continue
		}
		// Hidden sort column: only valid when the term binds to the
		// pre-projection schema (and the query is not aggregated, where
		// unselected columns are not well-defined).
		if aggregated {
			return nil, nil, nil, fmt.Errorf("plan: ORDER BY %s is not in the select list", o.Expr)
		}
		if err := expr.Bind(oe, childSchema); err != nil {
			return nil, nil, nil, fmt.Errorf("plan: ORDER BY %s is not in the select list", o.Expr)
		}
		keys[i].Col = len(items) + len(hiddenExprs)
		hiddenExprs = append(hiddenExprs, oe)
		hiddenNames = append(hiddenNames, b.genName("sortkey"))
	}
	return keys, hiddenExprs, hiddenNames, nil
}
