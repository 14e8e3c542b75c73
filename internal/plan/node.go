// Package plan defines HRDBMS's logical query plans and the builder that
// turns parsed SELECT statements into plans: FROM-clause joins, aggregate
// extraction, and the Kim-style decorrelation of nested subqueries the
// paper's optimizer performs in its global optimization phase (Section V).
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

// Node is a logical plan operator.
type Node interface {
	// Schema describes the node's output rows (qualified column names).
	Schema() types.Schema
	// Children returns input plans.
	Children() []Node
	// Describe renders one line for EXPLAIN output.
	Describe() string
}

// Scan reads one base table. Pred (bound to the table schema) is pushed
// into the storage scan where its atoms feed predicate-based skipping.
//
// Cols lists, ascending, the table-column offsets the scan emits; nil emits
// every column. Schema() is exactly those columns, so every schema derived
// from it (Join, Filter, Sort, ...) narrows with it. Pred is evaluated
// inside the scan against the whole table row, so the scan reads
// Cols ∪ columns(Pred) and emits Cols. PruneColumns sets Cols.
type Scan struct {
	Table *catalog.TableDef
	Alias string
	Pred  expr.Expr
	Cols  []int
	full  types.Schema // the table schema qualified by Alias
}

// NewScan builds a scan node.
func NewScan(def *catalog.TableDef, alias string) *Scan {
	if alias == "" {
		alias = def.Name
	}
	return &Scan{Table: def, Alias: alias, full: def.Schema.Qualify(alias)}
}

// Schema implements Node: the emitted columns.
func (s *Scan) Schema() types.Schema {
	if s.Cols == nil {
		return s.full
	}
	return s.full.Project(s.Cols)
}

// TableSchema is the whole table's schema qualified by the scan's alias —
// what Pred is bound to, whatever Cols says.
func (s *Scan) TableSchema() types.Schema { return s.full }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string {
	out := fmt.Sprintf("Scan %s", s.Table.Name)
	if s.Alias != s.Table.Name {
		out += " AS " + s.Alias
	}
	if s.Cols != nil {
		names := make([]string, len(s.Cols))
		for i, c := range s.Cols {
			names[i] = s.Table.Schema.Cols[c].Name
		}
		out += fmt.Sprintf(" [cols: %s]", strings.Join(names, ", "))
	}
	if s.Pred != nil {
		out += fmt.Sprintf(" [pred: %s]", s.Pred)
	}
	return out
}

// Filter keeps rows matching Pred.
type Filter struct {
	Child Node
	Pred  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() types.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Describe implements Node.
func (f *Filter) Describe() string { return fmt.Sprintf("Filter [%s]", f.Pred) }

// Project computes output expressions.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Names []string
	sch   types.Schema
}

// NewProject builds a projection, inferring output kinds.
func NewProject(child Node, exprs []expr.Expr, names []string) *Project {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = types.Column{Name: names[i], Kind: expr.KindOf(e, child.Schema())}
	}
	return &Project{Child: child, Exprs: exprs, Names: names, sch: types.Schema{Cols: cols}}
}

// Schema implements Node.
func (p *Project) Schema() types.Schema { return p.sch }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project [" + strings.Join(parts, ", ") + "]"
}

// Join combines two inputs. EquiLeft/EquiRight are the equality key
// expressions (empty → nested loop over Residual only). Residual holds
// remaining conditions over the concatenated schema.
type Join struct {
	Left, Right Node
	Type        exec.JoinType
	EquiLeft    []expr.Expr // bound to Left schema
	EquiRight   []expr.Expr // bound to Right schema
	Residual    expr.Expr   // bound to Left ++ Right schema
}

// Schema implements Node.
func (j *Join) Schema() types.Schema {
	if j.Type == exec.JoinInner {
		return j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.Left.Schema()
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Describe implements Node.
func (j *Join) Describe() string {
	var conds []string
	for i := range j.EquiLeft {
		conds = append(conds, fmt.Sprintf("%s = %s", j.EquiLeft[i], j.EquiRight[i]))
	}
	if j.Residual != nil {
		conds = append(conds, j.Residual.String())
	}
	return fmt.Sprintf("%s Join [%s]", j.Type, strings.Join(conds, " AND "))
}

// AggItem is one aggregate output.
type AggItem struct {
	Kind     exec.AggKind
	Arg      expr.Expr // bound to child schema; nil for COUNT(*)
	Distinct bool
	Name     string
}

// Agg groups by the GroupBy expressions and computes aggregates. Output
// schema: group columns then aggregate columns.
type Agg struct {
	Child   Node
	GroupBy []expr.Expr
	Aggs    []AggItem
	sch     types.Schema
}

// NewAgg builds an aggregate node.
func NewAgg(child Node, groupBy []expr.Expr, aggs []AggItem, groupNames []string) *Agg {
	var cols []types.Column
	for i, g := range groupBy {
		name := ""
		if i < len(groupNames) {
			name = groupNames[i]
		}
		if name == "" {
			name = g.String()
		}
		cols = append(cols, types.Column{Name: name, Kind: expr.KindOf(g, child.Schema())})
	}
	for _, a := range aggs {
		kind := types.KindFloat
		switch a.Kind {
		case exec.AggCount:
			kind = types.KindInt
		case exec.AggSum:
			if a.Arg != nil && expr.KindOf(a.Arg, child.Schema()) == types.KindInt {
				kind = types.KindInt
			}
		case exec.AggMin, exec.AggMax:
			if a.Arg != nil {
				kind = expr.KindOf(a.Arg, child.Schema())
			}
		}
		cols = append(cols, types.Column{Name: a.Name, Kind: kind})
	}
	return &Agg{Child: child, GroupBy: groupBy, Aggs: aggs, sch: types.Schema{Cols: cols}}
}

// Schema implements Node.
func (a *Agg) Schema() types.Schema { return a.sch }

// Children implements Node.
func (a *Agg) Children() []Node { return []Node{a.Child} }

// Describe implements Node.
func (a *Agg) Describe() string {
	var gb []string
	for _, g := range a.GroupBy {
		gb = append(gb, g.String())
	}
	var ag []string
	for _, x := range a.Aggs {
		arg := "*"
		if x.Arg != nil {
			arg = x.Arg.String()
		}
		ag = append(ag, fmt.Sprintf("%s(%s)", x.Kind, arg))
	}
	return fmt.Sprintf("Aggregate [group: %s] [aggs: %s]", strings.Join(gb, ", "), strings.Join(ag, ", "))
}

// SortItem is one ORDER BY key resolved to an output column offset.
type SortItem struct {
	Col  int
	Desc bool
}

// Sort orders the child output.
type Sort struct {
	Child Node
	Keys  []SortItem
}

// Schema implements Node.
func (s *Sort) Schema() types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("$%d %s", k.Col, dir)
	}
	return "Sort [" + strings.Join(parts, ", ") + "]"
}

// Limit truncates output; a Limit directly above a Sort is executed as the
// paper's heap-based top-k.
type Limit struct {
	Child  Node
	N      int64
	Offset int64
}

// Schema implements Node.
func (l *Limit) Schema() types.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d offset %d", l.N, l.Offset) }

// Rename gives a derived table's output new qualified column names.
type Rename struct {
	Child Node
	sch   types.Schema
}

// NewRename re-qualifies a subquery's schema under its FROM alias.
func NewRename(child Node, alias string) *Rename {
	return &Rename{Child: child, sch: child.Schema().Qualify(alias)}
}

// Schema implements Node.
func (r *Rename) Schema() types.Schema { return r.sch }

// Children implements Node.
func (r *Rename) Children() []Node { return []Node{r.Child} }

// Describe implements Node.
func (r *Rename) Describe() string { return "Rename " + r.sch.String() }

// ScalarSubquery wraps an uncorrelated scalar subquery inside an
// expression; the executor materializes the subplan to a single value
// before the outer plan runs (the paper notes Greenplum additionally caches
// these — see Q22 discussion). Where the optimizer found the subquery's
// value in the rows of the Filter whose predicate holds it, Fold replaces
// Plan, and that Filter computes it (exec.Fold).
type ScalarSubquery struct {
	Plan Node
	Fold *Fold
	// Resolved is set by the executor after materialization.
	Resolved *types.Value
}

// Fold is a scalar subquery's value computed from the rows of the Filter
// that holds it: Aggs over those rows (their arguments bound to the
// Filter's input, as the rest of its predicate is), then Expr over the row
// of their values. An aggregate's name is how Expr and EXPLAIN show it.
type Fold struct {
	Aggs []AggItem
	Expr expr.Expr
}

// Eval returns the materialized value.
func (s *ScalarSubquery) Eval(types.Row) (types.Value, error) {
	if s.Resolved == nil {
		return types.Null, fmt.Errorf("plan: scalar subquery not materialized")
	}
	return *s.Resolved, nil
}

// String renders the placeholder, or the fold.
func (s *ScalarSubquery) String() string {
	if s.Fold != nil {
		return s.Fold.Expr.String()
	}
	return "(scalar subquery)"
}

// Operands implements expr.Parent: a fold's arguments read the row the
// predicate does, so every walker sees (and Rebind rebinds) them.
func (s *ScalarSubquery) Operands() []expr.Expr {
	if s.Fold == nil {
		return nil
	}
	var out []expr.Expr
	for _, a := range s.Fold.Aggs {
		if a.Arg != nil {
			out = append(out, a.Arg)
		}
	}
	return out
}

// FoldAggs implements exec.Fold; a subquery its plan computes has none.
func (s *ScalarSubquery) FoldAggs() []exec.AggSpec {
	if s.Fold == nil {
		return nil
	}
	return AggSpecs(s.Fold.Aggs)
}

// FoldResolve implements exec.Fold: the value is Expr over the aggregates'.
func (s *ScalarSubquery) FoldResolve(aggs types.Row) error {
	v, err := s.Fold.Expr.Eval(aggs)
	if err != nil {
		return err
	}
	return s.Resolve([]types.Row{{v}})
}

// Resolve freezes the subquery's value from the rows its plan returned: no
// row is NULL, one row is its first column, more is an error.
func (s *ScalarSubquery) Resolve(rows []types.Row) error {
	v := types.Null
	switch {
	case len(rows) == 0:
	case len(rows) == 1 && len(rows[0]) >= 1:
		v = rows[0][0]
	default:
		return fmt.Errorf("plan: scalar subquery returned %d rows", len(rows))
	}
	s.Resolved = &v
	return nil
}

// ScalarsOf returns the scalar subqueries in node n's own expressions that
// a plan computes and nothing has resolved yet, in order.
func ScalarsOf(n Node) []*ScalarSubquery {
	var es []expr.Expr
	switch x := n.(type) {
	case *Filter:
		es = []expr.Expr{x.Pred}
	case *Scan:
		es = []expr.Expr{x.Pred}
	case *Project:
		es = x.Exprs
	case *Join:
		es = []expr.Expr{x.Residual}
	}
	var out []*ScalarSubquery
	for _, e := range es {
		expr.Walk(e, func(x expr.Expr) {
			if s, ok := x.(*ScalarSubquery); ok && s.Plan != nil && s.Resolved == nil {
				out = append(out, s)
			}
		})
	}
	return out
}

// Scalars returns ScalarsOf every node of the tree, in preorder: the
// subqueries an executor runs before the plan.
func Scalars(root Node) []*ScalarSubquery {
	var out []*ScalarSubquery
	Walk(root, func(n Node) { out = append(out, ScalarsOf(n)...) })
	return out
}

// Folds reports whether the filter's predicate holds a fold, so that it
// reads all of its input before it emits a row.
func (f *Filter) Folds() bool {
	found := false
	expr.Walk(f.Pred, func(x expr.Expr) {
		if s, ok := x.(*ScalarSubquery); ok && s.Fold != nil {
			found = true
		}
	})
	return found
}

// Explain renders a plan tree as indented text.
func Explain(n Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Describe())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// Walk visits the plan tree preorder.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// Rebind re-resolves every expression's column indices by name against the
// current child schemas. Required after transformations (join reordering)
// that change the column order of intermediate schemas.
func Rebind(n Node) error {
	for _, c := range n.Children() {
		if err := Rebind(c); err != nil {
			return err
		}
	}
	switch x := n.(type) {
	case *Scan:
		if x.Pred != nil {
			return expr.Bind(x.Pred, x.full)
		}
	case *Filter:
		return expr.Bind(x.Pred, x.Child.Schema())
	case *Project:
		for _, e := range x.Exprs {
			if err := expr.Bind(e, x.Child.Schema()); err != nil {
				return err
			}
		}
	case *Join:
		for i := range x.EquiLeft {
			if err := expr.Bind(x.EquiLeft[i], x.Left.Schema()); err != nil {
				return err
			}
			if err := expr.Bind(x.EquiRight[i], x.Right.Schema()); err != nil {
				return err
			}
		}
		if x.Residual != nil {
			return expr.Bind(x.Residual, x.Left.Schema().Concat(x.Right.Schema()))
		}
	case *Agg:
		for _, g := range x.GroupBy {
			if err := expr.Bind(g, x.Child.Schema()); err != nil {
				return err
			}
		}
		for _, a := range x.Aggs {
			if a.Arg != nil {
				if err := expr.Bind(a.Arg, x.Child.Schema()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
