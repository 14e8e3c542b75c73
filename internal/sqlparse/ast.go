package sqlparse

import (
	"errors"

	"repro/internal/expr"
	"repro/internal/types"
)

var errUnplannedSubquery = errors.New("sql: a subquery is not supported in this position")

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

// Select is a SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    expr.Expr
	GroupBy  []expr.Expr
	Having   expr.Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 = none
	Offset   int64
}

func (*Select) stmt() {}

// SelectItem is one projection (expression + optional alias). A nil Expr
// with Star=true is `*`; a qualified star sets Qualifier.
type SelectItem struct {
	Expr      expr.Expr
	Alias     string
	Star      bool
	Qualifier string
}

// TableRef is a FROM item: a base table, or a derived table (subquery).
type TableRef struct {
	Table    string
	Alias    string
	Subquery *Select // non-nil for derived tables
}

// OrderItem is one ORDER BY term. Either an expression or a 1-based
// output-column position.
type OrderItem struct {
	Expr     expr.Expr
	Position int // 0 = use Expr
	Desc     bool
}

// Subquery expressions embed a Select inside an expr.Expr. The planner
// rewrites these (decorrelation); the evaluator never sees them.

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Query *Select
}

// Eval fails: the planner turns subqueries into joins and scalar plans, and
// one it does not reach (an ORDER BY key, a DML expression) has no value.
func (s *SubqueryExpr) Eval(types.Row) (types.Value, error) {
	return types.Null, errUnplannedSubquery
}

// String renders the node.
func (s *SubqueryExpr) String() string { return "(<subquery>)" }

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Query  *Select
	Negate bool
}

// Eval fails, as SubqueryExpr.Eval does.
func (e *ExistsExpr) Eval(types.Row) (types.Value, error) {
	return types.Null, errUnplannedSubquery
}

// String renders the node.
func (e *ExistsExpr) String() string {
	if e.Negate {
		return "NOT EXISTS(<subquery>)"
	}
	return "EXISTS(<subquery>)"
}

// InSubqueryExpr is expr [NOT] IN (subquery).
type InSubqueryExpr struct {
	E      expr.Expr
	Query  *Select
	Negate bool
}

// Eval fails, as SubqueryExpr.Eval does.
func (e *InSubqueryExpr) Eval(types.Row) (types.Value, error) {
	return types.Null, errUnplannedSubquery
}

// String renders the node.
func (e *InSubqueryExpr) String() string {
	if e.Negate {
		return e.E.String() + " NOT IN (<subquery>)"
	}
	return e.E.String() + " IN (<subquery>)"
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Name        string
	Cols        []types.Column
	PartKind    string // "HASH", "RANGE", "REPLICATED"
	PartCols    []string
	RangeBounds []types.Value
	Columnar    bool
	ClusterCols []string
}

func (*CreateTable) stmt() {}

// DropTable is a DROP TABLE statement.
type DropTable struct {
	Name string
}

func (*DropTable) stmt() {}

// CreateIndex is a CREATE INDEX statement.
type CreateIndex struct {
	Name  string
	Table string
	Cols  []string
}

func (*CreateIndex) stmt() {}

// Insert is an INSERT ... VALUES statement.
type Insert struct {
	Table string
	Rows  [][]expr.Expr
}

func (*Insert) stmt() {}

// Update is an UPDATE statement.
type Update struct {
	Table string
	Set   map[string]expr.Expr
	Where expr.Expr
}

func (*Update) stmt() {}

// Delete is a DELETE statement.
type Delete struct {
	Table string
	Where expr.Expr
}

func (*Delete) stmt() {}

// Explain wraps a SELECT for plan display. With Analyze set (EXPLAIN
// ANALYZE) the query is executed and the per-operator trace is rendered
// instead of the logical plan.
type Explain struct {
	Query   *Select
	Analyze bool
}

func (*Explain) stmt() {}

// Analyze recomputes statistics for a table.
type Analyze struct {
	Table string
}

func (*Analyze) stmt() {}

// Reorganize compacts a table's fragments, restoring clustering order and
// invalidating skipping state.
type Reorganize struct {
	Table string
}

func (*Reorganize) stmt() {}
