package sqlparse_test

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// FuzzParseSelect: ParseSelect never panics, whatever it is given. Every
// name it yields — a table, an alias, a column reference, a star's
// qualifier — is lower-case, since a name is canonical from the lexer on;
// and every string constant is the text of one of the input's string
// literals, case kept. The corpus is seeded with the 21 TPC-H queries.
func FuzzParseSelect(f *testing.F) {
	for _, qid := range tpch.QueryIDs() {
		f.Add(tpch.Queries()[qid])
	}
	f.Add(`SELECT L1.L_OrderKey AS Key, 'MiXeD' FROM LineItem L1 WHERE L1.L_Comment LIKE '%Ab%' ORDER BY Key`)
	f.Fuzz(func(t *testing.T, sql string) {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			return
		}
		toks, err := sqlparse.Lex(sql)
		if err != nil {
			t.Fatalf("ParseSelect accepted what Lex rejects: %v", err)
		}
		literals := map[string]bool{}
		for _, tok := range toks {
			if tok.Kind == sqlparse.TokString {
				literals[tok.Text] = true
			}
		}
		checkNames(t, sel, literals)
	})
}

// checkNames walks a parsed SELECT, its subqueries included.
func checkNames(t *testing.T, sel *sqlparse.Select, literals map[string]bool) {
	name := func(what, s string) {
		if s != strings.ToLower(s) {
			t.Errorf("%s %q is not lower-case", what, s)
		}
	}
	var exprs func(e expr.Expr)
	exprs = func(e expr.Expr) {
		expr.Walk(e, func(x expr.Expr) {
			switch n := x.(type) {
			case *expr.Col:
				name("column", n.Name)
			case *expr.Const:
				if n.V.K == types.KindString && !literals[n.V.S] {
					t.Errorf("string constant %q is no string literal of the input", n.V.S)
				}
			case *sqlparse.SubqueryExpr:
				checkNames(t, n.Query, literals)
			case *sqlparse.ExistsExpr:
				checkNames(t, n.Query, literals)
			case *sqlparse.InSubqueryExpr:
				exprs(n.E)
				checkNames(t, n.Query, literals)
			}
		})
	}
	for _, it := range sel.Items {
		name("alias", it.Alias)
		name("qualifier", it.Qualifier)
		exprs(it.Expr)
	}
	for _, ref := range sel.From {
		name("table", ref.Table)
		name("alias", ref.Alias)
		if ref.Subquery != nil {
			checkNames(t, ref.Subquery, literals)
		}
	}
	exprs(sel.Where)
	for _, g := range sel.GroupBy {
		exprs(g)
	}
	exprs(sel.Having)
	for _, o := range sel.OrderBy {
		exprs(o.Expr)
	}
}
