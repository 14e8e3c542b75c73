package opt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// tpchCat is the TPC-H schema, without statistics, over SF0.001's rows.
func tpchCat(t *testing.T) (*catalog.Catalog, *plan.MemProvider) {
	t.Helper()
	cat := catalog.New()
	for _, ddl := range tpch.DDL() {
		st, err := sqlparse.Parse(ddl)
		if err != nil {
			t.Fatal(err)
		}
		x := st.(*sqlparse.CreateTable)
		def := &catalog.TableDef{Name: x.Name, Schema: types.Schema{Cols: x.Cols}, Columnar: x.Columnar,
			Part: catalog.Partitioning{Kind: catalog.PartReplicated}}
		if x.PartKind == "HASH" {
			def.Part = catalog.Partitioning{Kind: catalog.PartHash, Cols: x.PartCols}
		}
		if err := cat.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	return cat, &plan.MemProvider{Cat: cat, Rows: tpch.Generate(0.001, 20260706).Tables()}
}

// roundedKey renders a row with its floats to nine significant digits: a
// fold sums the groups' sums, another order of adding the same values.
func roundedKey(r types.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
		if v.K == types.KindFloat {
			parts[i] = fmt.Sprintf("%.9g", v.F)
		}
	}
	return strings.Join(parts, "|")
}

// TestFoldScalarOverOwnBlock checks where the fold rule fires — a scalar
// subquery over its outer block's own groups — and where it must not, and
// that the optimized plan returns the plan as written's rows (or, for a
// subquery with GROUP BY, the same error).
func TestFoldScalarOverOwnBlock(t *testing.T) {
	cat, prov := tpchCat(t)
	const from = `FROM partsupp, supplier, nation
		WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY'`
	grouped := func(having string) string {
		return "SELECT ps_partkey, sum(ps_supplycost * ps_availqty) AS v, count(*) AS c, " +
			"min(ps_supplycost) AS lo, max(ps_availqty) AS hi " + from +
			" GROUP BY ps_partkey HAVING " + having + " ORDER BY ps_partkey"
	}
	for _, c := range []struct {
		name    string
		sql     string
		folds   bool
		wantErr bool
	}{
		{name: "q11", sql: tpch.Queries()["q11"], folds: true},
		{name: "q15 (a derived table)", sql: tpch.Queries()["q15"]},
		{name: "count", sql: grouped("count(*) > (SELECT count(*) " + from + ") * 0.01"), folds: true},
		{name: "count of one group", sql: "SELECT n_name, count(*) AS c " + from +
			" GROUP BY n_name HAVING count(*) = (SELECT count(*) " + from + ")", folds: true},
		{name: "min", sql: grouped("min(ps_supplycost) < (SELECT min(ps_supplycost) " + from + ") + 100"), folds: true},
		{name: "max", sql: grouped("max(ps_availqty) = (SELECT max(ps_availqty) " + from + ")"), folds: true},
		{name: "sum and count", sql: grouped("sum(ps_supplycost * ps_availqty) > " +
			"(SELECT sum(ps_supplycost * ps_availqty) / count(*) " + from + ")"), folds: true},
		{name: "where differs", sql: grouped("count(*) > (SELECT count(*) " + from + " AND ps_availqty > 100) * 0.01")},
		{name: "avg", sql: grouped("avg(ps_supplycost) > (SELECT avg(ps_supplycost) " + from + ")")},
		{name: "count distinct", sql: grouped("count(DISTINCT ps_suppkey) >= (SELECT count(DISTINCT ps_suppkey) " + from + ") * 0.01")},
		{name: "scalar grouped", sql: grouped("count(*) > (SELECT count(*) " + from + " GROUP BY ps_partkey)"), wantErr: true},
		{name: "other alias", sql: grouped(`count(*) > (SELECT count(*) FROM partsupp ps, supplier, nation
			WHERE ps.ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY') * 0.01`)},
		{name: "other table", sql: grouped(`count(*) > (SELECT count(*) FROM partsupp, supplier, region
			WHERE ps_suppkey = s_suppkey AND s_nationkey = r_regionkey AND r_name = 'GERMANY') * 0.01`)},
		{name: "aggregate not outer", sql: grouped("count(*) >= (SELECT min(ps_availqty) " + from + ") * 0")},
	} {
		t.Run(c.name, func(t *testing.T) {
			built, optimized := optimizeSQL(t, cat, c.sql)
			folds := false
			plan.Walk(optimized, func(n plan.Node) {
				if f, ok := n.(*plan.Filter); ok && f.Folds() {
					folds = true
				}
			})
			if folds != c.folds || folds && len(plan.Scalars(optimized)) > 0 {
				t.Fatalf("folds = %v, %d subqueries left to run; want folds = %v\n%s",
					folds, len(plan.Scalars(optimized)), c.folds, plan.Explain(optimized))
			}
			run := func(n plan.Node) ([]types.Row, error) {
				op, err := plan.Execute(n, prov, exec.NewCtx(t.TempDir(), 0))
				if err != nil {
					return nil, err
				}
				return exec.Collect(op)
			}
			want, werr := run(built)
			got, gerr := run(optimized)
			if c.wantErr {
				if werr == nil || gerr == nil {
					t.Fatalf("errors: as written %v, optimized %v; want both", werr, gerr)
				}
				return
			}
			if werr != nil || gerr != nil {
				t.Fatalf("errors: as written %v, optimized %v", werr, gerr)
			}
			if len(want) == 0 {
				t.Fatalf("the plan as written returns no row; the case checks nothing")
			}
			count := map[string]int{}
			for _, r := range want {
				count[roundedKey(r)]++
			}
			for _, r := range got {
				count[roundedKey(r)]--
			}
			for k, n := range count {
				if n != 0 {
					t.Fatalf("row %s: %d more as written than optimized (%d rows vs %d)\n%s", k, n, len(want), len(got), plan.Explain(optimized))
				}
			}
		})
	}
}
