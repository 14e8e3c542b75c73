package plan

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

// TestResolveColumns is the resolution table: how Build binds each column
// reference once, where SQL scoping defines it. A reference resolves in its
// own block's FROM schema first, then each enclosing block's; a qualified
// name matches the column spelled so, a bare one the column of that name
// under any qualifier; the result is the exact schema name every later
// lookup compares with ==. Each case lists the result headers (the select
// items as written, or their aliases), text the plan must show with the
// resolved names, and for some the rows; or text the error of a bad
// reference must contain.
func TestResolveColumns(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sql     string
		headers []string
		explain []string
		rows    string // rows rendered one per line, when checked
		err     string
	}{
		{name: "bare", sql: `SELECT l_orderkey FROM lineitem WHERE l_quantity > 1`,
			headers: []string{"l_orderkey"},
			explain: []string{"Project [lineitem.l_orderkey]", "[pred: (lineitem.l_quantity > 1)]"}},
		{name: "qualified and mixed case", sql: `SELECT L_ORDERKEY, L1.L_OrderKey FROM LineItem L1 WHERE l1.L_QUANTITY > 1`,
			headers: []string{"l_orderkey", "l1.l_orderkey"},
			explain: []string{"Project [l1.l_orderkey, l1.l_orderkey]", "Scan lineitem AS l1", "[pred: (l1.l_quantity > 1)]"}},
		{name: "unknown", sql: `SELECT nope FROM nation`, err: `plan: unknown column "nope"`},
		{name: "unknown qualifier", sql: `SELECT lineitem.l_orderkey FROM lineitem l`,
			err: `plan: unknown column "lineitem.l_orderkey"`},
		{name: "ambiguous", sql: `SELECT count(*) FROM nation n1, nation n2 WHERE n_nationkey = 1`,
			err: `plan: column "n_nationkey" is ambiguous (n1.n_nationkey, n2.n_nationkey)`},
		{name: "ambiguous in an item", sql: `SELECT n_name FROM nation n1, nation n2 WHERE n1.n_nationkey = n2.n_nationkey`,
			err: `plan: column "n_name" is ambiguous (n1.n_name, n2.n_name)`},
		{name: "correlated outer reference", sql: `SELECT c_name FROM customer
				WHERE EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey AND o_totalprice > c_acctbal)`,
			headers: []string{"c_name"},
			explain: []string{"SEMI Join [customer.c_custkey = orders.o_custkey AND (orders.o_totalprice > customer.c_acctbal)]"},
			rows:    "bob"},
		// The inner block's orders shadows the outer o: its o_totalprice and
		// o_custkey are the inner ones, and only o.o_custkey reaches out.
		{name: "inner reference shadows outer", sql: `SELECT o_orderkey FROM orders o
				WHERE o_totalprice > (SELECT avg(o_totalprice) FROM orders WHERE o_custkey = o.o_custkey)`,
			headers: []string{"o_orderkey"},
			explain: []string{"Aggregate [group: orders.o_custkey] [aggs: AVG(orders.o_totalprice)]",
				"INNER Join [o.o_custkey = corr$", "Filter [(o.o_totalprice > scalar$"},
			rows: "101"},
		{name: "select alias in ORDER BY", sql: `SELECT n_name AS nm FROM nation ORDER BY nm DESC`,
			headers: []string{"nm"}, explain: []string{"Sort [$0 desc]"}, rows: "FRANCE\nCANADA"},
		{name: "select alias in GROUP BY", sql: `SELECT c_nationkey AS nk, count(*) AS n FROM customer GROUP BY nk ORDER BY nk`,
			headers: []string{"nk", "n"}, explain: []string{"Aggregate [group: customer.c_nationkey]"}, rows: "1\t2\n2\t1"},
		{name: "input column before a select alias in GROUP BY", sql: `SELECT c_custkey AS c_nationkey, count(*) FROM customer GROUP BY c_nationkey`,
			err: `expr: unknown column "customer.c_custkey"`},
		{name: "qualified star", sql: `SELECT n.* FROM nation n, customer c WHERE n.n_nationkey = c.c_nationkey AND c_name = 'chloe'`,
			headers: []string{"n.n_nationkey", "n.n_name"}, rows: "2\tFRANCE"},
		{name: "derived table alias", sql: `SELECT shipping.supp_nation FROM
				(SELECT n_name AS supp_nation FROM nation) shipping WHERE supp_nation = 'CANADA'`,
			headers: []string{"shipping.supp_nation"},
			explain: []string{"Filter [(shipping.supp_nation = 'CANADA')]", "Project [nation.n_name]"}, rows: "CANADA"},
		{name: "headers as written", sql: `SELECT sum(L_Quantity), l_partkey, l.l_partkey + 1 AS next, 'Mixed' FROM lineitem l GROUP BY l_partkey`,
			headers: []string{"SUM(l_quantity)", "l_partkey", "next", "'Mixed'"},
			explain: []string{"Aggregate [group: l.l_partkey] [aggs: SUM(l.l_quantity)]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat, prov := testEnv(t)
			sel, err := sqlparse.ParseSelect(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			node, err := Build(sel, cat)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want %s", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var headers []string
			for _, c := range node.Schema().Cols {
				headers = append(headers, c.Name)
			}
			if !slices.Equal(headers, tc.headers) {
				t.Errorf("headers %q, want %q", headers, tc.headers)
			}
			out := Explain(node)
			for _, want := range tc.explain {
				if !strings.Contains(out, want) {
					t.Errorf("plan lacks %q:\n%s", want, out)
				}
			}
			// A second build of the same parsed statement (a prepared one)
			// gives the same plan and headers.
			again, err := Build(sel, cat)
			if err != nil || Explain(again) != out || !slices.Equal(again.Schema().Cols, node.Schema().Cols) {
				t.Errorf("rebuilt: err %v, plan:\n%s", err, Explain(again))
			}
			if tc.rows == "" {
				return
			}
			op, err := Execute(node, prov, exec.NewCtx(t.TempDir(), 0))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := exec.Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRows(rows); got != tc.rows {
				t.Errorf("rows:\n%s\nwant:\n%s\nplan:\n%s", got, tc.rows, out)
			}
		})
	}
}

func renderRows(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}
