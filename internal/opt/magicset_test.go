package opt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
)

// magicCat is a catalog shaped like TPC-H at SF0.01 where the magic-set
// gate decides: 2,000 parts, of which a brand keeps one in 25 and a name
// prefix one in ten; lineitem's 60,000 rows carry 2,000 part keys, 100
// supplier keys and 15,000 order keys; 100 suppliers and 15,000 orders
// cover their key domains. Its rows are few, for the tests that run a plan:
// two part keys appear twice, one part and some lineitems have a NULL part
// key, and lineitem holds part keys no part has.
func magicCat(t *testing.T) (*catalog.Catalog, *plan.MemProvider) {
	t.Helper()
	cat := catalog.New()
	ints := []types.Kind{types.KindInt, types.KindInt, types.KindInt, types.KindInt}
	addTable(t, cat, "part", []string{"p_partkey", "p_brand", "p_name"},
		[]types.Kind{types.KindInt, types.KindString, types.KindString}, 2000, 2000, 25, 2000)
	addTable(t, cat, "lineitem", []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity"}, ints, 60000, 15000, 2000, 100, 50)
	addTable(t, cat, "partsupp", []string{"ps_partkey", "ps_suppkey", "ps_availqty"}, ints, 8000, 2000, 100, 1000)
	addTable(t, cat, "supplier", []string{"s_suppkey", "s_nationkey"}, ints, 100, 100, 25)
	addTable(t, cat, "orders", []string{"o_orderkey", "o_custkey"}, ints, 15000, 15000, 1000)

	i, s := types.NewInt, types.NewString
	prov := &plan.MemProvider{Cat: cat, Rows: map[string][]types.Row{}}
	part := func(key types.Value, k int64) {
		brand, name := "b2", "navy"
		if k%3 == 0 {
			brand = "b1"
		}
		if k%2 == 0 {
			name = "cyan"
		}
		prov.Rows["part"] = append(prov.Rows["part"], types.Row{key, s(brand), s(name)})
	}
	for k := int64(0); k < 10; k++ {
		part(i(k), k)
	}
	part(i(3), 3)
	part(i(6), 6)
	part(types.Null, 0)
	for l := int64(0); l < 60; l++ {
		pk := i(l % 12)
		if l%7 == 0 {
			pk = types.Null
		}
		prov.Rows["lineitem"] = append(prov.Rows["lineitem"], types.Row{i(l % 15), pk, i(l % 4), i(1 + l%9)})
	}
	for pk := int64(0); pk < 12; pk++ {
		for sk := int64(0); sk < 4; sk++ {
			prov.Rows["partsupp"] = append(prov.Rows["partsupp"], types.Row{i(pk), i(sk), i(3*sk + pk%5)})
		}
	}
	prov.Rows["partsupp"] = append(prov.Rows["partsupp"], types.Row{types.Null, i(0), i(9)})
	for sk := int64(0); sk < 4; sk++ {
		prov.Rows["supplier"] = append(prov.Rows["supplier"], types.Row{i(sk), i(sk % 2)})
	}
	for o := int64(0); o < 15; o++ {
		prov.Rows["orders"] = append(prov.Rows["orders"], types.Row{i(o), i(o % 5)})
	}
	return cat, prov
}

// magicSourceOf returns the tables, comma-separated, that an aggregate's
// input is semi-joined to, or "" when no aggregate's input is a semi join.
func magicSourceOf(n plan.Node) string {
	var tables []string
	plan.Walk(n, func(m plan.Node) {
		a, ok := m.(*plan.Agg)
		if !ok {
			return
		}
		in := a.Child
		for p, ok := in.(*plan.Project); ok; p, ok = in.(*plan.Project) {
			in = p.Child
		}
		if j, ok := in.(*plan.Join); ok && j.Type == exec.JoinSemi {
			plan.Walk(j.Right, func(s plan.Node) {
				if s, ok := s.(*plan.Scan); ok {
					tables = append(tables, s.Table.Name)
				}
			})
		}
	})
	return strings.Join(tables, ",")
}

// TestMagicSetsMatchThePlanAsWritten: each case either filters the
// aggregate's input by the scans of source, or — source "" — leaves the plan
// exactly as built; either way plan.Execute of the optimized plan returns
// the rows of the plan as written, as a multiset.
func TestMagicSetsMatchThePlanAsWritten(t *testing.T) {
	cases := []struct {
		name, sql, source string
	}{{
		// The outer key is NULL on one part and twice the same on two
		// others; the aggregate has a NULL group.
		name: "null and duplicate keys",
		sql: `SELECT p_partkey, p_name FROM part WHERE p_brand = 'b1'
			AND 4 < (SELECT avg(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)`,
		source: "part",
	}, {
		name: "having between aggregate and join",
		sql: `SELECT p_partkey, total FROM part,
			(SELECT l_partkey AS pk, sum(l_quantity) AS total FROM lineitem GROUP BY l_partkey HAVING sum(l_quantity) > 10) AS t
			WHERE p_partkey = pk AND p_brand = 'b1'`,
		source: "part",
	}, {
		name: "semi join parent",
		sql: `SELECT p_partkey, p_name FROM part WHERE p_brand = 'b1'
			AND p_partkey IN (SELECT l_partkey FROM lineitem GROUP BY l_partkey HAVING sum(l_quantity) > 10)`,
		source: "part",
	}, {
		// l_suppkey's only source is partsupp, no smaller than its domain.
		name: "one of two group columns has a source",
		sql: `SELECT ps_partkey, ps_suppkey FROM partsupp, part
			WHERE ps_partkey = p_partkey AND p_brand = 'b1'
			AND ps_availqty > (SELECT 0.1 * sum(l_quantity) FROM lineitem WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey)`,
		source: "part",
	}, {
		name: "source reached through a semi join",
		sql: `SELECT ps_partkey, ps_suppkey FROM partsupp
			WHERE ps_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'c%')
			AND ps_availqty > (SELECT 0.1 * sum(l_quantity) FROM lineitem WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey)`,
		source: "part",
	}, {
		// No scan binds the supplier key in fewer rows than its domain;
		// partsupp joined to the few parts of one brand and name does.
		name: "source is a join",
		sql: `SELECT ps_partkey, ps_suppkey, total FROM partsupp, part,
			(SELECT l_suppkey AS sk, sum(l_quantity) AS total FROM lineitem GROUP BY l_suppkey) AS t
			WHERE ps_partkey = p_partkey AND p_brand = 'b1' AND p_name LIKE 'c%' AND ps_suppkey = sk`,
		source: "partsupp,part",
	}, {
		// The keys come through a DISTINCT, which passes them on: the
		// part scan under it is a source by itself.
		name: "source through a distinct",
		sql: `SELECT pk, total FROM (SELECT DISTINCT p_partkey AS pk FROM part, partsupp
				WHERE p_partkey = ps_partkey AND p_brand = 'b1') AS d,
			(SELECT l_partkey AS lk, sum(l_quantity) AS total FROM lineitem GROUP BY l_partkey) AS t
			WHERE pk = lk`,
		source: "part",
	}, {
		// part holds the keys partsupp must lack: using it would keep the
		// wrong groups.
		name: "equality only through an anti join",
		sql: `SELECT ps_partkey, ps_suppkey FROM partsupp
			WHERE ps_partkey NOT IN (SELECT p_partkey FROM part WHERE p_name LIKE 'c%')
			AND ps_availqty > (SELECT 0.1 * sum(l_quantity) FROM lineitem WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey)`,
	}, {
		name: "q15 shape, every supplier key",
		sql: `SELECT s_suppkey, total FROM supplier,
			(SELECT l_suppkey AS sk, sum(l_quantity) AS total FROM lineitem GROUP BY l_suppkey) AS r
			WHERE s_suppkey = sk`,
	}, {
		name: "q18 shape, every order key",
		sql: `SELECT o_orderkey FROM orders
			WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 10)`,
	}, {
		name: "anti join parent",
		sql: `SELECT p_partkey FROM part WHERE p_brand = 'b1'
			AND p_partkey NOT IN (SELECT l_partkey FROM lineitem GROUP BY l_partkey HAVING sum(l_quantity) > 10)`,
	}}
	cat, prov := magicCat(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.source == "" {
				n := buildSQL(t, cat, tc.sql)
				before := plan.Explain(n)
				if after := plan.Explain(magicSets(n, &Estimator{Cat: cat})); after != before {
					t.Fatalf("the rewrite fired:\n%s\nwas:\n%s", after, before)
				}
			}
			built, optimized := optimizeSQL(t, cat, tc.sql)
			if got := magicSourceOf(optimized); got != tc.source {
				t.Fatalf("aggregate input semi-joined to %q, want %q:\n%s", got, tc.source, plan.Explain(optimized))
			}
			want := executeRows(t, prov, built)
			if len(want) == 0 {
				t.Fatal("the plan as written returns no rows — the case tests nothing")
			}
			requireSameRows(t, want, executeRows(t, prov, optimized), optimized)
		})
	}
}

// TestMagicSetFiresOnWideSource: q20's shape, where part's statistics put
// the name prefix at 536 of the 2,000 keys the aggregate groups rather than
// 200, is still under the gate.
func TestMagicSetFiresOnWideSource(t *testing.T) {
	cat, _ := magicCat(t)
	// A LIKE keeps a tenth of its scan, so 5,360 parts estimate it at 536.
	cat.SetStats("part", &catalog.TableStats{RowCount: 5360, Cols: cat.Stats("part").Cols})
	const sql = `SELECT ps_partkey, ps_suppkey FROM partsupp
		WHERE ps_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'c%')
		AND ps_availqty > (SELECT 0.5 * sum(l_quantity) FROM lineitem WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey)`
	built := buildSQL(t, cat, sql)
	scans := 0
	plan.Walk(built, func(m plan.Node) {
		if s, ok := m.(*plan.Scan); ok && s.Table.Name == "part" {
			scans++
			if got := (&Estimator{Cat: cat}).Estimate(s); math.Abs(got-536) > 0.5 {
				t.Fatalf("part's scan estimated at %v rows, want 536", got)
			}
		}
	})
	if scans != 1 {
		t.Fatalf("found %d part scans, want 1", scans)
	}
	optimized, err := OptimizeOpts(built, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireTree(t, optimized)
	if got := magicSourceOf(optimized); got != "part" {
		t.Fatalf("aggregate input semi-joined to %q, want part:\n%s", got, plan.Explain(optimized))
	}
}
