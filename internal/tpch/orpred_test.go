package tpch

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// orAtoms are the atoms a random OR predicate draws from, by the relation
// they constrain alone (the rule derives filters from these) or "" for the
// atoms that join two relations (it never moves those). An atom with a
// `%[i]` verb is a format over orArgs' random operands.
var orAtoms = map[string]map[string][]string{
	"lineitem, part": {
		"lineitem": {
			"l_quantity >= %[1]d",
			"l_quantity < %[1]d",
			"l_quantity BETWEEN %[7]d AND %[8]d",
			"l_quantity IN (%[1]d, %[7]d, %[8]d)",
			"l_quantity > %[7]d AND l_quantity <= %[8]d",
			"l_shipmode = '%[6]s'",
			"l_shipmode IN ('AIR', '%[6]s', NULL)",
			"l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1995-0%[2]d-28'",
			"l_shipdate < DATE '1994-0%[2]d-15'",
			"l_discount > 0.0%[2]d",
		},
		"part": {
			"p_size = %[1]d",
			"p_size BETWEEN %[7]d AND %[8]d",
			"%[1]d <= p_size",
			"p_brand = 'Brand#%[2]d%[3]d'",
			"p_container IN ('SM CASE', 'MED BOX', '%[4]s')",
			"p_type LIKE 'SMALL%'",
			"p_retailprice > 9%[2]d0.5",
		},
		"": {
			"l_quantity < p_size",
			"l_quantity + p_size > %[8]d",
		},
	},
	"nation n1, nation n2, supplier": {
		"n1": {
			"n1.n_name IN ('FRANCE', '%[5]s')",
			"n1.n_nationkey = %[9]d",
			"n1.n_nationkey IN (%[9]d, %[2]d)",
			"n1.n_nationkey BETWEEN %[9]d AND %[10]d",
			"n1.n_nationkey >= %[9]d",
			"%[9]d > n1.n_nationkey",
		},
		"n2": {
			"n2.n_name = '%[5]s'",
			"n2.n_name IN ('GERMANY', '%[5]s', NULL)",
			"n2.n_regionkey > %[3]d",
			"n2.n_nationkey <= %[9]d",
			"n2.n_nationkey IN (%[9]d, %[2]d)",
		},
		"supplier": {
			"s_acctbal > %[1]d * 10 - 100",
			"s_suppkey BETWEEN %[7]d AND %[8]d",
			"s_nationkey IN (%[2]d, %[3]d, %[9]d)",
		},
		"": {
			"n1.n_regionkey = n2.n_regionkey",
			"s_nationkey = n2.n_nationkey",
			"n2.n_nationkey < n1.n_nationkey",
		},
	},
}

// orArgs draws the operands orAtoms' formats refer to by index: a quantity
// or size, two small ints, a container, a nation, a ship mode, a range
// lo..hi, and a nation key with a second one at or above it.
func orArgs(rng *rand.Rand) []any {
	lo, key := 1+rng.Intn(30), rng.Intn(25)
	return []any{1 + rng.Intn(50), 1 + rng.Intn(5), 1 + rng.Intn(5),
		containers[rng.Intn(len(containers))], nations[rng.Intn(len(nations))].name,
		shipModes[rng.Intn(len(shipModes))], lo, lo + 1 + rng.Intn(15), key, key + rng.Intn(8)}
}

// orQueries are the two query shapes, each with the join it keeps outside
// the OR and the columns it returns.
var orQueries = []struct{ from, join, cols string }{
	{"lineitem, part", "p_partkey = l_partkey", "l_orderkey, l_linenumber, p_partkey"},
	{"nation n1, nation n2, supplier", "s_nationkey = n1.n_nationkey", "n1.n_name, n2.n_name, s_suppkey"},
}

// orFoldColumns name, per relation, the one column some draws constrain
// that relation by, so that its derived filter folds to one IN list or
// range; the atoms on it are those of orAtoms that name it.
var orFoldColumns = map[string]string{
	"lineitem": "l_quantity", "part": "p_size",
	"n1": "n1.n_nationkey", "n2": "n2.n_name", "supplier": "s_suppkey",
}

// randOrPredicate draws an OR of 2–4 disjuncts of 1–3 atoms. Three draws in
// four open every disjunct with an atom on one relation, so that relation
// gets a derived filter; half of those constrain it by its fold column
// alone.
func randOrPredicate(rng *rand.Rand, from string) string {
	atoms := orAtoms[from]
	var rels []string
	for rel := range atoms {
		rels = append(rels, rel)
	}
	sort.Strings(rels) // "" first, never a focus
	focus, only := "", ""
	if n := rng.Intn(8); n >= 2 {
		focus = rels[1+rng.Intn(len(rels)-1)]
		if n >= 5 {
			only = orFoldColumns[focus]
		}
	}
	atom := func(rel string) string {
		var fs []string
		for _, f := range atoms[rel] {
			if rel != focus || strings.Contains(f, only) {
				fs = append(fs, f)
			}
		}
		f := fs[rng.Intn(len(fs))]
		if !strings.Contains(f, "%[") {
			return f
		}
		return fmt.Sprintf(f, orArgs(rng)...)
	}
	var disjuncts []string
	for n := 2 + rng.Intn(3); n > 0; n-- {
		var conj []string
		if focus != "" {
			conj = append(conj, atom(focus))
		}
		for m := 1 + rng.Intn(3) - len(conj); m > 0; m-- {
			rel := rels[rng.Intn(len(rels))]
			if rel == focus && only != "" && rng.Intn(2) == 0 {
				rel = ""
			}
			conj = append(conj, atom(rel))
		}
		disjuncts = append(disjuncts, "("+strings.Join(conj, " AND ")+")")
	}
	return strings.Join(disjuncts, " OR ")
}

// TestOrPredicatesMatchTheirOpaqueForm is the oracle of the implied
// single-table filters plan.Build derives from an OR across relations. The
// parity reference is built by plan.Build too, so it carries the same
// filters and could not catch a wrong one; here each random OR predicate's
// query is checked instead against the same query with the OR written as
// CASE WHEN <or> THEN 1 ELSE 0 END = 1, which no rule looks inside, on 1
// and on 4 workers. Results must agree as multisets.
func TestOrPredicatesMatchTheirOpaqueForm(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H differential suite skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20261017))
	type pair struct{ name, or, opaque string }
	var pairs []pair
	for i := 0; i < 40; i++ {
		q := orQueries[i%len(orQueries)]
		pred := randOrPredicate(rng, q.from)
		head := fmt.Sprintf("SELECT %s FROM %s WHERE %s AND ", q.cols, q.from, q.join)
		pairs = append(pairs, pair{
			name:   fmt.Sprintf("case %d over %s", i, q.from),
			or:     head + "(" + pred + ")",
			opaque: head + "CASE WHEN " + pred + " THEN 1 ELSE 0 END = 1",
		})
	}
	derived, nonEmpty := 0, 0
	for _, workers := range []int{1, 4} {
		c, _ := loadedCluster(t, workers, 0.002)
		for _, p := range pairs {
			if workers == 1 {
				// The rule must fire often enough for the oracle to mean
				// something: count the draws whose plan gained a scan
				// predicate.
				preds := make([]int, 2)
				for i, sql := range []string{p.or, p.opaque} {
					sel, err := sqlparse.ParseSelect(sql)
					if err != nil {
						t.Fatalf("%s: %v\n%s", p.name, err, sql)
					}
					node, err := plan.Build(sel, c.Catalog())
					if err != nil {
						t.Fatalf("%s: %v\n%s", p.name, err, sql)
					}
					preds[i] = strings.Count(plan.Explain(node), "[pred:")
				}
				if preds[0] > preds[1] {
					derived++
				}
			}
			got, err := c.ExecSQL(p.or)
			if err != nil {
				t.Fatalf("%s: %v\n%s", p.name, err, p.or)
			}
			want, err := c.ExecSQL(p.opaque)
			if err != nil {
				t.Fatalf("%s: %v\n%s", p.name, err, p.opaque)
			}
			requireSameRows(t, fmt.Sprintf("%s, %d workers\n%s\n", p.name, workers, p.or), got.Rows, want.Rows)
			if len(want.Rows) > 0 {
				nonEmpty++
			}
		}
	}
	t.Logf("%d of %d predicates gained a derived filter; %d of %d runs returned rows", derived, len(pairs), nonEmpty, 2*len(pairs))
	if derived < len(pairs)/2 || nonEmpty < len(pairs) {
		t.Fatalf("the draw exercised too little: %d derived filters, %d non-empty runs", derived, nonEmpty)
	}
}
