package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

func parseSel(t *testing.T, sql string) *Select {
	t.Helper()
	sel, err := ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s' FROM t -- comment\nWHERE x >= 1.5;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[0] != "SELECT" || kinds[0] != TokKeyword {
		t.Errorf("tok0 = %v %q", kinds[0], texts[0])
	}
	if texts[3] != "it's" || kinds[3] != TokString {
		t.Errorf("string tok = %q", texts[3])
	}
	found := false
	for _, tx := range texts {
		if tx == ">=" {
			found = true
		}
	}
	if !found {
		t.Error(">= not lexed as one token")
	}
	if _, err := Lex("select @"); err == nil {
		t.Error("bad char should fail")
	}
	if _, err := Lex("select 'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	sel := parseSel(t, "SELECT a, b AS bee FROM t WHERE a > 5 ORDER BY b DESC LIMIT 10 OFFSET 2")
	if len(sel.Items) != 2 || sel.Items[1].Alias != "bee" {
		t.Errorf("items = %+v", sel.Items)
	}
	if len(sel.From) != 1 || sel.From[0].Table != "t" {
		t.Errorf("from = %+v", sel.From)
	}
	if sel.Where == nil || sel.Limit != 10 || sel.Offset != 2 {
		t.Errorf("where/limit/offset = %v %d %d", sel.Where, sel.Limit, sel.Offset)
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
}

func TestParseStar(t *testing.T) {
	sel := parseSel(t, "SELECT * FROM t")
	if !sel.Items[0].Star {
		t.Error("star not parsed")
	}
	sel = parseSel(t, "SELECT t.* FROM t")
	if !sel.Items[0].Star || sel.Items[0].Qualifier != "t" {
		t.Errorf("qualified star = %+v", sel.Items[0])
	}
}

func TestParseJoinsAndAliases(t *testing.T) {
	sel := parseSel(t, "SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey")
	if len(sel.From) != 2 || sel.From[0].Alias != "c" || sel.From[1].Alias != "o" {
		t.Errorf("from = %+v", sel.From)
	}
	b, ok := sel.Where.(*expr.Bin)
	if !ok || b.Op != expr.OpEq {
		t.Fatalf("where = %v", sel.Where)
	}
	if b.L.(*expr.Col).Name != "c.c_custkey" {
		t.Errorf("qualified col = %v", b.L)
	}
}

func TestParseGroupByHaving(t *testing.T) {
	sel := parseSel(t, `SELECT l_returnflag, sum(l_quantity) AS sum_qty, count(*) AS cnt
		FROM lineitem GROUP BY l_returnflag HAVING sum(l_quantity) > 100`)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("groupby/having = %v %v", sel.GroupBy, sel.Having)
	}
	f, ok := sel.Items[1].Expr.(*expr.Func)
	if !ok || f.Name != "SUM" {
		t.Errorf("agg func = %v", sel.Items[1].Expr)
	}
	star, ok := sel.Items[2].Expr.(*expr.Func)
	if !ok || star.Name != "COUNT_STAR" {
		t.Errorf("count(*) = %v", sel.Items[2].Expr)
	}
}

func TestParseCountDistinct(t *testing.T) {
	sel := parseSel(t, "SELECT count(DISTINCT x) FROM t")
	f := sel.Items[0].Expr.(*expr.Func)
	if f.Name != "COUNT_DISTINCT" || len(f.Args) != 1 {
		t.Errorf("count distinct = %v", f)
	}
}

func TestParseDateInterval(t *testing.T) {
	sel := parseSel(t, "SELECT 1 FROM t WHERE d < DATE '1995-01-01' + INTERVAL '3' MONTH")
	b := sel.Where.(*expr.Bin)
	c, ok := b.R.(*expr.Const)
	if !ok || c.V.String() != "1995-04-01" {
		t.Fatalf("folded date = %v", b.R)
	}
	// Year and day intervals.
	sel = parseSel(t, "SELECT 1 FROM t WHERE d >= DATE '1994-02-28' + INTERVAL '1' YEAR")
	if sel.Where.(*expr.Bin).R.(*expr.Const).V.String() != "1995-02-28" {
		t.Error("year interval fold wrong")
	}
	sel = parseSel(t, "SELECT 1 FROM t WHERE d >= DATE '1994-12-30' + INTERVAL '5' DAY")
	if sel.Where.(*expr.Bin).R.(*expr.Const).V.String() != "1995-01-04" {
		t.Error("day interval fold wrong")
	}
	// Non-literal date with DAY interval converts to +days.
	sel = parseSel(t, "SELECT 1 FROM t WHERE l_receiptdate > l_shipdate + INTERVAL '30' DAY")
	rb := sel.Where.(*expr.Bin).R.(*expr.Bin)
	if rb.Op != expr.OpAdd || rb.R.(*expr.Const).V.Int() != 30 {
		t.Errorf("day arith = %v", rb)
	}
	// MONTH on a non-literal should fail.
	if _, err := ParseSelect("SELECT 1 FROM t WHERE x > y + INTERVAL '1' MONTH"); err == nil {
		t.Error("month interval on column should fail")
	}
}

func TestParsePredicates(t *testing.T) {
	sel := parseSel(t, `SELECT 1 FROM t WHERE a BETWEEN 1 AND 5 AND b NOT LIKE '%x%'
		AND c IN ('A', 'B') AND d IS NOT NULL AND NOT (e = 1 OR f = 2)`)
	conjs := expr.Conjuncts(sel.Where)
	if len(conjs) != 5 {
		t.Fatalf("conjuncts = %d", len(conjs))
	}
	if _, ok := conjs[0].(*expr.Between); !ok {
		t.Errorf("conj0 = %T", conjs[0])
	}
	if l, ok := conjs[1].(*expr.Like); !ok || !l.Negate {
		t.Errorf("conj1 = %v", conjs[1])
	}
	if in, ok := conjs[2].(*expr.InList); !ok || len(in.Vals) != 2 {
		t.Errorf("conj2 = %v", conjs[2])
	}
	if n, ok := conjs[3].(*expr.IsNull); !ok || !n.Negate {
		t.Errorf("conj3 = %v", conjs[3])
	}
	if _, ok := conjs[4].(*expr.Not); !ok {
		t.Errorf("conj4 = %T", conjs[4])
	}
}

func TestParseCase(t *testing.T) {
	sel := parseSel(t, `SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END FROM t`)
	c, ok := sel.Items[0].Expr.(*expr.Case)
	if !ok || len(c.Whens) != 2 || c.Else == nil {
		t.Fatalf("case = %v", sel.Items[0].Expr)
	}
}

func TestParseSubqueries(t *testing.T) {
	// Scalar subquery.
	sel := parseSel(t, "SELECT 1 FROM t WHERE a > (SELECT avg(x) FROM u)")
	b := sel.Where.(*expr.Bin)
	if _, ok := b.R.(*SubqueryExpr); !ok {
		t.Fatalf("scalar sub = %T", b.R)
	}
	// EXISTS and NOT EXISTS.
	sel = parseSel(t, "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)")
	if _, ok := sel.Where.(*ExistsExpr); !ok {
		t.Fatalf("exists = %T", sel.Where)
	}
	sel = parseSel(t, "SELECT 1 FROM t WHERE NOT EXISTS (SELECT 1 FROM u)")
	n, ok := sel.Where.(*expr.Not)
	if !ok {
		t.Fatalf("not exists = %T", sel.Where)
	}
	if _, ok := n.E.(*ExistsExpr); !ok {
		t.Fatalf("not exists inner = %T", n.E)
	}
	// IN subquery.
	sel = parseSel(t, "SELECT 1 FROM t WHERE a IN (SELECT x FROM u)")
	if _, ok := sel.Where.(*InSubqueryExpr); !ok {
		t.Fatalf("in sub = %T", sel.Where)
	}
	sel = parseSel(t, "SELECT 1 FROM t WHERE a NOT IN (SELECT x FROM u)")
	ins := sel.Where.(*InSubqueryExpr)
	if !ins.Negate {
		t.Error("NOT IN negate lost")
	}
	// Derived table.
	sel = parseSel(t, "SELECT s FROM (SELECT sum(x) AS s FROM u GROUP BY g) AS d WHERE s > 5")
	if sel.From[0].Subquery == nil || sel.From[0].Alias != "d" {
		t.Fatalf("derived = %+v", sel.From[0])
	}
}

func TestParseExtractSubstring(t *testing.T) {
	sel := parseSel(t, "SELECT EXTRACT(YEAR FROM o_orderdate), SUBSTRING(c_phone FROM 1 FOR 2) FROM t")
	f1 := sel.Items[0].Expr.(*expr.Func)
	if f1.Name != "EXTRACT_YEAR" {
		t.Errorf("extract = %v", f1)
	}
	f2 := sel.Items[1].Expr.(*expr.Func)
	if f2.Name != "SUBSTRING" || len(f2.Args) != 3 {
		t.Errorf("substring = %v", f2)
	}
	// Comma form.
	sel = parseSel(t, "SELECT SUBSTRING(c_phone, 1, 2) FROM t")
	if sel.Items[0].Expr.(*expr.Func).Name != "SUBSTRING" {
		t.Error("comma substring failed")
	}
}

func TestParseOrderByPosition(t *testing.T) {
	sel := parseSel(t, "SELECT a, b FROM t ORDER BY 2 DESC, 1")
	if sel.OrderBy[0].Position != 2 || !sel.OrderBy[0].Desc {
		t.Errorf("order0 = %+v", sel.OrderBy[0])
	}
	if sel.OrderBy[1].Position != 1 || sel.OrderBy[1].Desc {
		t.Errorf("order1 = %+v", sel.OrderBy[1])
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := parseSel(t, "SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := sel.Where.(*expr.Bin)
	if !ok || or.Op != expr.OpOr {
		t.Fatalf("top = %v", sel.Where)
	}
	and := or.R.(*expr.Bin)
	if and.Op != expr.OpAnd {
		t.Fatalf("rhs = %v", or.R)
	}
	// Arithmetic precedence.
	sel = parseSel(t, "SELECT a + b * c FROM t")
	addE := sel.Items[0].Expr.(*expr.Bin)
	if addE.Op != expr.OpAdd {
		t.Fatalf("arith top = %v", addE)
	}
	if addE.R.(*expr.Bin).Op != expr.OpMul {
		t.Fatal("mul should bind tighter")
	}
	// TPC-H style: l_extendedprice * (1 - l_discount).
	sel = parseSel(t, "SELECT sum(l_extendedprice * (1 - l_discount)) FROM lineitem")
	f := sel.Items[0].Expr.(*expr.Func)
	mul := f.Args[0].(*expr.Bin)
	if mul.Op != expr.OpMul {
		t.Fatalf("tpch expr = %v", f)
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE lineitem (
		l_orderkey BIGINT, l_quantity DECIMAL(15,2), l_shipdate DATE,
		l_comment VARCHAR(44)
	) PARTITION BY HASH(l_orderkey) COLUMNAR CLUSTER BY (l_shipdate)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	if ct.Name != "lineitem" || len(ct.Cols) != 4 {
		t.Fatalf("ct = %+v", ct)
	}
	if ct.Cols[1].Kind != types.KindFloat || ct.Cols[2].Kind != types.KindDate {
		t.Errorf("col kinds = %+v", ct.Cols)
	}
	if ct.PartKind != "HASH" || ct.PartCols[0] != "l_orderkey" {
		t.Errorf("part = %+v", ct)
	}
	if !ct.Columnar || len(ct.ClusterCols) != 1 {
		t.Errorf("columnar/cluster = %+v", ct)
	}
}

func TestParseCreateTableRangeAndReplicated(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE r (k INT, v INT) PARTITION BY RANGE(k) VALUES (100, 200)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	if ct.PartKind != "RANGE" || len(ct.RangeBounds) != 2 || ct.RangeBounds[1].Int() != 200 {
		t.Fatalf("range ct = %+v", ct)
	}
	stmt, err = Parse(`CREATE TABLE nation (n_nationkey INT, n_name CHAR(25)) PARTITION BY REPLICATED`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*CreateTable).PartKind != "REPLICATED" {
		t.Error("replicated not parsed")
	}
	// Default partitioning: hash on first column.
	stmt, _ = Parse(`CREATE TABLE d (a INT, b INT)`)
	ct = stmt.(*CreateTable)
	if ct.PartKind != "HASH" || ct.PartCols[0] != "a" {
		t.Errorf("default part = %+v", ct)
	}
}

func TestParseCreateIndex(t *testing.T) {
	for _, sql := range []string{"CREATE INDEX idx1 ON t(a, b)", "CREATE INDEX idx1 ON t(a, b) USING BTREE"} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		ci := stmt.(*CreateIndex)
		if ci.Name != "idx1" || ci.Table != "t" || len(ci.Cols) != 2 {
			t.Fatalf("%s: ci = %+v", sql, ci)
		}
	}
	// The skip list is gone: a clean parse error that names the kind there is,
	// and the word is an ordinary identifier again.
	if _, err := Parse("CREATE INDEX idx1 ON t(a) USING SKIPLIST"); err == nil || !strings.Contains(err.Error(), "BTREE") {
		t.Errorf("USING SKIPLIST: err = %v, want a parse error naming BTREE", err)
	}
	if _, err := Parse("SELECT skiplist FROM t WHERE skiplist = 1"); err != nil {
		t.Errorf("a column called skiplist: %v", err)
	}
}

func TestParseDML(t *testing.T) {
	stmt, err := Parse("INSERT INTO t VALUES (1, 'a', DATE '2020-01-01'), (2, 'b', NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
	stmt, err = Parse("UPDATE t SET a = a + 1, b = 'x' WHERE c = 5")
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("update = %+v", up)
	}
	stmt, err = Parse("DELETE FROM t WHERE a < 0")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*Delete).Where == nil {
		t.Error("delete where lost")
	}
	stmt, err = Parse("DROP TABLE t")
	if err != nil || stmt.(*DropTable).Name != "t" {
		t.Fatalf("drop = %v %v", stmt, err)
	}
}

func TestParseExplainAnalyze(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT 1 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if ex := stmt.(*Explain); ex.Query == nil || ex.Analyze {
		t.Error("plain EXPLAIN lost query or gained ANALYZE")
	}
	stmt, err = Parse("EXPLAIN ANALYZE SELECT 1 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if ex := stmt.(*Explain); ex.Query == nil || !ex.Analyze {
		t.Error("EXPLAIN ANALYZE lost query or analyze flag")
	}
	stmt, err = Parse("ANALYZE t")
	if err != nil || stmt.(*Analyze).Table != "t" {
		t.Fatalf("analyze = %v %v", stmt, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		"",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"CREATE VIEW v",
		"INSERT t VALUES (1)",
		"SELECT a FROM t trailing garbage tokens (",
		"SELECT CASE END FROM t",
		"SELECT a NOT 5 FROM t",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	sel := parseSel(t, "SELECT -5, -2.5, -(a) FROM t")
	if sel.Items[0].Expr.(*expr.Const).V.Int() != -5 {
		t.Error("negative int fold")
	}
	if sel.Items[1].Expr.(*expr.Const).V.Float() != -2.5 {
		t.Error("negative float fold")
	}
	if _, ok := sel.Items[2].Expr.(*expr.Neg); !ok {
		t.Error("negation of expression")
	}
}

func TestParseTPCHQ1Shape(t *testing.T) {
	// The full TPC-H Q1 text must parse.
	q1 := `SELECT l_returnflag, l_linestatus,
		sum(l_quantity) AS sum_qty,
		sum(l_extendedprice) AS sum_base_price,
		sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
		sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
		avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price,
		avg(l_discount) AS avg_disc, count(*) AS count_order
	FROM lineitem
	WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
	GROUP BY l_returnflag, l_linestatus
	ORDER BY l_returnflag, l_linestatus`
	sel := parseSel(t, q1)
	if len(sel.Items) != 10 || len(sel.GroupBy) != 2 || len(sel.OrderBy) != 2 {
		t.Fatalf("q1 shape: items=%d groupby=%d orderby=%d", len(sel.Items), len(sel.GroupBy), len(sel.OrderBy))
	}
}
