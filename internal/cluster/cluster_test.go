package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/page"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/types"
)

// newCluster spins up an in-process cluster with TPC-H-ish tables loaded.
func newCluster(t *testing.T, workers int, prof ExecProfile) (*Cluster, map[string][]types.Row) {
	t.Helper()
	// Registered before the Close cleanup below so LIFO ordering shuts the
	// cluster down first and the leak check sees the settled state.
	testutil.AssertNoGoroutineLeak(t)
	c, err := New(Config{
		NumWorkers: workers,
		BaseDir:    t.TempDir(),
		PageSize:   8192,
		Nmax:       3,
		MemRows:    1 << 20,
		Profile:    prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ddl := []string{
		`CREATE TABLE nation (n_nationkey INT, n_name VARCHAR(25)) PARTITION BY REPLICATED`,
		`CREATE TABLE customer (c_custkey INT, c_name VARCHAR(25), c_nationkey INT, c_acctbal FLOAT)
			PARTITION BY HASH(c_custkey)`,
		`CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_totalprice FLOAT, o_orderdate DATE)
			PARTITION BY HASH(o_custkey)`,
		`CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, l_quantity FLOAT,
			l_extendedprice FLOAT, l_discount FLOAT, l_shipdate DATE)
			PARTITION BY HASH(l_orderkey)`,
	}
	for _, stmt := range ddl {
		if _, err := c.ExecSQL(stmt); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}

	data := map[string][]types.Row{}
	data["nation"] = []types.Row{
		{types.NewInt(1), types.NewString("CANADA")},
		{types.NewInt(2), types.NewString("FRANCE")},
		{types.NewInt(3), types.NewString("KENYA")},
	}
	for i := int64(0); i < 60; i++ {
		data["customer"] = append(data["customer"], types.Row{
			types.NewInt(i), types.NewString(fmt.Sprintf("cust%03d", i)),
			types.NewInt(i%3 + 1), types.NewFloat(float64(i*13%500) - 100),
		})
	}
	for i := int64(0); i < 240; i++ {
		data["orders"] = append(data["orders"], types.Row{
			types.NewInt(1000 + i), types.NewInt(i % 60),
			types.NewFloat(float64(i*7%300) + 1),
			types.NewDate(types.MustDate("1995-01-01").I + i%700),
		})
	}
	for i := int64(0); i < 900; i++ {
		data["lineitem"] = append(data["lineitem"], types.Row{
			types.NewInt(1000 + i%240), types.NewInt(i % 40),
			types.NewFloat(float64(i%50) + 1),
			types.NewFloat(float64(i*11%1000) + 10),
			types.NewFloat(float64(i%10) / 100),
			types.NewDate(types.MustDate("1995-01-05").I + i%700),
		})
	}
	for tbl, rows := range data {
		if _, err := c.Load(tbl, rows); err != nil {
			t.Fatalf("load %s: %v", tbl, err)
		}
	}
	return c, data
}

// reference executes the same SQL single-node over the in-memory rows.
func reference(t *testing.T, c *Cluster, data map[string][]types.Row, sql string) []types.Row {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Build(sel, c.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	prov := &plan.MemProvider{Cat: c.Catalog(), Rows: data}
	op, err := plan.Execute(node, prov, exec.NewCtx(t.TempDir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// rowKey renders a row with floats rounded to 9 significant digits, so
// distribution-order differences in float summation do not fail equality.
func rowKey(r types.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if v.K == types.KindFloat {
			parts[i] = strconv.FormatFloat(v.F, 'g', 9, 64)
		} else {
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, "\t")
}

// normalize renders rows as sorted strings for order-insensitive compare.
func normalize(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	sort.Strings(out)
	return out
}

// checkAgainstReference runs sql distributed and single-node and compares.
func checkAgainstReference(t *testing.T, c *Cluster, data map[string][]types.Row, sql string, ordered bool) {
	t.Helper()
	res, err := c.ExecSQL(sql)
	if err != nil {
		t.Fatalf("distributed %q: %v", sql, err)
	}
	want := reference(t, c, data, sql)
	if len(res.Rows) != len(want) {
		t.Fatalf("%q: got %d rows, want %d", sql, len(res.Rows), len(want))
	}
	if ordered {
		for i := range want {
			if rowKey(res.Rows[i]) != rowKey(want[i]) {
				t.Fatalf("%q row %d:\n got %v\nwant %v", sql, i, res.Rows[i], want[i])
			}
		}
		return
	}
	g, w := normalize(res.Rows), normalize(want)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%q (unordered) row %d:\n got %v\nwant %v", sql, i, g[i], w[i])
		}
	}
}

func TestDistributedScanFilter(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		"SELECT c_name, c_acctbal FROM customer WHERE c_acctbal > 100", false)
}

func TestDistributedColocatedJoin(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	// customer and orders both hash-partitioned on custkey: co-located.
	checkAgainstReference(t, c, data,
		`SELECT c_name, o_totalprice FROM customer, orders
		 WHERE c_custkey = o_custkey AND o_totalprice > 250`, false)
}

func TestDistributedShuffleJoin(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	// orders partitioned on o_custkey but joined on o_orderkey: shuffle.
	checkAgainstReference(t, c, data,
		`SELECT o_orderkey, l_quantity FROM orders, lineitem
		 WHERE o_orderkey = l_orderkey AND l_quantity > 45`, false)
}

func TestDistributedReplicatedJoin(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT n_name, count(*) AS cnt FROM nation, customer
		 WHERE n_nationkey = c_nationkey GROUP BY n_name ORDER BY n_name`, true)
}

func TestDistributedFourWayJoinAgg(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	// The paper's running example: how much have CANADA customers spent.
	checkAgainstReference(t, c, data,
		`SELECT sum(l_extendedprice) FROM lineitem, orders, customer, nation
		 WHERE o_orderkey = l_orderkey AND o_custkey = c_custkey
		   AND c_nationkey = n_nationkey AND n_name = 'CANADA'`, true)
}

func TestDistributedGroupByShuffle(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT l_partkey, sum(l_quantity) AS q, count(*) AS c, avg(l_extendedprice) AS a
		 FROM lineitem GROUP BY l_partkey ORDER BY l_partkey`, true)
}

func TestDistributedScalarAggTree(t *testing.T) {
	c, data := newCluster(t, 5, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT sum(l_quantity), count(*), min(l_shipdate), max(l_shipdate), avg(l_discount) FROM lineitem`, true)
}

func TestDistributedSortMerge(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT c_custkey, c_acctbal FROM customer ORDER BY c_acctbal DESC, c_custkey`, true)
}

func TestDistributedTopK(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 7`, true)
}

func TestDistributedDistinct(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT DISTINCT c_nationkey FROM customer ORDER BY c_nationkey`, true)
}

func TestDistributedHaving(t *testing.T) {
	c, data := newCluster(t, 3, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT o_custkey, count(*) AS cnt FROM orders GROUP BY o_custkey
		 HAVING count(*) > 3 ORDER BY o_custkey`, true)
}

func TestDistributedExistsSubquery(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT c_name FROM customer c
		 WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 290)
		 ORDER BY c_name`, true)
	checkAgainstReference(t, c, data,
		`SELECT count(*) FROM customer c
		 WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)`, true)
}

func TestDistributedScalarSubquery(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT count(*) FROM customer WHERE c_acctbal > (SELECT avg(c_acctbal) FROM customer)`, true)
}

func TestDistributedCorrelatedScalar(t *testing.T) {
	c, data := newCluster(t, 3, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT count(*) FROM lineitem l1
		 WHERE l1.l_quantity < (SELECT avg(l2.l_quantity) FROM lineitem l2 WHERE l2.l_partkey = l1.l_partkey)`, true)
}

func TestDistributedDerivedTable(t *testing.T) {
	c, data := newCluster(t, 4, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT d.o_custkey, d.total FROM
		   (SELECT o_custkey, sum(o_totalprice) AS total FROM orders GROUP BY o_custkey) AS d
		 WHERE d.total > 500 ORDER BY d.total DESC, d.o_custkey`, true)
}

func TestBaselineProfilesAgree(t *testing.T) {
	// Every execution profile must return the same answers — the profiles
	// differ in HOW, not WHAT.
	sql := `SELECT l_partkey, sum(l_extendedprice * (1 - l_discount)) AS rev
		FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_totalprice > 50
		GROUP BY l_partkey ORDER BY l_partkey`
	profiles := map[string]ExecProfile{
		"hrdbms": HRDBMSProfile(),
		"hive-like": {
			BlockingShuffle: true, MaterializeShuffle: true,
		},
		"spark-like": {
			MaterializeShuffle: true,
		},
		"greenplum-like": {
			EnforceLocality: true, UseMinMax: true,
		},
	}
	var want []string
	for name, prof := range profiles {
		c, _ := newCluster(t, 3, prof)
		res, err := c.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = rowKey(r)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s row %d: %q != %q", name, i, got[i], want[i])
			}
		}
	}
}

func TestExplainStatement(t *testing.T) {
	c, _ := newCluster(t, 2, HRDBMSProfile())
	res, err := c.ExecSQL("EXPLAIN SELECT count(*) FROM customer WHERE c_acctbal > 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("explain rows = %v", res.Rows)
	}
}

func TestInsertDeleteUpdate2PC(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	if _, err := c.ExecSQL(`CREATE TABLE t (k INT, v VARCHAR(10), amt FLOAT) PARTITION BY HASH(k)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecSQL(`INSERT INTO t VALUES (1, 'a', 10.5), (2, 'b', 20.0), (3, 'c', 30.0), (4, 'd', 40.0)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.ExecSQL(`SELECT k, v, amt FROM t ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0][1].Str() != "a" {
		t.Fatalf("after insert: %v", res.Rows)
	}
	if _, err := c.ExecSQL(`DELETE FROM t WHERE k = 2`); err != nil {
		t.Fatal(err)
	}
	res, _ = c.ExecSQL(`SELECT count(*) FROM t`)
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("after delete: %v", res.Rows)
	}
	if _, err := c.ExecSQL(`UPDATE t SET amt = amt + 1 WHERE k >= 3`); err != nil {
		t.Fatal(err)
	}
	res, _ = c.ExecSQL(`SELECT amt FROM t WHERE k = 3`)
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 31 {
		t.Fatalf("after update: %v", res.Rows)
	}
	// Repartitioning update: change the partition key.
	if _, err := c.ExecSQL(`UPDATE t SET k = 100 WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	res, _ = c.ExecSQL(`SELECT k FROM t ORDER BY k`)
	if len(res.Rows) != 3 || res.Rows[2][0].Int() != 100 {
		t.Fatalf("after key update: %v", res.Rows)
	}
	// A transaction's vote and ack mailboxes go with it (a query's are
	// released once its loops have exited, hence the wait): more statements
	// leave the fabric no more mailboxes than it held.
	before := settledMailboxes(c)
	for i := 0; i < 20; i++ {
		if _, err := c.ExecSQL(`UPDATE t SET amt = amt + 1`); err != nil {
			t.Fatal(err)
		}
	}
	if after := settledMailboxes(c); after > before {
		t.Fatalf("fabric mailboxes grew from %d to %d over 20 transactions", before, after)
	}
}

// TestWritesCheckedAgainstColumnKind: a value whose kind is not the column's
// (and is not an int headed for a FLOAT or DATE column) fails the statement —
// INSERT, multi-row INSERT and UPDATE alike, on a row and on a columnar
// table — and leaves the table as it was; the two coercions still apply.
func TestWritesCheckedAgainstColumnKind(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	if _, err := c.ExecSQL(`CREATE TABLE ct (k INT, f FLOAT) COLUMNAR PARTITION BY HASH(k)`); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]string{
		"ins": {
			`INSERT INTO ins VALUES ('x', 2.5, 'b', 9000)`,
			`INSERT INTO ins VALUES (3, 1.0, 'ok', 9000), (4, 'y', 'bad', 9000)`,
			`INSERT INTO ins VALUES (3, 1.0, 7, 9000)`,
			`INSERT INTO ins VALUES (3, 1.0, 'c', '1994-01-01')`,
			`INSERT INTO ct VALUES (1, 'z')`,
		},
		"upd": {
			`UPDATE upd SET k = 'y' WHERE k = 1`,
			`UPDATE upd SET d = 1.5`,
			`UPDATE upd SET s = k`,
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, stmt := range []string{
				`CREATE TABLE ` + name + ` (k INT, f FLOAT, s VARCHAR(10), d DATE) PARTITION BY HASH(k)`,
				`INSERT INTO ` + name + ` VALUES (1, 2, 'a', 9000), (2, 2.5, 'b', DATE '1994-01-01')`,
			} {
				if _, err := c.ExecSQL(stmt); err != nil {
					t.Fatal(err)
				}
			}
			snapshot := func() string {
				res, err := c.ExecSQL(`SELECT k, f, s, d FROM ` + name + ` ORDER BY k`)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(res.Rows)
			}
			before := snapshot()
			if want := "[1\t2\ta\t1994-08-23 2\t2.5\tb\t1994-01-01]"; before != want {
				t.Fatalf("after the coercing INSERT: %s, want %s", before, want)
			}
			for _, stmt := range bad {
				if _, err := c.ExecSQL(stmt); err == nil || !strings.Contains(err.Error(), "cannot store") {
					t.Errorf("%s: err = %v, want a column-kind error", stmt, err)
				}
				if after := snapshot(); after != before {
					t.Fatalf("%s changed the table:\n  before %s\n  after  %s", stmt, before, after)
				}
			}
		})
	}
	res, err := c.ExecSQL(`SELECT count(*) FROM ct`)
	if err != nil || res.Rows[0][0].Int() != 0 {
		t.Errorf("columnar table after a refused INSERT: %v, %v; want 0 rows", res, err)
	}
	// The coercions UPDATE shares with INSERT: int into FLOAT and into DATE
	// (stored as an INT before).
	if _, err := c.ExecSQL(`UPDATE upd SET f = 7, d = 9001 WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	res, err = c.ExecSQL(`SELECT f, d, sum(k) FROM upd WHERE k = 1 GROUP BY f, d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].K != types.KindFloat || res.Rows[0][1].K != types.KindDate || res.Rows[0][2].Int() != 1 {
		t.Fatalf("after the coercing UPDATE: %v, want one row (FLOAT 7, DATE, 1)", res.Rows)
	}
}

// TestLoadChecksColumnKinds: Load checks each value the way INSERT and
// UPDATE do, on a row and on a columnar table. A string in a FLOAT column
// fails the call and stores nothing; an int in a FLOAT column is stored as a
// float, and the caller's row keeps its int.
func TestLoadChecksColumnKinds(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	for _, name := range []string{"lrow", "lcol"} {
		t.Run(name, func(t *testing.T) {
			ddl := `CREATE TABLE ` + name + ` (k INT, f FLOAT) PARTITION BY HASH(k)`
			if name == "lcol" {
				ddl = `CREATE TABLE ` + name + ` (k INT, f FLOAT) COLUMNAR PARTITION BY HASH(k)`
			}
			if _, err := c.ExecSQL(ddl); err != nil {
				t.Fatal(err)
			}
			bad := []types.Row{{types.NewInt(1), types.NewFloat(1)}, {types.NewInt(2), types.NewString("oops")}}
			if _, err := c.Load(name, bad); err == nil || !strings.Contains(err.Error(), "cannot store") {
				t.Fatalf("Load of a string into a FLOAT column: err = %v, want a column-kind error", err)
			}
			res, err := c.ExecSQL(`SELECT count(*) FROM ` + name)
			if err != nil || res.Rows[0][0].Int() != 0 {
				t.Fatalf("after the refused Load: %v, %v; want 0 rows", res, err)
			}
			rows := []types.Row{{types.NewInt(1), types.NewInt(5)}, {types.NewInt(2), types.NewFloat(2.5)}}
			if _, err := c.Load(name, rows); err != nil {
				t.Fatal(err)
			}
			if rows[0][1].K != types.KindInt {
				t.Errorf("Load rewrote the caller's row: %v", rows[0])
			}
			res, err = c.ExecSQL(`SELECT f FROM ` + name + ` WHERE k = 1`)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].K != types.KindFloat || res.Rows[0][0].F != 5 {
				t.Fatalf("int loaded into a FLOAT column reads back as %v, want FLOAT 5", res.Rows)
			}
		})
	}
}

// requireIndexScan fails unless EXPLAIN ANALYZE of the query shows an
// IndexScan through the named index.
func requireIndexScan(t *testing.T, c *Cluster, index, sql string) {
	t.Helper()
	res, err := c.ExecSQL("EXPLAIN ANALYZE " + sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if strings.Contains(r[0].Str(), "IndexScan "+index) {
			return
		}
	}
	t.Fatalf("%s did not read through index %s:\n%v", sql, index, res.Rows)
}

func TestCreateIndexAndLookup(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	if _, err := c.ExecSQL(`CREATE INDEX idx_cust_nation ON customer(c_nationkey)`); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT c_custkey FROM customer WHERE c_nationkey = 2`
	requireIndexScan(t, c, "idx_cust_nation", sql)
	res, err := c.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 { // 60 customers, nation keys 1..3 uniform
		t.Fatalf("index lookup rows = %d, want 20", len(res.Rows))
	}
	// The B+-tree is the one index kind.
	if _, err := c.ExecSQL(`CREATE INDEX sl_cust ON customer(c_custkey) USING SKIPLIST`); err == nil || !strings.Contains(err.Error(), "BTREE") {
		t.Fatalf("USING SKIPLIST: err = %v, want a parse error naming BTREE", err)
	}
}

// TestDropTableDropsWorkerIndexes: DROP TABLE takes the table's index
// entries off every worker, and a table and index re-created under the same
// names read the new rows through the new index.
func TestDropTableDropsWorkerIndexes(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	create := func(first int) {
		t.Helper()
		for _, sql := range []string{
			`CREATE TABLE items (id INT, cat INT) PARTITION BY HASH(id)`,
			fmt.Sprintf(`INSERT INTO items VALUES (%d, 5), (%d, 5), (%d, 9)`, first, first+1, first+2),
			`CREATE INDEX idx_cat ON items(cat)`,
		} {
			if _, err := c.ExecSQL(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	create(1)
	if _, err := c.ExecSQL(`DROP TABLE items`); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workers {
		if _, stale := w.btreeIdx["idx_cat"]; stale {
			t.Errorf("worker %d still holds idx_cat after DROP TABLE", w.ID)
		}
	}
	create(10)
	sql := `SELECT id FROM items WHERE cat = 5 ORDER BY id`
	requireIndexScan(t, c, "idx_cat", sql)
	res, err := c.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 10 || res.Rows[1][0].Int() != 11 {
		t.Fatalf("re-created index read %v, want ids 10 and 11", res.Rows)
	}
}

// TestMisplacedSubqueryAndIntervalFailCleanly: a subquery the planner does
// not reach (an ORDER BY key, a DML expression) and an INTERVAL outside date
// arithmetic are errors of the one statement — they used to panic the
// process from an operator goroutine — and a failed UPDATE or DELETE rolls
// back on every worker.
func TestMisplacedSubqueryAndIntervalFailCleanly(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	for _, sql := range []string{
		`SELECT n_name FROM nation ORDER BY (SELECT max(n_nationkey) FROM nation)`,
		`UPDATE customer SET c_nationkey = (SELECT max(n_nationkey) FROM nation)`,
		`DELETE FROM customer WHERE c_nationkey IN (SELECT n_nationkey FROM nation)`,
		`DELETE FROM customer WHERE EXISTS (SELECT n_nationkey FROM nation)`,
		`SELECT INTERVAL '1' DAY FROM nation`,
		`UPDATE customer SET c_acctbal = 1 / (c_acctbal - c_acctbal)`,
	} {
		if _, err := c.ExecSQL(sql); err == nil {
			t.Errorf("%s: no error", sql)
		}
	}
	res, err := c.ExecSQL(`SELECT count(*), sum(c_nationkey) FROM customer`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 60 || res.Rows[0][1].Int() != 120 {
		t.Fatalf("customer after the failed statements = %v, want 60 rows, nation keys summing to 120", res.Rows[0])
	}
}

func TestAnalyzeUpdatesStats(t *testing.T) {
	c, _ := newCluster(t, 2, HRDBMSProfile())
	if _, err := c.ExecSQL("ANALYZE lineitem"); err != nil {
		t.Fatal(err)
	}
	stats := c.Catalog().Stats("lineitem")
	if stats.RowCount != 900 {
		t.Fatalf("analyzed rowcount = %d", stats.RowCount)
	}
	if stats.Cols["l_partkey"].NDV != 40 {
		t.Fatalf("l_partkey NDV = %d", stats.Cols["l_partkey"].NDV)
	}
}

func TestMultipleCoordinatorsMetadataSync(t *testing.T) {
	c, err := New(Config{
		NumWorkers: 2, NumCoordinators: 2, BaseDir: t.TempDir(),
		PageSize: 4096, Profile: HRDBMSProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecSQL(`CREATE TABLE syncme (a INT, b INT) PARTITION BY HASH(a)`); err != nil {
		t.Fatal(err)
	}
	// Both coordinator replicas must know the table.
	for i, cn := range c.Coords {
		if _, err := cn.Cat.Table("syncme"); err != nil {
			t.Errorf("coordinator %d missing table: %v", i, err)
		}
	}
}

func TestSingleWorkerCluster(t *testing.T) {
	c, data := newCluster(t, 1, HRDBMSProfile())
	checkAgainstReference(t, c, data,
		`SELECT count(*), sum(o_totalprice) FROM orders`, true)
}

func TestSkippingAcrossQueries(t *testing.T) {
	// Small pages so fragments span many full pages (the predicate cache
	// records absence facts only for full pages). Min-max skipping is
	// disabled so the predicate cache is what does the skipping here.
	prof := HRDBMSProfile()
	prof.UseMinMax = false
	c, err := New(Config{
		NumWorkers: 2, BaseDir: t.TempDir(), PageSize: 1024,
		Nmax: 3, Profile: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecSQL(`CREATE TABLE lineitem (l_orderkey INT, l_quantity FLOAT)
		PARTITION BY HASH(l_orderkey)`); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := int64(0); i < 2000; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewFloat(float64(i % 50))})
	}
	if _, err := c.Load("lineitem", rows); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT count(*) FROM lineitem WHERE l_quantity > 200`
	r1, err := c.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].Int() != 0 {
		t.Fatalf("selective count = %v", r1.Rows)
	}
	// Second identical query: predicate cache should skip pages.
	before := pagesSkipped(c)
	if _, err := c.ExecSQL(sql); err != nil {
		t.Fatal(err)
	}
	after := pagesSkipped(c)
	if after <= before {
		t.Errorf("no pages skipped on repeat query (before=%d after=%d)", before, after)
	}
}

// pagesSkipped sums the predicate-cache hits over all lineitem fragments.
func pagesSkipped(c *Cluster) int64 {
	var total int64
	for _, w := range c.Workers {
		if fr := w.frags["lineitem"]; fr != nil {
			h, _ := fr.PredCache.Stats()
			total += h
		}
	}
	return total
}

func TestCatalogPartitioningHonored(t *testing.T) {
	c, _ := newCluster(t, 4, HRDBMSProfile())
	// Each customer row must live on exactly the worker its hash says.
	def, _ := c.Catalog().Table("customer")
	for wi, w := range c.Workers {
		fr := w.frags["customer"]
		n := 0
		_, err := fr.Scan(storage.ScanOptions{}, func(rid page.RID, r types.Row) (bool, error) {
			n++
			nodes, nerr := def.NodeFor(r, len(c.Workers))
			if nerr != nil || len(nodes) != 1 || nodes[0] != wi {
				t.Errorf("row %v on worker %d, want %v", r, wi, nodes)
				return true, storage.ErrStopScan
			}
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Errorf("worker %d has no customer rows — bad balance", wi)
		}
	}
}

func TestRestartReloadsDataAndPredCache(t *testing.T) {
	dir := t.TempDir()
	prof := HRDBMSProfile()
	prof.UseMinMax = false // isolate the predicate cache
	cfg := Config{NumWorkers: 2, BaseDir: dir, PageSize: 1024, Nmax: 3, Profile: prof}
	ddl := `CREATE TABLE li (k INT, qty FLOAT) PARTITION BY HASH(k)`
	sql := `SELECT count(*) FROM li WHERE qty > 500`

	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ExecSQL(ddl); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := int64(0); i < 1500; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewFloat(float64(i % 100))})
	}
	if _, err := c1.Load("li", rows); err != nil {
		t.Fatal(err)
	}
	// Populate the predicate cache, then shut down (persists caches).
	if _, err := c1.ExecSQL(sql); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directories: data and caches must survive.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.ExecSQL(ddl); err != nil {
		t.Fatal(err)
	}
	res, err := c2.ExecSQL(`SELECT count(*) FROM li`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1500 {
		t.Fatalf("rows after restart = %v", res.Rows)
	}
	// The reloaded predicate cache should skip pages on the FIRST run
	// after restart.
	sel, _ := sqlparse.ParseSelect(sql)
	node, err := c2.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := c2.RunMetered(node)
	if err != nil {
		t.Fatal(err)
	}
	if m.PagesSkipped == 0 {
		t.Errorf("restarted cluster skipped no pages (read %d)", m.PagesRead)
	}
}

// TestColumnarSmallLoadsFillOpenSets: a COLUMNAR table fed 30 small batches,
// by turns through Cluster.Load and a multi-row INSERT, holds after Close
// exactly the page files of a twin given the same rows in one Load, byte for
// byte, not a partial set per batch and disk. A cluster restarted over the
// files counts every row of both.
func TestColumnarSmallLoadsFillOpenSets(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumWorkers: 4, DisksPerWorker: 2, BaseDir: dir, PageSize: 1024, Nmax: 3, Profile: HRDBMSProfile()}
	var ddl []string
	for _, name := range []string{"streamed", "whole"} {
		ddl = append(ddl, `CREATE TABLE `+name+` (k INT, qty FLOAT, note VARCHAR(40)) COLUMNAR PARTITION BY HASH(k)`)
	}
	start := func() *Cluster {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, stmt := range ddl {
			if _, err := c.ExecSQL(stmt); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	c1 := start()
	var all []types.Row
	for b := 0; b < 30; b++ {
		var batch []types.Row
		var values []string
		for i := 0; i < 1+(b*7)%40; i++ {
			k := int64(len(all) + len(batch))
			batch = append(batch, types.Row{types.NewInt(k), types.NewFloat(float64(k) + 0.5), types.NewString(fmt.Sprintf("note %d of the stream", k))})
			values = append(values, fmt.Sprintf("(%d, %d.5, 'note %d of the stream')", k, k, k))
		}
		if b%2 == 0 {
			if _, err := c1.Load("streamed", batch); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c1.ExecSQL(`INSERT INTO streamed VALUES ` + strings.Join(values, ", ")); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	if _, err := c1.Load("whole", all); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*", "*", "streamed.d*.*"))
	if err != nil || len(files) != 2*cfg.NumWorkers*cfg.DisksPerWorker {
		t.Fatalf("streamed's page files: %v, %v", files, err)
	}
	for _, f := range files {
		got, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(filepath.Dir(f), strings.Replace(filepath.Base(f), "streamed.", "whole.", 1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes after 30 Loads, %d after one", f, len(got), len(want))
		}
	}

	c2 := start()
	defer c2.Close()
	for _, name := range []string{"streamed", "whole"} {
		res, err := c2.ExecSQL(`SELECT count(*) FROM ` + name)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != int64(len(all)) {
			t.Errorf("%s after restart: %d rows, want %d", name, got, len(all))
		}
	}
}

// TestColumnarOpenSetSkippedByMinMax: a predicate that excludes the open
// set's running range skips the set as min-max skips a sealed one — one set
// skipped, one MinMax hit, none of its rows scanned — and the query's
// counters are those of the same rows flushed into a sealed set.
func TestColumnarOpenSetSkippedByMinMax(t *testing.T) {
	c, err := New(Config{NumWorkers: 1, DisksPerWorker: 1, BaseDir: t.TempDir(), PageSize: 1024, Nmax: 3, Profile: HRDBMSProfile()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecSQL(`CREATE TABLE t (k INT, v FLOAT) COLUMNAR PARTITION BY HASH(k)`); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for k := int64(0); k < 600; k++ {
		rows = append(rows, types.Row{types.NewInt(k), types.NewFloat(float64(k % 37))})
	}
	if _, err := c.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	// One disk, so the sealed sets hold k < sealedRows and the open set the
	// rest: k < sealedRows excludes the open set and no sealed one.
	fr := c.Workers[0].colFrags["t"]
	var sizes []int // by set, in file order: the sealed sets, then the open one
	stats, err := fr.ScanPageSets(storage.ScanOptions{}, nil, 1, func(_ int, set page.PageSet) (bool, error) {
		sizes = append(sizes, set.NumRows())
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sealedRows := 0
	for _, n := range sizes[:stats.SetsRead] {
		sealedRows += n
	}
	if sealedRows == 0 || sealedRows == len(rows) {
		t.Fatalf("%d of %d rows in sealed sets: the test needs both kinds", sealedRows, len(rows))
	}
	sql := fmt.Sprintf(`SELECT count(*) FROM t WHERE k < %d`, sealedRows)
	type counts struct{ setsSkipped, hits, pagesSkipped, scanRows, result int64 }
	run := func() counts {
		hits := fr.MinMax.Hits()
		out, m, tr, err := c.RunTraced(planFor(t, c, sql), sql)
		if err != nil {
			t.Fatal(err)
		}
		got := counts{hits: fr.MinMax.Hits() - hits, pagesSkipped: m.PagesSkipped, scanRows: m.ScanRows, result: out[0][0].Int()}
		for _, s := range tr.Spans() {
			got.setsSkipped += s.SetsSkipped
		}
		return got
	}
	open := run()
	if want := (counts{1, 1, 1, int64(sealedRows), int64(sealedRows)}); open != want {
		t.Errorf("open set excluded: %+v, want %+v", open, want)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if sealed := run(); sealed != open {
		t.Errorf("the same rows sealed: %+v; open: %+v", sealed, open)
	}
}

// TestQualifiedScanPredicateSkipsByMinMax: a scan predicate's skipping atoms
// are keyed by the table column each reference is bound to, which is what
// MinMax records, so a bare, a table-qualified and an alias-qualified
// spelling of one predicate skip the same pages — on a row table and on a
// columnar one, whose open set is checked by a different path.
func TestQualifiedScanPredicateSkipsByMinMax(t *testing.T) {
	for _, layout := range []string{"", " COLUMNAR"} {
		t.Run("table"+strings.ReplaceAll(layout, " ", "-"), func(t *testing.T) {
			c, err := New(Config{NumWorkers: 1, DisksPerWorker: 1, BaseDir: t.TempDir(), PageSize: 1024, Nmax: 3, Profile: HRDBMSProfile()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.ExecSQL(`CREATE TABLE t (k INT, v FLOAT)` + layout + ` PARTITION BY HASH(k)`); err != nil {
				t.Fatal(err)
			}
			var rows []types.Row
			for k := int64(0); k < 3000; k++ {
				rows = append(rows, types.Row{types.NewInt(k), types.NewFloat(float64(k % 37))})
			}
			if _, err := c.Load("t", rows); err != nil {
				t.Fatal(err)
			}
			skipped := map[string]int64{}
			for _, sql := range []string{
				`SELECT count(*) FROM t WHERE k < 100`,
				`SELECT count(*) FROM t WHERE t.k < 100`,
				`SELECT count(*) FROM t x WHERE x.k < 100`,
			} {
				out, m, _, err := c.RunTraced(planFor(t, c, sql), sql)
				if err != nil {
					t.Fatal(err)
				}
				if got := out[0][0].Int(); got != 100 {
					t.Errorf("%s: count %d, want 100", sql, got)
				}
				skipped[sql] = m.PagesSkipped
			}
			bare := skipped[`SELECT count(*) FROM t WHERE k < 100`]
			if bare == 0 {
				t.Fatalf("the bare predicate skipped nothing: %v", skipped)
			}
			for sql, n := range skipped {
				if n != bare {
					t.Errorf("%s skipped %d pages, the bare spelling %d", sql, n, bare)
				}
			}
		})
	}
}

func TestReorganizeStatement(t *testing.T) {
	c, _ := newCluster(t, 2, HRDBMSProfile())
	if _, err := c.ExecSQL(`DELETE FROM lineitem WHERE l_partkey < 20`); err != nil {
		t.Fatal(err)
	}
	before, _ := c.ExecSQL(`SELECT count(*) FROM lineitem`)
	res, err := c.ExecSQL(`REORGANIZE lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Message == "" {
		t.Error("reorganize should report")
	}
	after, _ := c.ExecSQL(`SELECT count(*) FROM lineitem`)
	if before.Rows[0][0].Int() != after.Rows[0][0].Int() {
		t.Fatalf("reorganize changed row count: %v -> %v", before.Rows[0], after.Rows[0])
	}
}

func TestIndexBackedScan(t *testing.T) {
	c, data := newCluster(t, 3, HRDBMSProfile())
	if _, err := c.ExecSQL(`CREATE INDEX idx_li_part ON lineitem(l_partkey)`); err != nil {
		t.Fatal(err)
	}
	// The equality on the indexed leading column selects the index path;
	// results must match the reference exactly.
	checkAgainstReference(t, c, data,
		`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_partkey = 7 AND l_quantity > 10`, false)
	// Metered run confirms the page scan was avoided.
	sel, _ := sqlparse.ParseSelect(`SELECT count(*) FROM lineitem WHERE l_partkey = 7`)
	node, err := c.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	rows, m, err := c.RunMetered(node)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() == 0 {
		t.Fatal("index scan found nothing")
	}
	full, _ := c.ExecSQL(`SELECT count(*) FROM lineitem`)
	if m.WorkRows >= full.Rows[0][0].Int() {
		t.Errorf("index path processed %d rows of %d total", m.WorkRows, full.Rows[0][0].Int())
	}
}

func TestIndexMaintainedByDML(t *testing.T) {
	c, _ := newCluster(t, 3, HRDBMSProfile())
	if _, err := c.ExecSQL(`CREATE TABLE items (id INT, cat INT, label VARCHAR(10)) PARTITION BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecSQL(`INSERT INTO items VALUES (1, 5, 'a'), (2, 5, 'b'), (3, 9, 'c')`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecSQL(`CREATE INDEX idx_cat ON items(cat)`); err != nil {
		t.Fatal(err)
	}
	// Insert after index creation: the new row must be index-visible.
	if _, err := c.ExecSQL(`INSERT INTO items VALUES (4, 5, 'd')`); err != nil {
		t.Fatal(err)
	}
	requireIndexScan(t, c, "idx_cat", `SELECT count(*) FROM items WHERE cat = 5`)
	res, err := c.ExecSQL(`SELECT count(*) FROM items WHERE cat = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("indexed count after insert = %v, want 3", res.Rows[0])
	}
	// Delete: the removed row must disappear from index results.
	if _, err := c.ExecSQL(`DELETE FROM items WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	res, _ = c.ExecSQL(`SELECT count(*) FROM items WHERE cat = 5`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("indexed count after delete = %v, want 2", res.Rows[0])
	}
}

func TestParallelQueriesAcrossCoordinators(t *testing.T) {
	c, err := New(Config{
		NumWorkers: 3, NumCoordinators: 2, BaseDir: t.TempDir(),
		PageSize: 8192, Nmax: 3, Profile: HRDBMSProfile(), TraceQueries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecSQL(`CREATE TABLE t (a INT, b FLOAT) PARTITION BY HASH(a)`); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := int64(0); i < 300; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewFloat(float64(i))})
	}
	if _, err := c.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	// Fire queries concurrently; they spread over both coordinators and
	// must all agree.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.ExecSQL(`SELECT count(*), sum(b) FROM t WHERE a >= 100`)
			if err != nil {
				errs <- err
				return
			}
			if res.Rows[0][0].Int() != 200 {
				errs <- fmt.Errorf("count = %v", res.Rows[0])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Both coordinators must have produced results: the root span of a
	// query's trace sits on the coordinator that ran it. The store files a
	// trace on its own goroutine, so wait for the eight to arrive.
	for deadline := time.Now().Add(5 * time.Second); len(c.Traces.Recent()) < 8 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	gathered := map[int]bool{}
	for _, tr := range c.Traces.Recent() {
		for _, sp := range tr.Spans() {
			if sp.Parent == 0 {
				gathered[sp.Node] = true
			}
		}
	}
	if !gathered[0] || !gathered[1] {
		t.Errorf("queries did not spread over coordinators: %v", gathered)
	}
}

// TestConcurrentDMLInvariant hammers the cluster with concurrent UPDATEs
// moving value between rows; SS2PL + 2PC must keep the total invariant.
func TestConcurrentDMLInvariant(t *testing.T) {
	c, err := New(Config{
		NumWorkers: 3, BaseDir: t.TempDir(), PageSize: 4096,
		Nmax: 3, Profile: HRDBMSProfile(), LockTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecSQL(`CREATE TABLE bal (id INT, amt FLOAT) PARTITION BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecSQL(`INSERT INTO bal VALUES (1, 100), (2, 100), (3, 100), (4, 100)`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				src := g%4 + 1
				dst := (g+1)%4 + 1
				// Each statement is one atomic distributed transaction.
				if _, err := c.ExecSQL(fmt.Sprintf(
					`UPDATE bal SET amt = amt - 1 WHERE id = %d`, src)); err != nil {
					t.Errorf("debit: %v", err)
					return
				}
				if _, err := c.ExecSQL(fmt.Sprintf(
					`UPDATE bal SET amt = amt + 1 WHERE id = %d`, dst)); err != nil {
					t.Errorf("credit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	res, err := c.ExecSQL(`SELECT sum(amt), count(*) FROM bal`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 400 || res.Rows[0][1].Int() != 4 {
		t.Fatalf("invariant broken: %v", res.Rows[0])
	}
}

// TestTreeReduceShuffleBackpressure reproduces the Q7-class deadlock: a
// tree-reduced scalar aggregate over a shuffle join, with the fabric
// mailbox shrunk so the shuffle traffic cannot buffer fully. If an
// intermediate tree node drained child partials before its local branch
// (the branch that consumes its own shuffle input), the undelivered
// shuffle traffic would fill its mailbox, the last shuffle sender would
// block, and the leaves feeding Recv could never produce their partials.
func TestTreeReduceShuffleBackpressure(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	c, err := New(Config{
		NumWorkers: 4,
		BaseDir:    t.TempDir(),
		PageSize:   8192,
		Nmax:       2, // deep tree: intermediate nodes below the root
		MemRows:    1 << 20,
		BatchRows:  1, // one row per wire message: maximal mailbox pressure
		MailboxCap: 4,
		Profile:    HRDBMSProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ddl := []string{
		`CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_totalprice FLOAT)
			PARTITION BY HASH(o_custkey)`,
		`CREATE TABLE lineitem (l_orderkey INT, l_quantity FLOAT)
			PARTITION BY HASH(l_orderkey)`,
	}
	for _, stmt := range ddl {
		if _, err := c.ExecSQL(stmt); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	var orders, lineitem []types.Row
	for i := int64(0); i < 240; i++ {
		orders = append(orders, types.Row{
			types.NewInt(1000 + i), types.NewInt(i % 60), types.NewFloat(float64(i) + 1),
		})
	}
	for i := int64(0); i < 900; i++ {
		lineitem = append(lineitem, types.Row{
			types.NewInt(1000 + i%240), types.NewFloat(float64(i%50) + 1),
		})
	}
	if _, err := c.Load("orders", orders); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("lineitem", lineitem); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	var res *Result
	go func() {
		r, err := c.ExecSQL(
			`SELECT sum(l_quantity), count(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey`)
		res = r
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("tree-reduce deadlocked under shuffle backpressure")
	}
	// Every lineitem row matches exactly one order; 18 full 1..50 cycles.
	if got := res.Rows[0][0].Float(); got != 22950 {
		t.Fatalf("sum(l_quantity) = %v, want 22950", got)
	}
	if got := res.Rows[0][1].Int(); got != 900 {
		t.Fatalf("count(*) = %d, want 900", got)
	}
}
