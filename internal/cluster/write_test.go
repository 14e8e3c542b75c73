package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/external"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/types"
)

// dmlTables are TestDMLMatchesOneWorker's tables, one per partitioning, each
// with an index on g.
var dmlTables = []string{
	`CREATE TABLE wh (k INT, g INT, s VARCHAR(12)) PARTITION BY HASH(k)`,
	`CREATE TABLE wr (k INT, g INT, s VARCHAR(12)) PARTITION BY RANGE(k) VALUES (20, 1000, 2000)`,
	`CREATE TABLE wp (k INT, g INT, s VARCHAR(12)) PARTITION BY REPLICATED`,
}

// dmlStatement draws one statement of TestDMLMatchesOneWorker's sequences
// against table tbl. Some pin the partitioning key k with `k = literal`, so
// that on wh and wr they match on the key's owner alone; one pins it under
// OR, which pins nothing.
func dmlStatement(rng *rand.Rand, tbl string, step int) string {
	key := rng.Intn(40) + 1000*rng.Intn(2)
	switch rng.Intn(11) {
	case 0, 1:
		var vals []string
		for i := 0; i < 1+rng.Intn(6); i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 'i%d.%d')", rng.Intn(40), rng.Intn(5), step, i))
		}
		return fmt.Sprintf("INSERT INTO %s VALUES %s", tbl, strings.Join(vals, ", "))
	case 2:
		return fmt.Sprintf("DELETE FROM %s WHERE g = %d", tbl, rng.Intn(6))
	case 3:
		return fmt.Sprintf("DELETE FROM %s WHERE k < 0", tbl)
	case 4:
		return fmt.Sprintf("UPDATE %s SET s = 'u%d', g = g + 1 WHERE g = %d", tbl, step, rng.Intn(6))
	case 5:
		return fmt.Sprintf("UPDATE %s SET k = k + 1000 WHERE k >= 0", tbl)
	case 6:
		return fmt.Sprintf("DELETE FROM %s WHERE k = %d", tbl, key)
	case 7:
		return fmt.Sprintf("UPDATE %s SET s = 'p%d', g = g + 1 WHERE %d = k AND g = %d", tbl, step, key, rng.Intn(6))
	case 8:
		return fmt.Sprintf("UPDATE %s SET k = k + 1000 WHERE k = %d", tbl, key)
	case 9:
		return fmt.Sprintf("DELETE FROM %s WHERE k = %d OR g = %d", tbl, key, rng.Intn(6))
	default:
		return fmt.Sprintf("UPDATE %s SET s = 'none' WHERE k < 0", tbl)
	}
}

// fragmentRows returns worker w's own rows of tbl, rendered and sorted.
func fragmentRows(t *testing.T, w *Worker, tbl string) []string {
	t.Helper()
	var rows []types.Row
	if _, err := w.frags[tbl].Scan(storage.ScanOptions{}, func(_ page.RID, r types.Row) (bool, error) {
		rows = append(rows, r)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return normalize(rows)
}

// TestDMLMatchesOneWorker: seeded sequences of INSERT, DELETE and UPDATE —
// an UPDATE of the partitioning key among them, and statements that match
// nothing — leave a 4-worker cluster with the answers, the contents and the
// index lookups of a 1-worker one, on a hash-partitioned, a range-partitioned
// and a replicated table. Every replica of the replicated table must hold
// the same rows: a SELECT reads one of them only.
func TestDMLMatchesOneWorker(t *testing.T) {
	one, _ := newCluster(t, 1, HRDBMSProfile())
	four, _ := newCluster(t, 4, HRDBMSProfile())
	run := func(t *testing.T, sql string) [2]*Result {
		t.Helper()
		var out [2]*Result
		for i, c := range []*Cluster{one, four} {
			res, err := c.ExecSQL(sql)
			if err != nil {
				t.Fatalf("%d workers: %s: %v", len(c.Workers), sql, err)
			}
			out[i] = res
		}
		return out
	}
	for _, ddl := range dmlTables {
		run(t, ddl)
	}
	for _, tbl := range []string{"wh", "wr", "wp"} {
		run(t, fmt.Sprintf("CREATE INDEX %s_g ON %s(g)", tbl, tbl))
	}
	for _, tbl := range []string{"wh", "wr", "wp"} {
		t.Run(tbl, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 30; step++ {
					sql := dmlStatement(rng, tbl, step)
					res := run(t, sql)
					if res[0].Message != res[1].Message {
						t.Fatalf("seed %d: %s: 1 worker says %q, 4 workers %q", seed, sql, res[0].Message, res[1].Message)
					}
					all := run(t, "SELECT k, g, s FROM "+tbl)
					want := normalize(all[0].Rows)
					if got := normalize(all[1].Rows); !slices.Equal(got, want) {
						t.Fatalf("seed %d: after %s: 4 workers hold\n%v\n1 worker\n%v", seed, sql, got, want)
					}
					g := rng.Intn(6)
					lookup := fmt.Sprintf("SELECT k, s FROM %s WHERE g = %d", tbl, g)
					requireIndexScan(t, four, tbl+"_g", lookup)
					eq := run(t, lookup)
					if a, b := normalize(eq[0].Rows), normalize(eq[1].Rows); !slices.Equal(a, b) {
						t.Fatalf("seed %d: after %s: g = %d reads %v on 4 workers, %v on 1", seed, sql, g, b, a)
					}
					if tbl != "wp" {
						continue
					}
					for _, w := range four.Workers {
						if got := fragmentRows(t, w, tbl); !slices.Equal(got, want) {
							t.Fatalf("seed %d: after %s: worker %d's replica holds\n%v\nwant\n%v", seed, sql, w.ID, got, want)
						}
					}
				}
			}
		})
	}
}

// settledMailboxes returns the fabric's mailbox count once it has stopped
// changing: a query's mailboxes are released once its loops have exited.
func settledMailboxes(c *Cluster) int {
	n := c.Fabric.Mailboxes()
	for i := 0; i < 500; i++ {
		time.Sleep(10 * time.Millisecond)
		m := c.Fabric.Mailboxes()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestAnalyzeReleasesMailboxes: ANALYZE reads its table through
// CompileDistributed's cursor, whose Close frees the query's mailboxes, so
// repeated runs leave the fabric no more mailboxes than it held.
func TestAnalyzeReleasesMailboxes(t *testing.T) {
	c, _ := newCluster(t, 4, HRDBMSProfile())
	before := settledMailboxes(c)
	for i := 0; i < 20; i++ {
		if _, err := c.ExecSQL("ANALYZE customer"); err != nil {
			t.Fatal(err)
		}
	}
	if after := settledMailboxes(c); after > before {
		t.Fatalf("fabric mailboxes grew from %d to %d over 20 ANALYZE runs", before, after)
	}
}

// TestQueryExternalReleasesMailboxes: an external-table query gathers its
// partitions to the coordinator over the fabric and frees those mailboxes
// once its loops have exited, as a SQL query does.
func TestQueryExternalReleasesMailboxes(t *testing.T) {
	c, _ := newCluster(t, 4, HRDBMSProfile())
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		csv := fmt.Sprintf("%d|a\n%d|b\n", 2*i, 2*i+1)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part-%d.csv", i)), []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt}, types.Column{Name: "tag", Kind: types.KindString})
	tbl, err := external.NewCSVTable("ext", sch, dir, "part-*.csv", '|')
	if err != nil {
		t.Fatal(err)
	}
	if err := c.External.Register(tbl); err != nil {
		t.Fatal(err)
	}
	before := settledMailboxes(c)
	for i := 0; i < 20; i++ {
		rows, err := c.QueryExternal("ext", "id >= 2")
		if err != nil || len(rows) != 4 {
			t.Fatalf("external query: %d rows, %v", len(rows), err)
		}
	}
	if after := settledMailboxes(c); after > before {
		t.Fatalf("fabric mailboxes grew from %d to %d over 20 external queries", before, after)
	}
}

// TestDropTableDropsLoadStats: a table dropped and created again under the
// same name starts its statistics from its own loads alone.
func TestDropTableDropsLoadStats(t *testing.T) {
	c, _ := newCluster(t, 2, HRDBMSProfile())
	load := func(n int) {
		t.Helper()
		if _, err := c.ExecSQL(`CREATE TABLE st (k INT) PARTITION BY HASH(k)`); err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i))}
		}
		if _, err := c.Load("st", rows); err != nil {
			t.Fatal(err)
		}
	}
	load(1000)
	if _, err := c.ExecSQL(`DROP TABLE st`); err != nil {
		t.Fatal(err)
	}
	load(10)
	if got := c.Catalog().Stats("st").RowCount; got != 10 {
		t.Fatalf("statistics count %d rows after DROP, CREATE and a load of 10", got)
	}
}

// walFlushes counts the cluster's fsyncs: every worker's WAL and every
// coordinator's XA log.
func walFlushes(c *Cluster) int64 {
	var n int64
	for _, w := range c.Workers {
		n += w.Log.Flushes()
	}
	for _, cn := range c.Coords {
		n += cn.XA.XALog.Flushes()
	}
	return n
}

// TestKeyPinnedUpdateRunsOnItsOwner: on 4 workers, a 1-row UPDATE whose
// WHERE pins a hash table's key makes only the row's owner a 2PC
// participant, so it costs 4 fsyncs, PREPARE and decision on that worker
// and on the coordinator's XA log; 6 when it moves the row to another
// worker. Unpinned, or on a replicated table, the same 1-row UPDATE makes
// every worker one: 10.
func TestKeyPinnedUpdateRunsOnItsOwner(t *testing.T) {
	c, _ := newCluster(t, 4, HRDBMSProfile())
	def, err := c.Catalog().Table("customer")
	if err != nil {
		t.Fatal(err)
	}
	owner := func(k int64) int {
		row := make(types.Row, def.Schema.Len())
		row[0] = types.NewInt(k)
		nodes, err := def.NodeFor(row, len(c.Workers))
		if err != nil {
			t.Fatal(err)
		}
		return nodes[0]
	}
	moved := int64(0)
	for owner(moved) == owner(moved+1000) {
		moved++
	}
	for _, tc := range []struct {
		sql  string
		want int64
	}{
		{"UPDATE customer SET c_acctbal = 1 WHERE c_custkey = 17", 4},
		{"UPDATE customer SET c_acctbal = 2 WHERE c_nationkey = 3 AND 17 = c_custkey", 4},
		{fmt.Sprintf("UPDATE customer SET c_custkey = c_custkey + 1000 WHERE c_custkey = %d", moved), 6},
		{"UPDATE customer SET c_acctbal = 3 WHERE c_name = 'cust017'", 10},
		{"UPDATE customer SET c_acctbal = 4 WHERE c_custkey = 17 OR c_custkey = -1", 10},
		{"UPDATE nation SET n_name = 'KENYA' WHERE n_nationkey = 3", 10},
	} {
		before := walFlushes(c)
		res, err := c.ExecSQL(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if res.Message != "1 rows updated" {
			t.Fatalf("%s: %q, want 1 row updated", tc.sql, res.Message)
		}
		if got := walFlushes(c) - before; got != tc.want {
			t.Errorf("%s: %d fsyncs, want %d", tc.sql, got, tc.want)
		}
	}
}

// TestConcurrentLoadsPublishInOrder: overlapping Loads of one table publish
// their statistics in the order they finished them, so once every Load has
// returned each coordinator counts every row loaded.
func TestConcurrentLoadsPublishInOrder(t *testing.T) {
	c, _ := newCluster(t, 2, HRDBMSProfile())
	if _, err := c.ExecSQL(`CREATE TABLE cl (k INT) PARTITION BY HASH(k)`); err != nil {
		t.Fatal(err)
	}
	const loaders, loads = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loads; i++ {
				if _, err := c.Load("cl", []types.Row{{types.NewInt(int64(g*loads + i))}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, cn := range c.Coords {
		if got := cn.Cat.Stats("cl").RowCount; got != loaders*loads {
			t.Errorf("coordinator %d: statistics count %d rows after %d loaded", i, got, loaders*loads)
		}
	}
}
