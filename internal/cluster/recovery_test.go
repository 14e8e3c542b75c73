package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/twopc"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestWorkerCrashRecoveryWithCoordinator exercises the paper's worker
// restart protocol end to end (Section VI): a worker crashes after
// PREPARE, restarts, runs ARIES recovery, finds the transaction in-doubt,
// asks the coordinator named in its PREPARE record, and applies the global
// outcome.
func TestWorkerCrashRecoveryWithCoordinator(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumWorkers: 2, BaseDir: dir, PageSize: 4096, Nmax: 3, Profile: HRDBMSProfile()}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecSQL(`CREATE TABLE acct (id INT, bal FLOAT) PARTITION BY HASH(id)`); err != nil {
		t.Fatal(err)
	}
	// A committed baseline row on each worker.
	if _, err := c.ExecSQL(`INSERT INTO acct VALUES (1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)`); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash scenario on worker 0's stack: a transaction that
	// prepared (coordinator = node 0) but never heard the outcome.
	w := c.Workers[0]
	const txid = 7777
	tx := w.Txn.BeginWithID(txid)
	def, _ := c.Catalog().Table("acct")
	fr := w.frags["acct"]
	if _, err := fr.Insert(tx, types.Row{types.NewInt(100), types.NewFloat(99)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Txn.Prepare(tx, int32(c.Coords[0].ID)); err != nil {
		t.Fatal(err)
	}
	// Record the global outcome on the coordinator as COMMIT (as phase 2
	// would have, before the worker processed it).
	committed, err := c.Coords[0].XA.CommitGlobal(txid, nil)
	if err != nil || !committed {
		t.Fatalf("coordinator decision: %v %v", committed, err)
	}
	// CRASH worker 0: flush pages (steal), drop its in-memory state.
	if err := w.Store.Buf.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Log.Close(); err != nil {
		t.Fatal(err)
	}

	// RESTART: fresh storage stack over the same directories.
	logPath := filepath.Join(dir, "worker1.wal") // worker 0 has node ID 1
	log2, err := wal.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	ns2, err := storage.NewNodeStore(storage.NodeConfig{
		NodeID: w.ID, BaseDir: dir, NumDisks: 2,
		PageSize: cfg.PageSize, FlushHook: log2.FlushUpTo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	// Reopen the table's fragment files FIRST so the WAL's file IDs
	// resolve (registration order is deterministic per table).
	fr2, err := storage.OpenFragment(ns2, def)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wal.Recover(log2, ns2.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0].TxID != txid {
		t.Fatalf("in-doubt after restart = %+v", res.InDoubt)
	}
	if res.InDoubt[0].Coordinator != int32(c.Coords[0].ID) {
		t.Fatalf("PREPARE record lost the coordinator: %d", res.InDoubt[0].Coordinator)
	}
	// Ask the coordinator over the fabric and apply the outcome.
	mgr2 := txn.NewManager(log2, txn.NewLockManager(time.Second), ns2.Buf)
	mgr2.SetNextTxID(res.MaxTxID + 1)
	part2 := twopc.NewParticipant(w.Ep, mgr2)
	if err := part2.ResolveInDoubt(res.InDoubt[0].TxID, int(res.InDoubt[0].Coordinator)); err != nil {
		t.Fatal(err)
	}
	// The prepared row must exist after resolution (outcome was commit).
	found := false
	if _, err := fr2.Scan(storage.ScanOptions{}, func(rid page.RID, r types.Row) (bool, error) {
		if r[0].Int() == 100 {
			found = true
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("committed-in-doubt row missing after recovery + coordinator resolution")
	}
	// The restarted worker's manager is the one it runs with now: the
	// crashed one's in-memory state, 7777 still prepared in it, died with
	// the crash (an invariants build checks at Close that no transaction is
	// left active).
	w.Txn = mgr2
}
