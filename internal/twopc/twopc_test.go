package twopc

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/network"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

type memStore struct {
	mu       sync.Mutex
	pages    map[page.Key][]byte
	pageSize int
}

func newMemStore(size int) *memStore {
	return &memStore{pages: map[page.Key][]byte{}, pageSize: size}
}

func (s *memStore) ReadPage(f page.FileID, n uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.pages[page.Key{File: f, Page: n}]; ok {
		copy(buf, b)
		return nil
	}
	clear(buf)
	return nil
}

func (s *memStore) WritePage(f page.FileID, n uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := make([]byte, len(buf))
	copy(b, buf)
	s.pages[page.Key{File: f, Page: n}] = b
	return nil
}

func (s *memStore) PageSize() int { return s.pageSize }

// worker bundles one node's txn stack.
type worker struct {
	id   int
	mgr  *txn.Manager
	buf  *buffer.Manager
	part *Participant
}

// cluster spins up a coordinator (node 0) and n workers over a fabric.
func cluster(t *testing.T, n int, nmax int) (*Coordinator, []*worker, *network.Fabric) {
	t.Helper()
	ids := make([]int, n+1)
	for i := range ids {
		ids[i] = i
	}
	fabric := network.NewFabric(ids, 256)
	t.Cleanup(fabric.CloseAll)

	xalog, err := wal.Open(filepath.Join(t.TempDir(), "xa.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { xalog.Close() })
	cep, _ := fabric.Endpoint(0)
	coord, err := NewCoordinator(cep, xalog, nmax)
	if err != nil {
		t.Fatal(err)
	}
	coord.Serve()

	var workers []*worker
	for i := 1; i <= n; i++ {
		log, err := wal.Open(filepath.Join(t.TempDir(), "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		buf := buffer.New(newMemStore(4096), 32, 2, buffer.WithFlushHook(log.FlushUpTo))
		mgr := txn.NewManager(log, txn.NewLockManager(time.Second), buf)
		ep, _ := fabric.Endpoint(i)
		part := NewParticipant(ep, mgr)
		part.Serve()
		workers = append(workers, &worker{id: i, mgr: mgr, buf: buf, part: part})
	}
	return coord, workers, fabric
}

// writeRow inserts through the TxHook protocol.
func writeRow(t *testing.T, w *worker, tx *txn.Tx, k page.Key, val int64) {
	t.Helper()
	if err := tx.LockPage(k, true); err != nil {
		t.Fatal(err)
	}
	f, err := w.buf.Fetch(k)
	if err != nil {
		t.Fatal(err)
	}
	if page.TypeOf(f.Buf) == page.TypeFree {
		page.InitRowPage(f.Buf)
	}
	rp, _ := page.AsRowPage(f.Buf)
	enc := types.AppendRow(nil, types.Row{types.NewInt(val)})
	slot, ok := rp.InsertEncoded(enc)
	if !ok {
		t.Fatal("page full")
	}
	lsn := tx.LogInsert(k, uint16(slot), enc)
	page.SetLSN(f.Buf, lsn)
	w.buf.Unpin(f, true)
}

func rowsOn(t *testing.T, w *worker, k page.Key) int {
	t.Helper()
	f, err := w.buf.Fetch(k)
	if err != nil {
		t.Fatal(err)
	}
	defer w.buf.Unpin(f, false)
	if page.TypeOf(f.Buf) == page.TypeFree {
		return 0
	}
	rp, _ := page.AsRowPage(f.Buf)
	return rp.LiveRows()
}

// outcome is the global decision the coordinator recorded for a transaction.
func outcome(c *Coordinator, txid uint64) (committed, known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.outcomes[txid]
	return v, ok
}

func TestGlobalCommitAcrossWorkers(t *testing.T) {
	coord, workers, _ := cluster(t, 5, 3)
	const txid = 100
	k := page.Key{File: 1, Page: 0}
	var ids []int
	for _, w := range workers {
		tx := w.mgr.BeginWithID(txid)
		writeRow(t, w, tx, k, int64(w.id))
		ids = append(ids, w.id)
	}
	committed, err := coord.CommitGlobal(txid, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("unanimous prepare should commit")
	}
	for _, w := range workers {
		if rowsOn(t, w, k) != 1 {
			t.Errorf("worker %d lost its row", w.id)
		}
		if w.mgr.ActiveCount() != 0 {
			t.Errorf("worker %d has dangling transactions", w.id)
		}
	}
	if got, known := outcome(coord, txid); !known || !got {
		t.Error("outcome not recorded")
	}
}

func TestGlobalRollbackOnFailedVote(t *testing.T) {
	coord, workers, _ := cluster(t, 3, 3)
	const txid = 200
	k := page.Key{File: 1, Page: 0}
	// Only workers 1 and 2 join the transaction; worker 3 is told to
	// prepare a transaction it never started — our Participant treats a
	// missing transaction as vote-yes (nothing to do), so instead simulate
	// a NO vote by making worker 2's prepare fail: close its WAL.
	tx1 := workers[0].mgr.BeginWithID(txid)
	writeRow(t, workers[0], tx1, k, 1)
	tx2 := workers[1].mgr.BeginWithID(txid)
	writeRow(t, workers[1], tx2, k, 2)

	// Force worker 2's prepare to fail by closing its log.
	// (Log.Append still works in memory; Flush will fail.)
	workers[1].mgr.Log.Close()

	committed, err := coord.CommitGlobal(txid, []int{workers[0].id, workers[1].id})
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("failed prepare must roll back globally")
	}
	if got, known := outcome(coord, txid); !known || got {
		t.Error("rollback outcome not recorded")
	}
	// Worker 1 (healthy) must have undone its write.
	if rowsOn(t, workers[0], k) != 0 {
		t.Error("healthy worker kept rolled-back write")
	}
}

func TestHierarchicalDegreeBound(t *testing.T) {
	// 12 workers, nmax 3: the coordinator should only talk to its tree
	// children, not all 12.
	coord, workers, fabric := cluster(t, 12, 3)
	const txid = 300
	k := page.Key{File: 1, Page: 0}
	var ids []int
	for _, w := range workers {
		tx := w.mgr.BeginWithID(txid)
		writeRow(t, w, tx, k, 1)
		ids = append(ids, w.id)
	}
	if n := fabric.Meter().TotalMessages(); n != 0 {
		t.Fatalf("fresh fabric already carried %d messages", n)
	}
	committed, err := coord.CommitGlobal(txid, ids)
	if err != nil || !committed {
		t.Fatalf("commit: %v %v", committed, err)
	}
	// Every node talks to its tree parent and its ≤2 children (fan-out
	// nmax-1=2) only, the coordinator at the root included.
	if d := fabric.Meter().MaxNodeDegree(); d > 3 {
		t.Errorf("a node talked to %d peers, want <= nmax = 3 via the tree", d)
	}
}

func TestInDoubtResolution(t *testing.T) {
	coord, workers, _ := cluster(t, 2, 3)
	const txid = 400
	k := page.Key{File: 1, Page: 0}
	ids := []int{workers[0].id, workers[1].id}
	for _, w := range workers {
		tx := w.mgr.BeginWithID(txid)
		writeRow(t, w, tx, k, 5)
	}
	committed, err := coord.CommitGlobal(txid, ids)
	if err != nil || !committed {
		t.Fatalf("commit failed: %v %v", committed, err)
	}
	// Simulate a worker that crashed after PREPARE, recovered, and now
	// asks the coordinator. We fake it with a fresh prepared transaction
	// under a new ID whose outcome the coordinator recorded as commit.
	const txid2 = 401
	w := workers[0]
	tx := w.mgr.BeginWithID(txid2)
	writeRow(t, w, tx, k, 6)
	w.mgr.Prepare(tx, 0)
	// Coordinator recorded nothing for txid2 → presumed abort.
	if err := w.part.ResolveInDoubt(txid2, 0); err != nil {
		t.Fatal(err)
	}
	// The write from txid2 must be gone (presumed abort), the one from
	// txid still present.
	if got := rowsOn(t, w, k); got != 1 {
		t.Errorf("rows = %d, want 1 (committed only)", got)
	}
	// And a recorded commit outcome resolves to commit.
	const txid3 = 402
	tx3 := w.mgr.BeginWithID(txid3)
	writeRow(t, w, tx3, k, 7)
	committed, err = coord.CommitGlobal(txid3, []int{w.id})
	if err != nil || !committed {
		t.Fatalf("commit txid3: %v %v", committed, err)
	}
	if got := rowsOn(t, w, k); got != 2 {
		t.Errorf("rows = %d, want 2", got)
	}
}

func TestDeadParticipantTimesOutToRollback(t *testing.T) {
	coord, workers, _ := cluster(t, 3, 3)
	coord.VoteTimeout = 200 * time.Millisecond
	const txid = 900
	k := page.Key{File: 1, Page: 0}
	// Workers 1 and 2 join; worker 2's endpoint dies before prepare.
	tx1 := workers[0].mgr.BeginWithID(txid)
	writeRow(t, workers[0], tx1, k, 1)
	tx2 := workers[1].mgr.BeginWithID(txid)
	writeRow(t, workers[1], tx2, k, 2)
	workers[1].part.Ep.Close() // dead node

	start := time.Now()
	committed, err := coord.CommitGlobal(txid, []int{workers[0].id, workers[1].id})
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("commit with a dead participant must roll back")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("2PC hung for %v despite timeout", time.Since(start))
	}
	// The healthy worker must have rolled back its write.
	if got := rowsOn(t, workers[0], k); got != 0 {
		t.Errorf("healthy worker kept %d rows after global rollback", got)
	}
	if c, known := outcome(coord, txid); !known || c {
		t.Error("rollback outcome not recorded")
	}
}
