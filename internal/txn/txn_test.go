package txn

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/page"
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

func newManager(t *testing.T) (*Manager, *buffer.Manager) {
	t.Helper()
	log, err := wal.Open(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	buf := buffer.New(newMemStore(4096), 32, 2, buffer.WithFlushHook(log.FlushUpTo))
	return NewManager(log, NewLockManager(200*time.Millisecond), buf), buf
}

// holding is the number of locks tx holds.
func holding(lm *LockManager, tx uint64) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.held[tx])
}

func TestLockSharedCompatible(t *testing.T) {
	lm := NewLockManager(100 * time.Millisecond)
	k := page.Key{File: 1, Page: 1}
	if err := lm.Lock(1, k, LockShared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Lock(2, k, LockShared); err != nil {
		t.Fatal(err)
	}
	// Exclusive must wait and time out.
	if err := lm.Lock(3, k, LockExclusive); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("exclusive over shared = %v", err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	if err := lm.Lock(3, k, LockExclusive); err != nil {
		t.Fatalf("exclusive after release: %v", err)
	}
}

func TestLockExclusiveBlocks(t *testing.T) {
	lm := NewLockManager(100 * time.Millisecond)
	k := page.Key{File: 1, Page: 1}
	lm.Lock(1, k, LockExclusive)
	if err := lm.Lock(2, k, LockShared); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("shared over exclusive = %v", err)
	}
	// Release unblocks a waiter.
	done := make(chan error, 1)
	go func() { done <- lm.Lock(3, k, LockShared) }()
	time.Sleep(20 * time.Millisecond)
	lm.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatalf("waiter not granted: %v", err)
	}
}

func TestLockUpgradeAndReentry(t *testing.T) {
	lm := NewLockManager(100 * time.Millisecond)
	k := page.Key{File: 1, Page: 1}
	if err := lm.Lock(1, k, LockShared); err != nil {
		t.Fatal(err)
	}
	// Sole holder can upgrade.
	if err := lm.Lock(1, k, LockExclusive); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	// Re-acquiring weaker lock is a no-op.
	if err := lm.Lock(1, k, LockShared); err != nil {
		t.Fatalf("reentry: %v", err)
	}
	if holding(lm, 1) != 1 {
		t.Errorf("holding = %d", holding(lm, 1))
	}
}

func TestDeadlockDetection(t *testing.T) {
	lm := NewLockManager(5 * time.Second) // long timeout: detection must fire first
	a := page.Key{File: 1, Page: 1}
	b := page.Key{File: 1, Page: 2}
	lm.Lock(1, a, LockExclusive)
	lm.Lock(2, b, LockExclusive)

	errCh := make(chan error, 2)
	go func() { errCh <- lm.Lock(1, b, LockExclusive) }()
	time.Sleep(30 * time.Millisecond)
	go func() { errCh <- lm.Lock(2, a, LockExclusive) }()

	// One of the two must get ErrDeadlock quickly.
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("expected deadlock, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deadlock not detected")
	}
	// Releasing the deadlocked tx's locks lets the other proceed.
	lm.ReleaseAll(2)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("survivor failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("survivor never granted")
	}
}

// insertViaTx writes a row through the TxHook protocol the way storage does.
func insertViaTx(t *testing.T, m *Manager, buf *buffer.Manager, tx *Tx, k page.Key, val int64) {
	t.Helper()
	if err := tx.LockPage(k, true); err != nil {
		t.Fatal(err)
	}
	f, err := buf.Fetch(k)
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
	buf.Unpin(f, true)
}

func liveRows(t *testing.T, buf *buffer.Manager, k page.Key) int {
	t.Helper()
	f, err := buf.Fetch(k)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Unpin(f, false)
	if page.TypeOf(f.Buf) == page.TypeFree {
		return 0
	}
	rp, _ := page.AsRowPage(f.Buf)
	return rp.LiveRows()
}

func TestCommitReleasesLocks(t *testing.T) {
	m, buf := newManager(t)
	k := page.Key{File: 1, Page: 0}
	tx := m.Begin()
	insertViaTx(t, m, buf, tx, k, 42)
	if holding(m.Locks, tx.id) == 0 {
		t.Fatal("no locks held before commit")
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if holding(m.Locks, tx.id) != 0 {
		t.Error("locks survived commit")
	}
	if m.ActiveCount() != 0 {
		t.Error("transaction still active")
	}
	if liveRows(t, buf, k) != 1 {
		t.Error("committed row missing")
	}
}

func TestRollbackUndoesWrites(t *testing.T) {
	m, buf := newManager(t)
	k := page.Key{File: 1, Page: 0}
	tx1 := m.Begin()
	insertViaTx(t, m, buf, tx1, k, 1)
	m.Commit(tx1)

	tx2 := m.Begin()
	insertViaTx(t, m, buf, tx2, k, 2)
	insertViaTx(t, m, buf, tx2, k, 3)
	if liveRows(t, buf, k) != 3 {
		t.Fatal("uncommitted rows not visible to self")
	}
	if err := m.Rollback(tx2); err != nil {
		t.Fatal(err)
	}
	if got := liveRows(t, buf, k); got != 1 {
		t.Errorf("rows after rollback = %d, want 1", got)
	}
	if holding(m.Locks, tx2.id) != 0 {
		t.Error("locks survived rollback")
	}
}

func TestPrepareThenCommitPrepared(t *testing.T) {
	m, buf := newManager(t)
	k := page.Key{File: 1, Page: 0}
	tx := m.Begin()
	insertViaTx(t, m, buf, tx, k, 7)
	if err := m.Prepare(tx, 3); err != nil {
		t.Fatal(err)
	}
	// Locks still held after prepare (SS2PL until global decision).
	if holding(m.Locks, tx.id) == 0 {
		t.Fatal("prepare must keep locks")
	}
	if err := m.CommitPrepared(tx.id); err != nil {
		t.Fatal(err)
	}
	if liveRows(t, buf, k) != 1 {
		t.Error("prepared+committed row missing")
	}
}

func TestPrepareThenRollbackPrepared(t *testing.T) {
	m, buf := newManager(t)
	k := page.Key{File: 1, Page: 0}
	tx := m.Begin()
	insertViaTx(t, m, buf, tx, k, 7)
	if err := m.Prepare(tx, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.RollbackPrepared(tx.id); err != nil {
		t.Fatal(err)
	}
	if got := liveRows(t, buf, k); got != 0 {
		t.Errorf("rows after prepared rollback = %d", got)
	}
}

func TestResolveInDoubtAfterRestart(t *testing.T) {
	t.Run("commit", func(t *testing.T) { resolveInDoubtAfterRestart(t, true) })
	t.Run("abort", func(t *testing.T) { resolveInDoubtAfterRestart(t, false) })
}

// resolveInDoubtAfterRestart prepares an insert, crashes, recovers it in
// doubt and applies the coordinator's answer on a manager that never saw the
// transaction: the row stays on commit and is undone, from the log, on abort.
func resolveInDoubtAfterRestart(t *testing.T, commit bool) {
	dir := t.TempDir()
	store := newMemStore(4096)
	logPath := filepath.Join(dir, "wal.log")
	log, err := wal.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	buf := buffer.New(store, 32, 2, buffer.WithFlushHook(log.FlushUpTo))
	m := NewManager(log, NewLockManager(time.Second), buf)
	k := page.Key{File: 1, Page: 0}
	tx := m.Begin()
	insertViaTx(t, m, buf, tx, k, 9)
	if err := m.Prepare(tx, 5); err != nil {
		t.Fatal(err)
	}
	buf.FlushAll()
	log.Close() // crash

	// Restart: recovery reports the in-doubt transaction.
	log2, err := wal.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	buf2 := buffer.New(store, 32, 2, buffer.WithFlushHook(log2.FlushUpTo))
	res, err := wal.Recover(log2, buf2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0].Coordinator != 5 {
		t.Fatalf("in-doubt = %+v", res.InDoubt)
	}
	m2 := NewManager(log2, NewLockManager(time.Second), buf2)
	m2.SetNextTxID(res.MaxTxID + 1)
	if err := m2.ResolveInDoubt(res.InDoubt[0].TxID, commit); err != nil {
		t.Fatal(err)
	}
	want := 0
	if commit {
		want = 1
	}
	if got := liveRows(t, buf2, k); got != want {
		t.Errorf("rows after resolving with commit=%v = %d, want %d", commit, got, want)
	}
}

func TestConcurrentTransactionsDisjointPages(t *testing.T) {
	m, buf := newManager(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin()
			k := page.Key{File: 1, Page: uint32(i)}
			insertViaTx(t, m, buf, tx, k, int64(i))
			if err := m.Commit(tx); err != nil {
				t.Errorf("tx %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if liveRows(t, buf, page.Key{File: 1, Page: uint32(i)}) != 1 {
			t.Errorf("page %d missing row", i)
		}
	}
}
