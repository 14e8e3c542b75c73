package txn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/page"
	"repro/internal/wal"
)

// Manager is a node's transaction manager: it hands out transactions,
// chains their WAL records, enforces SS2PL through the lock manager, and
// executes the participant side of 2PC (prepare / commit-prepared /
// rollback-prepared).
type Manager struct {
	Log   *wal.Log
	Locks *LockManager
	Pages wal.PageAccess

	nextTx atomic.Uint64
	mu     sync.Mutex //lint:lockorder txn.manager
	active map[uint64]*Tx
}

// NewManager wires a transaction manager to the node's WAL, lock manager,
// and buffer manager.
func NewManager(log *wal.Log, locks *LockManager, pages wal.PageAccess) *Manager {
	m := &Manager{Log: log, Locks: locks, Pages: pages, active: map[uint64]*Tx{}}
	m.nextTx.Store(1)
	return m
}

// SetNextTxID moves the transaction ID sequence past recovered IDs.
func (m *Manager) SetNextTxID(next uint64) { m.nextTx.Store(next) }

// Tx is one transaction's node-local state. It implements storage.TxHook.
// Tx.mu guards the lastLSN chain and is deliberately held across WAL
// appends: the record's PrevLSN and the updated lastLSN must be assigned
// atomically or concurrent LogInsert/LogDelete calls would fork the chain.
//
//lint:lockorder-before txn.tx wal.log
type Tx struct {
	id      uint64
	lastLSN uint64
	mgr     *Manager
	mu      sync.Mutex //lint:lockorder txn.tx
}

// Begin starts a transaction with a locally assigned ID.
func (m *Manager) Begin() *Tx {
	id := m.nextTx.Add(1)
	return m.BeginWithID(id)
}

// BeginWithID starts a transaction under a globally assigned ID (the
// coordinator assigns IDs for distributed transactions).
func (m *Manager) BeginWithID(id uint64) *Tx {
	tx := &Tx{id: id, mgr: m}
	tx.lastLSN = m.Log.Append(&wal.Record{Type: wal.RecBegin, TxID: id})
	m.mu.Lock()
	m.active[id] = tx
	m.mu.Unlock()
	return tx
}

// Lookup finds an active transaction.
func (m *Manager) Lookup(id uint64) (*Tx, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx, ok := m.active[id]
	return tx, ok
}

// LockPage implements storage.TxHook.
func (t *Tx) LockPage(k page.Key, exclusive bool) error {
	mode := LockShared
	if exclusive {
		mode = LockExclusive
	}
	return t.mgr.Locks.Lock(t.id, k, mode)
}

// LogInsert implements storage.TxHook.
func (t *Tx) LogInsert(k page.Key, slot uint16, encRow []byte) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lsn := t.mgr.Log.Append(&wal.Record{
		Type: wal.RecInsert, TxID: t.id, PrevLSN: t.lastLSN,
		Page: k, Slot: slot, Row: encRow,
	})
	t.lastLSN = lsn
	return lsn
}

// LogDelete implements storage.TxHook.
func (t *Tx) LogDelete(k page.Key, slot uint16, encRow []byte) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lsn := t.mgr.Log.Append(&wal.Record{
		Type: wal.RecDelete, TxID: t.id, PrevLSN: t.lastLSN,
		Page: k, Slot: slot, Row: encRow,
	})
	t.lastLSN = lsn
	return lsn
}

// Commit commits a purely local transaction: durable commit record, then
// release locks (SS2PL order).
func (m *Manager) Commit(tx *Tx) error {
	m.Log.Append(&wal.Record{Type: wal.RecCommit, TxID: tx.id, PrevLSN: tx.lastLSN})
	if err := m.Log.Flush(); err != nil {
		return err
	}
	m.finish(tx.id)
	return nil
}

// Rollback undoes a local transaction via the WAL and releases locks.
func (m *Manager) Rollback(tx *Tx) error {
	_, err := wal.UndoTransaction(m.Log, m.Pages, tx.id, tx.lastLSN)
	if err != nil {
		return fmt.Errorf("txn: rollback tx %d: %w", tx.id, err)
	}
	if err := m.Log.Flush(); err != nil {
		return err
	}
	m.finish(tx.id)
	return nil
}

// Prepare runs the participant side of 2PC phase 1: a durable PREPARE
// record naming the coordinator. Locks stay held.
func (m *Manager) Prepare(tx *Tx, coordinator int32) error {
	tx.mu.Lock()
	tx.lastLSN = m.Log.Append(&wal.Record{
		Type: wal.RecPrepare, TxID: tx.id, PrevLSN: tx.lastLSN, Coordinator: coordinator,
	})
	tx.mu.Unlock()
	return m.Log.Flush()
}

// CommitPrepared finishes phase 2 for a prepared transaction.
func (m *Manager) CommitPrepared(txID uint64) error {
	var prev uint64
	if tx, ok := m.Lookup(txID); ok {
		prev = tx.lastLSN
	}
	m.Log.Append(&wal.Record{Type: wal.RecCommit, TxID: txID, PrevLSN: prev})
	if err := m.Log.Flush(); err != nil {
		return err
	}
	m.finish(txID)
	return nil
}

// RollbackPrepared aborts a prepared transaction (global decision was no).
func (m *Manager) RollbackPrepared(txID uint64) error {
	var last uint64
	if tx, ok := m.Lookup(txID); ok {
		last = tx.lastLSN
	} else if info, err := m.findLastLSN(txID); err == nil {
		last = info
	}
	if _, err := wal.UndoTransaction(m.Log, m.Pages, txID, last); err != nil {
		return err
	}
	if err := m.Log.Flush(); err != nil {
		return err
	}
	m.finish(txID)
	return nil
}

// findLastLSN scans the log for a transaction's final record (used when
// resolving in-doubt transactions after a restart, where no in-memory Tx
// exists).
func (m *Manager) findLastLSN(txID uint64) (uint64, error) {
	var last uint64
	err := m.Log.Scan(0, func(r *wal.Record) bool {
		if r.TxID == txID {
			last = r.LSN
		}
		return true
	})
	return last, err
}

// ResolveInDoubt applies the coordinator's answer for a transaction that
// was prepared before a crash.
func (m *Manager) ResolveInDoubt(txID uint64, commit bool) error {
	if commit {
		return m.CommitPrepared(txID)
	}
	return m.RollbackPrepared(txID)
}

func (m *Manager) finish(txID uint64) {
	m.Locks.ReleaseAll(txID)
	m.mu.Lock()
	delete(m.active, txID)
	m.mu.Unlock()
}

// ActiveCount returns the number of in-flight transactions (tests).
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Close retires the manager at clean shutdown. Under the invariants build it
// panics if any transaction is still active — every Begin must have reached
// Commit, Rollback, or a 2PC decision by now.
func (m *Manager) Close() error {
	m.assertQuiescent("Close")
	return nil
}
