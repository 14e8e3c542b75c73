// Package fixtures exercises the txnpair analyzer.
package fixtures

import (
	"repro/internal/page"
	"repro/internal/txn"
)

func leakNoFinish(m *txn.Manager) error {
	tx := m.Begin() // want "never"
	return tx.LockPage(page.Key{}, false)
}

func leakDiscarded(m *txn.Manager) {
	m.BeginWithID(42) // want "discarded"
}

// leakOnBranch commits on the slow path only; the fast-return branch
// abandons the transaction with its SS2PL locks held.
func leakOnBranch(m *txn.Manager, fast bool) error {
	tx := m.Begin() // want "never"
	if fast {
		return nil
	}
	return m.Commit(tx)
}

func okCommit(m *txn.Manager) error {
	tx := m.Begin()
	return m.Commit(tx)
}

func okRollback(m *txn.Manager) error {
	tx := m.BeginWithID(7)
	return m.Rollback(tx)
}

func okHandoff(m *txn.Manager, use func(*txn.Tx) error) error {
	tx := m.Begin()
	return use(tx)
}

func okEscapesViaReturn(m *txn.Manager) *txn.Tx {
	return m.Begin()
}

func okSuppressed(m *txn.Manager) error {
	//lint:ignore txnpair fixture: resolved by a later 2PC decision
	tx := m.BeginWithID(99)
	return tx.LockPage(page.Key{}, false)
}
