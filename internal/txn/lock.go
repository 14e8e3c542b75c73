// Package txn implements HRDBMS's node-local concurrency control (Section
// VI): a page-level lock manager with shared/exclusive modes under strict
// strong two-phase locking (SS2PL — locks held until commit), local
// deadlock detection via a wait-for graph, lock wait timeouts for
// cross-node deadlocks, and the per-node transaction manager that ties
// locking to the WAL.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/page"
)

// LockMode is shared or exclusive.
type LockMode uint8

// Lock modes.
const (
	LockShared LockMode = iota + 1
	LockExclusive
)

// Errors surfaced to the XA manager, which reacts with a cluster-wide
// rollback (Section VI).
var (
	ErrDeadlock    = errors.New("txn: deadlock detected")
	ErrLockTimeout = errors.New("txn: lock wait timeout")
)

// lockState tracks one page's lock.
type lockState struct {
	holders map[uint64]LockMode
	// waiters wake via broadcast on release.
}

// LockManager grants page locks for one node.
//
// SS2PL writes the commit record while page locks are held, so the lock
// manager sits above the WAL in the lock order.
//
//lint:lockorder-before txn.lockmgr wal.log
type LockManager struct {
	mu      sync.Mutex //lint:lockorder txn.lockmgr
	cond    *sync.Cond
	locks   map[page.Key]*lockState
	waits   map[uint64]map[uint64]bool // waiter → holders blocking it
	held    map[uint64]map[page.Key]bool
	Timeout time.Duration
}

// NewLockManager creates a lock manager with the given wait timeout
// (default 2s if zero).
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	lm := &LockManager{
		locks:   map[page.Key]*lockState{},
		waits:   map[uint64]map[uint64]bool{},
		held:    map[uint64]map[page.Key]bool{},
		Timeout: timeout,
	}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

// compatible reports whether tx can acquire mode on ls right now.
func compatible(ls *lockState, tx uint64, mode LockMode) bool {
	for holder, hm := range ls.holders {
		if holder == tx {
			continue
		}
		if mode == LockExclusive || hm == LockExclusive {
			return false
		}
	}
	return true
}

// Lock blocks until tx holds the page in the requested mode (upgrades are
// allowed when tx is the sole holder). Returns ErrDeadlock when the
// wait-for graph closes a cycle through tx, or ErrLockTimeout.
func (lm *LockManager) Lock(tx uint64, k page.Key, mode LockMode) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	deadline := time.Now().Add(lm.Timeout)

	for {
		ls := lm.locks[k]
		if ls == nil {
			ls = &lockState{holders: map[uint64]LockMode{}}
			lm.locks[k] = ls
		}
		if cur, mine := ls.holders[tx]; mine && (cur == LockExclusive || cur == mode) {
			return nil // already held strongly enough
		}
		if compatible(ls, tx, mode) {
			ls.holders[tx] = mode
			if lm.held[tx] == nil {
				lm.held[tx] = map[page.Key]bool{}
			}
			lm.held[tx][k] = true
			delete(lm.waits, tx)
			return nil
		}
		// Blocked: record wait-for edges and check for a cycle.
		blockers := map[uint64]bool{}
		for holder := range ls.holders {
			if holder != tx {
				blockers[holder] = true
			}
		}
		lm.waits[tx] = blockers
		if lm.cycleFrom(tx) {
			delete(lm.waits, tx)
			return fmt.Errorf("%w: tx %d on %v", ErrDeadlock, tx, k)
		}
		if !lm.waitUntil(deadline) {
			delete(lm.waits, tx)
			return fmt.Errorf("%w: tx %d on %v", ErrLockTimeout, tx, k)
		}
	}
}

// waitUntil waits for a release broadcast, returning false on timeout.
// Called with lm.mu held.
func (lm *LockManager) waitUntil(deadline time.Time) bool {
	if time.Now().After(deadline) {
		return false
	}
	// Wake the condition variable when the deadline passes.
	timer := time.AfterFunc(time.Until(deadline), func() {
		lm.mu.Lock()
		lm.cond.Broadcast()
		lm.mu.Unlock()
	})
	lm.cond.Wait()
	timer.Stop()
	return !time.Now().After(deadline)
}

// cycleFrom reports whether the wait-for graph has a cycle reachable from
// tx. Called with lm.mu held.
func (lm *LockManager) cycleFrom(tx uint64) bool {
	visited := map[uint64]bool{}
	var dfs func(cur uint64) bool
	dfs = func(cur uint64) bool {
		if cur == tx && len(visited) > 0 {
			return true
		}
		if visited[cur] {
			return false
		}
		visited[cur] = true
		for next := range lm.waits[cur] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	for next := range lm.waits[tx] {
		visited[tx] = true
		if dfs(next) {
			return true
		}
	}
	return false
}

// ReleaseAll frees every lock tx holds (commit or rollback under SS2PL).
func (lm *LockManager) ReleaseAll(tx uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for k := range lm.held[tx] {
		if ls := lm.locks[k]; ls != nil {
			delete(ls.holders, tx)
			if len(ls.holders) == 0 {
				delete(lm.locks, k)
			}
		}
	}
	delete(lm.held, tx)
	delete(lm.waits, tx)
	lm.cond.Broadcast()
}
