// Package srv is HRDBMS's multi-query serving layer: it sits between the
// network front door (cmd/hrdbms-server) and the embedded cluster
// (internal/core), and owns everything about running MANY queries at once
// that the per-query execution engine deliberately does not — sessions,
// admission control, a bounded scheduler queue, kill, and graceful drain.
//
// The paper's system serves concurrent OLAP clients through coordinators
// that admit, schedule, and monitor queries; this package reproduces that
// control plane over the in-process cluster. Admission meters one resource,
// slots for concurrently running queries; the workers' shared parallelism
// budget is metered by exec.Ctx.AcquireWorkers.
package srv

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// Typed admission outcomes. The wire layer maps these onto ERR lines; tests
// assert on them with errors.Is.
var (
	// ErrQueueFull rejects a query when the bounded admission queue (or the
	// submitting session's fair share of it) is full.
	ErrQueueFull = errors.New("srv: admission queue full")
	// ErrDraining rejects new queries while the server is shutting down.
	ErrDraining = errors.New("srv: server draining")
	// ErrKilled is the cause recorded when KILL fires a query's cancel
	// switch or evicts it from the admission queue.
	ErrKilled = errors.New("srv: query killed")
	// ErrNoSuchQuery is returned by Kill for an unknown query id.
	ErrNoSuchQuery = errors.New("srv: no such query")
)

// AdmissionConfig sizes the scheduler. Zero values select defaults.
type AdmissionConfig struct {
	// MaxActive is the number of queries running concurrently (default 4).
	MaxActive int
	// QueueDepth bounds the admission FIFO (default 64).
	QueueDepth int
	// QueuePerSession caps one session's queued entries — the fairness
	// floor that stops one hot session from occupying the whole queue
	// (default max(1, QueueDepth/4)).
	QueuePerSession int
}

// slowAdmit is the queue wait above which an admission counts as slow in
// the srv.admission.slow counter.
const slowAdmit = 100 * time.Millisecond

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxActive <= 0 {
		c.MaxActive = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueuePerSession <= 0 {
		c.QueuePerSession = c.QueueDepth / 4
		if c.QueuePerSession < 1 {
			c.QueuePerSession = 1
		}
	}
	return c
}

// Grant is one admitted query's claim on the scheduler: its query id (the
// KILL handle), its kill switch (threaded into execution via
// cluster.QueryOptions.Cancel), and how long admission queued it.
type Grant struct {
	QID       uint64
	Cancel    *exec.Cancel
	QueueWait time.Duration

	session uint64
}

// waiter is one queued admission request, under the qid KILL knows it by
// and its grant will carry. admit signals at most once (buffered,
// single-shot) with either a grant or a terminal error.
type waiter struct {
	grant   *Grant
	err     error
	ready   chan struct{}
	done    bool // signalled (admitted, killed, or drained)
	qid     uint64
	session uint64
}

// Admission is the concurrency-safe query scheduler: queries are admitted
// immediately when a slot is free, queued FIFO (with a
// per-session cap) when not, and rejected when the queue is full or the
// server is draining.
type Admission struct {
	cfg AdmissionConfig
	// Instruments are resolved once, in NewAdmission, so that counting under
	// mu is an atomic add and never a trip through the registry's lock (all
	// nil, and no-ops, without a registry).
	met struct {
		admitted, queued, slow         *obs.Counter
		rejectedDraining, rejectedFull *obs.Counter
		killedRunning, killedQueued    *obs.Counter
		queueWait                      *obs.Histogram
	}

	mu       sync.Mutex //lint:lockorder srv.admission leaf
	cond     *sync.Cond // broadcast when active drops to zero
	active   int
	queue    []*waiter
	queued   map[uint64]int    // session → queued entries
	running  map[uint64]*Grant // qid → running grant (kill targets)
	waiting  map[uint64]*waiter
	qidSeq   uint64
	draining bool
}

// NewAdmission builds a scheduler publishing metrics into reg (which may be
// nil for tests that only care about behavior).
func NewAdmission(cfg AdmissionConfig, reg *obs.Registry) *Admission {
	a := &Admission{
		cfg:     cfg.withDefaults(),
		queued:  map[uint64]int{},
		running: map[uint64]*Grant{},
		waiting: map[uint64]*waiter{},
	}
	a.cond = sync.NewCond(&a.mu)
	a.met.admitted = reg.Counter("srv.admitted")
	a.met.queued = reg.Counter("srv.queued")
	a.met.slow = reg.Counter("srv.admission.slow")
	a.met.rejectedDraining = reg.Counter("srv.rejected.draining")
	a.met.rejectedFull = reg.Counter("srv.rejected.queue_full")
	a.met.killedRunning = reg.Counter("srv.killed.running")
	a.met.killedQueued = reg.Counter("srv.killed.queued")
	a.met.queueWait = reg.Histogram("srv.queue.wait.seconds", queueWaitBounds)
	if reg != nil {
		reg.RegisterGaugeFunc("srv.active", func() int64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return int64(a.active)
		})
		reg.RegisterGaugeFunc("srv.queue.depth", func() int64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return int64(len(a.queue))
		})
	}
	return a
}

// queueWaitBounds buckets admission queue wait (seconds).
var queueWaitBounds = []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5}

// Admit blocks until the query is granted a slot, the queue rejects it, or
// it is killed while queued. The returned grant must be Released exactly
// once when the query finishes (success or failure).
func (a *Admission) Admit(session uint64) (*Grant, error) {
	start := time.Now()
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		a.met.rejectedDraining.Inc()
		return nil, ErrDraining
	}
	if a.active < a.cfg.MaxActive && len(a.queue) == 0 {
		a.qidSeq++
		g := a.grantLocked(a.qidSeq, session)
		a.mu.Unlock()
		a.observeWait(0)
		return g, nil
	}
	if len(a.queue) >= a.cfg.QueueDepth {
		a.mu.Unlock()
		a.met.rejectedFull.Inc()
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, a.cfg.QueueDepth)
	}
	if a.queued[session] >= a.cfg.QueuePerSession {
		a.mu.Unlock()
		a.met.rejectedFull.Inc()
		return nil, fmt.Errorf("%w (session %d holds %d queued)", ErrQueueFull, session, a.cfg.QueuePerSession)
	}
	// Queue it. The waiter is registered under a fresh qid immediately so
	// KILL can target a query that has never been admitted.
	a.qidSeq++
	w := &waiter{ready: make(chan struct{}, 1), qid: a.qidSeq, session: session}
	a.queue = append(a.queue, w)
	a.queued[session]++
	a.waiting[w.qid] = w
	a.met.queued.Inc()
	a.mu.Unlock()

	<-w.ready
	a.mu.Lock()
	g, err := w.grant, w.err
	delete(a.waiting, w.qid)
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	g.QueueWait = time.Since(start)
	a.observeWait(g.QueueWait)
	return g, nil
}

// grantLocked claims a slot and registers the running grant under qid.
// Caller holds mu.
func (a *Admission) grantLocked(qid, session uint64) *Grant {
	g := &Grant{QID: qid, Cancel: exec.NewCancel(), session: session}
	a.active++
	a.running[g.QID] = g
	a.met.admitted.Inc()
	return g
}

func (a *Admission) observeWait(d time.Duration) {
	a.met.queueWait.Observe(d.Seconds())
	if d > slowAdmit {
		a.met.slow.Inc()
	}
}

// Release returns a grant's slot and admits the next queued query, if any.
// Safe to call once per grant; extra calls are no-ops.
func (a *Admission) Release(g *Grant) {
	if g == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.running[g.QID]; !ok {
		return
	}
	delete(a.running, g.QID)
	a.active--
	a.promoteLocked()
	if a.active == 0 {
		a.cond.Broadcast()
	}
}

// promoteLocked hands freed capacity to queued waiters, FIFO. Caller holds
// mu. Waiter signals are single-shot sends into buffered channels, so they
// never block under the lock.
func (a *Admission) promoteLocked() {
	for len(a.queue) > 0 && a.active < a.cfg.MaxActive {
		w := a.queue[0]
		a.queue = a.queue[1:]
		a.queued[w.session]--
		if a.queued[w.session] == 0 {
			delete(a.queued, w.session)
		}
		if w.done {
			continue // killed while queued; slot stays free for the next
		}
		w.grant = a.grantLocked(w.qid, w.session)
		w.done = true
		w.ready <- struct{}{}
	}
}

// Kill terminates a query by id: a running query's cancel switch fires (it
// unwinds at the next batch boundary and its Release frees the slot); a
// queued query is evicted and its Admit call returns ErrKilled without ever
// running.
func (a *Admission) Kill(qid uint64) error {
	a.mu.Lock()
	if g, ok := a.running[qid]; ok {
		a.mu.Unlock()
		g.Cancel.Kill(fmt.Errorf("%w (qid %d)", ErrKilled, qid))
		a.met.killedRunning.Inc()
		return nil
	}
	if w, ok := a.waiting[qid]; ok && !w.done {
		w.err = fmt.Errorf("%w (qid %d, queued)", ErrKilled, qid)
		w.done = true
		w.ready <- struct{}{}
		a.mu.Unlock()
		a.met.killedQueued.Inc()
		return nil
	}
	a.mu.Unlock()
	return fmt.Errorf("%w (qid %d)", ErrNoSuchQuery, qid)
}

// Running snapshots the running query ids (SHOW QUERIES).
func (a *Admission) Running() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]uint64, 0, len(a.running))
	for id := range a.running {
		ids = append(ids, id)
	}
	return ids
}

// Drain stops admission: every queued waiter fails with ErrDraining and
// subsequent Admit calls reject immediately. Running queries are left to
// finish; use Quiesce to wait for them (and Kill to hurry them).
func (a *Admission) Drain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return
	}
	a.draining = true
	for _, w := range a.queue {
		if w.done {
			continue
		}
		w.err = ErrDraining
		w.done = true
		w.ready <- struct{}{}
		a.met.rejectedDraining.Inc()
	}
	a.queue = nil
	a.queued = map[uint64]int{}
}

// Quiesce blocks until no queries are running or the timeout passes,
// reporting whether the scheduler went quiet.
func (a *Admission) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// Wake the cond waiter periodically so the timeout is honored even if
	// no Release ever broadcasts.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				a.cond.Broadcast()
			}
		}
	}()
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.active > 0 {
		if time.Now().After(deadline) {
			return false
		}
		a.cond.Wait()
	}
	return true
}

// KillAll fires every running query's cancel switch (forced drain).
func (a *Admission) KillAll(cause error) {
	a.mu.Lock()
	grants := make([]*Grant, 0, len(a.running))
	for _, g := range a.running {
		grants = append(grants, g)
	}
	a.mu.Unlock()
	for _, g := range grants {
		g.Cancel.Kill(cause)
	}
}
