// Package twopc implements HRDBMS's hierarchical two-phase commit (Section
// VI): the XA manager on a coordinator drives PREPARE/COMMIT/ROLLBACK over
// the tree topology so messages broadcast down the tree and votes/acks
// aggregate on the way back up, keeping the coordinator's work and
// connection count bounded. The coordinator's XA log records global
// outcomes; restarting workers resolve in-doubt transactions by asking the
// coordinator recorded in their PREPARE record.
package twopc

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Message types on the 2PC channels.
const (
	msgPrepare byte = iota + 1
	msgVote
	msgCommit
	msgRollback
	msgAck
	msgQueryOutcome
	msgOutcome
)

// Channel names.
const (
	reqChannel = "2pc.req"
)

func voteChannel(txid uint64, node int) string { return fmt.Sprintf("2pc.vote:%d:%d", txid, node) }
func ackChannel(txid uint64, node int) string  { return fmt.Sprintf("2pc.ack:%d:%d", txid, node) }
func outcomeChannel(txid uint64) string        { return fmt.Sprintf("2pc.outcome:%d", txid) }

// wire format: [type][txid uvarint][flag byte][coord varint][nmax uvarint]
// [nparts uvarint][parts varints...]
func encodeMsg(typ byte, txid uint64, flag bool, coord int, nmax int, parts []int) []byte {
	buf := []byte{typ}
	buf = binary.AppendUvarint(buf, txid)
	if flag {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(coord))
	buf = binary.AppendUvarint(buf, uint64(nmax))
	buf = binary.AppendUvarint(buf, uint64(len(parts)))
	for _, p := range parts {
		buf = binary.AppendVarint(buf, int64(p))
	}
	return buf
}

type msg struct {
	typ   byte
	txid  uint64
	flag  bool
	coord int
	nmax  int
	parts []int
}

func decodeMsg(b []byte) (msg, error) {
	var m msg
	if len(b) < 2 {
		return m, fmt.Errorf("twopc: short message")
	}
	m.typ = b[0]
	pos := 1
	txid, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return m, fmt.Errorf("twopc: bad txid")
	}
	pos += n
	m.txid = txid
	if pos >= len(b) {
		return m, fmt.Errorf("twopc: truncated flag")
	}
	m.flag = b[pos] == 1
	pos++
	coord, n := binary.Varint(b[pos:])
	if n <= 0 {
		return m, fmt.Errorf("twopc: bad coord")
	}
	pos += n
	m.coord = int(coord)
	nmax, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return m, fmt.Errorf("twopc: bad nmax")
	}
	pos += n
	m.nmax = int(nmax)
	nparts, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return m, fmt.Errorf("twopc: bad parts len")
	}
	pos += n
	for i := uint64(0); i < nparts; i++ {
		p, n := binary.Varint(b[pos:])
		if n <= 0 {
			return m, fmt.Errorf("twopc: bad part")
		}
		pos += n
		m.parts = append(m.parts, int(p))
	}
	return m, nil
}

// treeFor computes the broadcast tree for a transaction: participants[0]
// must be the coordinator (root).
func treeFor(parts []int, nmax int) (topology.Tree, error) {
	if nmax < 2 {
		nmax = 2
	}
	return topology.NewTree(len(parts), nmax)
}

func positionOf(parts []int, node int) int {
	for i, p := range parts {
		if p == node {
			return i
		}
	}
	return -1
}

// Participant serves 2PC requests on a worker node.
type Participant struct {
	Ep  network.Endpoint
	Mgr *txn.Manager

	stop chan struct{}
	wg   sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// noteErr records a failure from an async message handler, where there is
// no caller to return it to. Recovery re-resolves the transaction, but the
// failure must stay observable (walerr: durability errors are never
// silently dropped).
func (p *Participant) noteErr(err error) {
	if err == nil {
		return
	}
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

// Err returns the first failure recorded by the participant's async
// handlers, if any.
func (p *Participant) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// NewParticipant wires a participant to its node's endpoint and
// transaction manager.
func NewParticipant(ep network.Endpoint, mgr *txn.Manager) *Participant {
	return &Participant{Ep: ep, Mgr: mgr, stop: make(chan struct{})}
}

// Serve processes 2PC requests until the endpoint closes.
func (p *Participant) Serve() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			m, err := p.Ep.Recv(reqChannel)
			if err != nil {
				return
			}
			req, err := decodeMsg(m.Payload)
			if err != nil {
				continue
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.handle(req)
			}()
		}
	}()
}

// handle executes one request: forward down the tree, act locally, gather
// child responses, reply upward.
func (p *Participant) handle(req msg) {
	tree, err := treeFor(req.parts, req.nmax)
	if err != nil {
		return
	}
	pos := positionOf(req.parts, p.Ep.NodeID())
	if pos < 0 {
		return
	}
	children := tree.Children(pos)
	parent := req.parts[tree.Parent(pos)]

	// Forward the request to children first (pipelined broadcast).
	raw := encodeMsg(req.typ, req.txid, req.flag, req.coord, req.nmax, req.parts)
	for _, c := range children {
		_ = p.Ep.Send(req.parts[c], req.parts[c], reqChannel, raw)
	}

	switch req.typ {
	case msgPrepare:
		localOK := true
		if tx, ok := p.Mgr.Lookup(req.txid); ok {
			if err := p.Mgr.Prepare(tx, int32(req.coord)); err != nil {
				localOK = false
			}
		}
		// Aggregate votes: ours AND all children's.
		allOK := localOK
		for range children {
			vm, err := p.Ep.Recv(voteChannel(req.txid, p.Ep.NodeID()))
			if err != nil {
				allOK = false
				break
			}
			vote, err := decodeMsg(vm.Payload)
			if err != nil || !vote.flag {
				allOK = false
			}
		}
		_ = p.Ep.Send(parent, parent, voteChannel(req.txid, parent),
			encodeMsg(msgVote, req.txid, allOK, req.coord, req.nmax, nil))
	case msgCommit, msgRollback:
		if req.typ == msgCommit {
			p.noteErr(p.Mgr.CommitPrepared(req.txid))
		} else {
			p.noteErr(p.Mgr.RollbackPrepared(req.txid))
		}
		for range children {
			if _, err := p.Ep.Recv(ackChannel(req.txid, p.Ep.NodeID())); err != nil {
				break
			}
		}
		_ = p.Ep.Send(parent, parent, ackChannel(req.txid, parent),
			encodeMsg(msgAck, req.txid, true, req.coord, req.nmax, nil))
	}
}

// ResolveInDoubt asks the coordinator for the outcome of a prepared
// transaction after a restart, then applies it locally.
func (p *Participant) ResolveInDoubt(txid uint64, coordinator int) error {
	q := encodeMsg(msgQueryOutcome, txid, false, p.Ep.NodeID(), 0, nil)
	if err := p.Ep.Send(coordinator, coordinator, reqChannel, q); err != nil {
		return err
	}
	m, err := p.Ep.Recv(outcomeChannel(txid))
	if err != nil {
		return err
	}
	out, err := decodeMsg(m.Payload)
	if err != nil {
		return err
	}
	return p.Mgr.ResolveInDoubt(txid, out.flag)
}

// Coordinator is the XA manager: it owns global transaction outcomes and
// drives the hierarchical protocol. XALog stores the required PREPARE /
// COMMIT / ROLLBACK records. VoteTimeout bounds how long phase 1 waits for
// a subtree's vote — an unreachable participant reads as a NO vote and the
// transaction rolls back (Section VI pairs deadlock timeouts with
// cluster-wide rollback; the same applies to dead nodes).
type Coordinator struct {
	Ep          network.Endpoint
	XALog       *wal.Log
	Nmax        int
	VoteTimeout time.Duration
	// Release, when set, drops every mailbox whose channel name starts with a
	// prefix (network.Fabric.ReleasePrefix). A transaction's vote and ack
	// channels are its own, so CommitGlobal releases them when it returns;
	// unset, every transaction leaves its mailboxes behind for the fabric's
	// lifetime.
	Release func(prefix string)

	mu       sync.Mutex
	outcomes map[uint64]bool // txid → committed?

	commits atomic.Int64 // global commit decisions (this run, not replayed)
	aborts  atomic.Int64 // global rollback decisions

	stop chan struct{}
	wg   sync.WaitGroup
}

// Commits returns the number of global transactions this coordinator
// decided to commit since it started (replayed outcomes excluded).
func (c *Coordinator) Commits() int64 { return c.commits.Load() }

// Aborts returns the number of global rollback decisions since start.
func (c *Coordinator) Aborts() int64 { return c.aborts.Load() }

// NewCoordinator builds the XA manager for a coordinator node. It fails if
// the XA log cannot be replayed: losing recorded outcomes would let
// presumed-abort roll back transactions that actually committed.
func NewCoordinator(ep network.Endpoint, xalog *wal.Log, nmax int) (*Coordinator, error) {
	c := &Coordinator{Ep: ep, XALog: xalog, Nmax: nmax, VoteTimeout: 5 * time.Second,
		outcomes: map[uint64]bool{}, stop: make(chan struct{})}
	if err := c.loadOutcomes(); err != nil {
		return nil, err
	}
	return c, nil
}

// loadOutcomes replays the XA log into the outcome table.
func (c *Coordinator) loadOutcomes() error {
	if c.XALog == nil {
		return nil
	}
	return c.XALog.Scan(0, func(r *wal.Record) bool {
		switch r.Type {
		case wal.RecXACommit:
			c.outcomes[r.TxID] = true
		case wal.RecXARollback:
			c.outcomes[r.TxID] = false
		}
		return true
	})
}

// Serve answers in-doubt outcome queries from restarting workers.
func (c *Coordinator) Serve() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			m, err := c.Ep.Recv(reqChannel)
			if err != nil {
				return
			}
			req, err := decodeMsg(m.Payload)
			if err != nil || req.typ != msgQueryOutcome {
				continue
			}
			c.mu.Lock()
			committed, known := c.outcomes[req.txid]
			c.mu.Unlock()
			// Presumed abort: unknown outcome means rollback.
			ans := encodeMsg(msgOutcome, req.txid, known && committed, c.Ep.NodeID(), 0, nil)
			_ = c.Ep.Send(req.coord, req.coord, outcomeChannel(req.txid), ans)
		}
	}()
}

// CommitGlobal runs full 2PC for a transaction across worker participants.
// Returns whether the transaction committed (false = rolled back after a
// negative vote or vote failure).
func (c *Coordinator) CommitGlobal(txid uint64, workers []int) (bool, error) {
	parts := append([]int{c.Ep.NodeID()}, workers...)
	tree, err := treeFor(parts, c.Nmax)
	if err != nil {
		return false, err
	}
	if c.Release != nil {
		// By the time the root has its acks every vote and ack below it has
		// been sent and read; after a timeout a straggler recreates an empty
		// mailbox, as a late send of a released query does.
		defer c.Release(fmt.Sprintf("2pc.vote:%d:", txid))
		defer c.Release(fmt.Sprintf("2pc.ack:%d:", txid))
	}
	if c.XALog != nil {
		c.XALog.Append(&wal.Record{Type: wal.RecPrepare, TxID: txid})
		if err := c.XALog.Flush(); err != nil {
			return false, err
		}
	}
	// Phase 1: PREPARE down the tree. A child we cannot even reach is a
	// failed subtree: its vote is NO.
	prepare := encodeMsg(msgPrepare, txid, false, c.Ep.NodeID(), c.Nmax, parts)
	allOK := true
	expectVotes := 0
	for _, child := range tree.Children(0) {
		if err := c.Ep.Send(parts[child], parts[child], reqChannel, prepare); err != nil {
			allOK = false
			continue
		}
		expectVotes++
	}
	for i := 0; i < expectVotes; i++ {
		vm, err := c.recvTimeout(voteChannel(txid, c.Ep.NodeID()))
		if err != nil {
			// Missing or failed vote (dead subtree): decide rollback.
			allOK = false
			break
		}
		vote, err := decodeMsg(vm.Payload)
		if err != nil || !vote.flag {
			allOK = false
		}
	}
	// Decision: durable in the XA log before phase 2.
	decision := wal.RecXARollback
	if allOK {
		decision = wal.RecXACommit
	}
	if c.XALog != nil {
		c.XALog.Append(&wal.Record{Type: decision, TxID: txid})
		if err := c.XALog.Flush(); err != nil {
			return false, err
		}
	}
	c.mu.Lock()
	c.outcomes[txid] = allOK
	c.mu.Unlock()
	if allOK {
		c.commits.Add(1)
	} else {
		c.aborts.Add(1)
	}
	// Phase 2: COMMIT or ROLLBACK down the tree; acks aggregate up.
	typ := msgRollback
	if allOK {
		typ = msgCommit
	}
	phase2 := encodeMsg(typ, txid, allOK, c.Ep.NodeID(), c.Nmax, parts)
	expectAcks := 0
	for _, child := range tree.Children(0) {
		if err := c.Ep.Send(parts[child], parts[child], reqChannel, phase2); err != nil {
			continue // dead subtree: its nodes resolve via the XA log on restart
		}
		expectAcks++
	}
	for i := 0; i < expectAcks; i++ {
		if _, err := c.recvTimeout(ackChannel(txid, c.Ep.NodeID())); err != nil {
			// Phase 2 acks are best-effort: the decision is durable in the
			// XA log and restarting workers resolve through it.
			break
		}
	}
	return allOK, nil
}

// recvTimeout receives on a channel with the coordinator's vote timeout.
// The receiving goroutine is bounded: it parks on the endpoint until the
// message arrives or the endpoint closes.
func (c *Coordinator) recvTimeout(channel string) (network.Message, error) {
	type res struct {
		m   network.Message
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := c.Ep.Recv(channel)
		ch <- res{m, err}
	}()
	timeout := c.VoteTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	select {
	case r := <-ch:
		return r.m, r.err
	case <-time.After(timeout):
		return network.Message{}, fmt.Errorf("twopc: timeout waiting on %s", channel)
	}
}
