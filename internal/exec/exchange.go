package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/types"
	"repro/internal/vec"
)

// Exchange operators move rows between nodes. The shuffle comes in two
// flavors (Section IV): DIRECT, where every sender opens a connection to
// every receiver (the MPP pattern whose O(n) per-node connection count the
// paper identifies as a scalability bottleneck), and HIERARCHICAL, where
// messages are routed over the binomial-graph ring topology so no node
// talks to more than Nmax neighbors, with intermediate nodes acting as
// forwarding hubs. Both flavors are non-blocking: rows stream in batches
// and are never sorted or materialized to disk in transit (the paper's
// non-blocking shuffle).

// Batch wire format: [1 type][2 origin ring pos][rows...].
const (
	msgData byte = 0
	msgEOF  byte = 1
)

// errShuffleClosed aborts a shuffle's send loop after Close; it never
// reaches callers (an abandoned stream has no consumer to report to).
var errShuffleClosed = errors.New("exec: shuffle closed")

// exchangeHeader appends the 3-byte exchange header. The receive loop and
// hub forwarding read Payload[0] (type) and Payload[1:3] (origin) directly,
// so the header layout is load-bearing independent of the row encoding.
func exchangeHeader(buf []byte, msgType byte, origin int) []byte {
	buf = append(buf, msgType)
	var o [2]byte
	binary.LittleEndian.PutUint16(o[:], uint16(origin))
	return append(buf, o[:]...)
}

// encodeBatch serializes rows column-wise (typed arrays, null bitmaps,
// per-message string dictionaries — see vec wire format) behind the
// exchange header. The network layer sends the payload uncompressed.
func encodeBatch(msgType byte, origin int, rows []types.Row) []byte {
	buf := exchangeHeader(make([]byte, 0, 64), msgType, origin)
	return vec.EncodeRows(buf, rows)
}

func decodeBatch(b []byte) (msgType byte, origin int, rows []types.Row, err error) {
	if len(b) < 3 {
		return 0, 0, nil, fmt.Errorf("exec: short exchange message")
	}
	msgType = b[0]
	origin = int(binary.LittleEndian.Uint16(b[1:]))
	rows, err = vec.DecodeRows(b[3:])
	if err != nil {
		return 0, 0, nil, err
	}
	return msgType, origin, rows, nil
}

// ShuffleSpec describes one shuffle instance shared by all participating
// nodes of a query plan.
type ShuffleSpec struct {
	Channel      string // unique per (query, exchange) pair
	Nodes        []int  // participating node IDs (all send and all receive)
	Nmax         int    // ring neighbor limit; ≤ 0 is len(Nodes), still a multi-hop ring
	Hierarchical bool   // route over the ring; false is the direct shuffle
	// Broadcast replicates instead of partitioning: every input row goes
	// to every participating node (keys are ignored). The EOF protocol,
	// Nmax-bounded forwarding, and quiescence tracking are identical to a
	// hash shuffle — only the routing differs. Used when the optimizer
	// decides replicating a small build side beats repartitioning a large
	// probe side.
	Broadcast bool
}

// ring builds the routing ring over positions 0..len(Nodes)-1.
func (s ShuffleSpec) ring() (topology.Ring, error) {
	nmax := s.Nmax
	if nmax <= 0 {
		nmax = len(s.Nodes)
	}
	return topology.NewRing(len(s.Nodes), nmax)
}

// position returns the ring position of a node ID.
func (s ShuffleSpec) position(nodeID int) int {
	for i, id := range s.Nodes {
		if id == nodeID {
			return i
		}
	}
	return -1
}

// Shuffle is one node's participation in a shuffle: it sends the local
// input partitioned by key hash and yields the rows whose hash maps to this
// node. Use NewShuffle on every participating node with the same spec, then
// treat it as the local input of the downstream operator.
type Shuffle struct {
	Spec    ShuffleSpec
	In      Operator    // local input (may be nil on receive-only nodes)
	Keys    []expr.Expr // partition key expressions over the input
	ctx     *Ctx
	ep      network.Endpoint
	sch     types.Schema
	ring    topology.Ring
	selfPos int

	// OnLoops, when set, brackets the shuffle's background loops for
	// query-level quiescence tracking (the cluster releases a query's
	// fabric mailboxes only after every loop reading them has exited):
	// Add(1) when Open starts the loops, Done when the receive loop — the
	// last reader of this node's mailbox — exits. A *sync.WaitGroup
	// satisfies it.
	OnLoops interface {
		Add(delta int)
		Done()
	}

	batches   chan []types.Row
	errCh     chan error
	done      chan struct{} // closed by Close; unblocks every channel send
	closeOnce *sync.Once
}

// NewShuffle builds the per-node shuffle operator. ctx sizes the wire
// batches and may be nil (defaults apply); sch must be provided when in is
// nil.
func NewShuffle(ctx *Ctx, ep network.Endpoint, spec ShuffleSpec, in Operator, keys []expr.Expr, sch types.Schema) (*Shuffle, error) {
	if in != nil {
		sch = in.Schema()
	}
	ring, err := spec.ring()
	if err != nil {
		return nil, err
	}
	pos := spec.position(ep.NodeID())
	if pos < 0 {
		return nil, fmt.Errorf("exec: node %d not in shuffle spec", ep.NodeID())
	}
	return &Shuffle{Spec: spec, In: in, Keys: keys, ctx: ctx, ep: ep, sch: sch, ring: ring, selfPos: pos}, nil
}

// Schema implements Operator.
func (s *Shuffle) Schema() types.Schema { return s.sch }

// Open implements Operator.
func (s *Shuffle) Open() error {
	if s.In != nil {
		if err := s.In.Open(); err != nil {
			return err
		}
	}
	s.batches = make(chan []types.Row, 16)
	s.errCh = make(chan error, 2)
	s.done = make(chan struct{})
	s.closeOnce = new(sync.Once)
	// Start the send/receive/forward loops immediately: a shuffle is a
	// cluster-wide rendezvous, and peers block until every participant's
	// loops are live, so lazy start (on first pull) can deadlock plans
	// that drain another stream before this one.
	s.start()
	return nil
}

// transitPairs computes the (sender, dest) pairs whose route passes through
// this node (delivery or forwarding), which is the exact set of EOF markers
// the receive loop must observe before terminating.
func (s *Shuffle) transitPairs() map[[2]int]bool {
	pairs := map[[2]int]bool{}
	n := len(s.Spec.Nodes)
	for src := 0; src < n; src++ {
		if src == s.selfPos {
			continue // own sends leave directly, never re-enter
		}
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if !s.Spec.Hierarchical {
				if dst == s.selfPos {
					pairs[[2]int{src, dst}] = true
				}
				continue
			}
			for _, hop := range s.ring.Route(src, dst) {
				if hop == s.selfPos {
					pairs[[2]int{src, dst}] = true
					break
				}
			}
		}
	}
	return pairs
}

// send routes a payload toward a destination ring position.
func (s *Shuffle) send(destPos int, payload []byte) error {
	to := destPos
	if s.Spec.Hierarchical && destPos != s.selfPos {
		to = s.ring.NextHop(s.selfPos, destPos)
	}
	return s.ep.Send(s.Spec.Nodes[to], s.Spec.Nodes[destPos], s.Spec.Channel, payload)
}

// start launches the sender and receiver loops.
func (s *Shuffle) start() {
	if s.OnLoops != nil {
		s.OnLoops.Add(1)
	}
	// Forwarding queue: the receive loop must never block on a network
	// send, or two hubs with full mailboxes could deadlock each other. The
	// queue is unbounded; a dedicated goroutine drains it.
	fq := newForwardQueue()
	go func() {
		for {
			item, ok := fq.pop()
			if !ok {
				return
			}
			if err := s.ep.Send(item.to, item.dest, s.Spec.Channel, item.payload); err != nil {
				select {
				case s.errCh <- err:
				case <-s.done:
				}
				return
			}
		}
	}()
	// Receive/forward loop.
	go func() {
		if s.OnLoops != nil {
			defer s.OnLoops.Done()
		}
		defer close(s.batches)
		defer fq.close()
		pending := s.transitPairs()
		selfEOFs := 0
		needSelf := len(s.Spec.Nodes) // one EOF per sender incl. self
		for selfEOFs < needSelf || len(pending) > 0 {
			msg, err := s.ep.Recv(s.Spec.Channel)
			if err != nil {
				select {
				case s.errCh <- err:
				case <-s.done:
				}
				return
			}
			destPos := s.Spec.position(msg.Dest)
			if destPos != s.selfPos {
				// Forward toward the destination (we are a hub).
				next := s.ring.NextHop(s.selfPos, destPos)
				fq.push(forwardItem{to: s.Spec.Nodes[next], dest: msg.Dest, payload: msg.Payload})
				if msg.Payload[0] == msgEOF {
					origin := int(binary.LittleEndian.Uint16(msg.Payload[1:]))
					delete(pending, [2]int{origin, destPos})
				}
				continue
			}
			msgType, origin, rows, err := decodeBatch(msg.Payload)
			if err != nil {
				select {
				case s.errCh <- err:
				case <-s.done:
				}
				return
			}
			if msgType == msgEOF {
				selfEOFs++
				delete(pending, [2]int{origin, destPos})
				continue
			}
			// One decoded message = one slab delivered downstream; the
			// decode allocated it fresh, so the consumer owns it.
			select {
			case s.batches <- rows:
			case <-s.done:
				// Consumer abandoned the stream (early Close); keep
				// draining the network so peers and hubs are not wedged,
				// but stop delivering locally.
			}
		}
	}()
	// Send loop: partition the local input.
	go func() {
		n := len(s.Spec.Nodes)
		wire := s.ctx.wireBatchRows()
		batches := make([][]types.Row, n)
		flush := func(dest int) error {
			if len(batches[dest]) == 0 {
				return nil
			}
			if dest == s.selfPos {
				// Local partition: deliver without the network (and without
				// the old encode/decode roundtrip). The buffer is reused, so
				// hand the consumer a copy.
				cp := make([]types.Row, len(batches[dest]))
				copy(cp, batches[dest])
				batches[dest] = batches[dest][:0]
				select {
				case s.batches <- cp:
					return nil
				case <-s.done:
					return errShuffleClosed
				}
			}
			payload := encodeBatch(msgData, s.selfPos, batches[dest])
			batches[dest] = batches[dest][:0]
			return s.send(dest, payload)
		}
		// eofAll emits this sender's EOF to every destination exactly once —
		// peers and our own receive loop (which counts a self-EOF) need one
		// each to terminate, on success and failure paths alike. Returns the
		// first send error (already-failed callers ignore it).
		eofSent := make([]bool, n)
		eofAll := func() error {
			var firstErr error
			for d := 0; d < n; d++ {
				if eofSent[d] {
					continue
				}
				eofSent[d] = true
				var err error
				if d == s.selfPos {
					err = s.ep.Send(s.ep.NodeID(), s.ep.NodeID(), s.Spec.Channel, encodeBatch(msgEOF, s.selfPos, nil))
				} else {
					err = s.send(d, encodeBatch(msgEOF, s.selfPos, nil))
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return firstErr
		}
		fail := func(err error) {
			if err != errShuffleClosed {
				select {
				case s.errCh <- err:
				case <-s.done:
				}
			}
			// Still emit EOFs so peers (and our receive loop) terminate.
			_ = eofAll()
		}
		keys := newKeyHasher(s.Keys, s.sch.Len())
		route := func(r types.Row) error {
			if s.Spec.Broadcast {
				for dest := 0; dest < n; dest++ {
					batches[dest] = append(batches[dest], r)
					if len(batches[dest]) >= wire {
						if err := flush(dest); err != nil {
							return err
						}
					}
				}
				return nil
			}
			hk, err := keys.hash(r)
			if err != nil {
				return err
			}
			dest := int(hk % uint64(n))
			batches[dest] = append(batches[dest], r)
			if len(batches[dest]) >= wire {
				return flush(dest)
			}
			return nil
		}
		if s.In != nil {
			// drain stops partitioning between slabs when the query is killed;
			// fail() still emits EOFs, so peers and hubs terminate normally.
			if err := drain(s.ctx, s.In.NextBatch, func(b []types.Row) error {
				for _, r := range b {
					if err := route(r); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				fail(err)
				return
			}
		}
		for d := 0; d < n; d++ {
			if err := flush(d); err != nil {
				fail(err)
				return
			}
		}
		// EOF per destination (own EOF counted directly by the receive loop).
		if err := eofAll(); err != nil {
			select {
			case s.errCh <- err:
			case <-s.done:
			}
		}
	}()
}

// NextBatch implements Operator: one received (or locally routed)
// wire batch per call.
func (s *Shuffle) NextBatch() ([]types.Row, bool, error) {
	select {
	case err := <-s.errCh:
		return nil, false, err
	case b, ok := <-s.batches:
		if !ok {
			select {
			case err := <-s.errCh:
				return nil, false, err
			default:
			}
			return nil, false, nil
		}
		return b, true, nil
	}
}

// Close implements Operator. Closing the done channel unblocks any loop
// goroutine parked on a row delivery, so an abandoned shuffle (e.g. under an
// error or an early LIMIT) cannot leak its senders.
func (s *Shuffle) Close() error {
	if s.closeOnce != nil {
		s.closeOnce.Do(func() { close(s.done) })
	}
	if s.In != nil {
		return s.In.Close()
	}
	return nil
}

// SendAll drains an operator and sends every row to one receiver — the
// worker side of a gather (workers → coordinator result routing). ctx
// sizes the wire batches and may be nil (DefaultWireBatchRows applies).
func SendAll(ctx *Ctx, ep network.Endpoint, to int, channel string, in Operator) error {
	wire := ctx.wireBatchRows()
	var batch []types.Row
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := ep.Send(to, to, channel, encodeBatch(msgData, ep.NodeID(), batch))
		if err == nil {
			shipped(ep, len(batch))
		}
		batch = batch[:0]
		return err
	}
	return sendStream(ep, to, channel, in, func() error {
		err := drain(ctx, in.NextBatch, func(b []types.Row) error {
			for _, r := range b {
				batch = append(batch, r)
				if len(batch) >= wire {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err == nil {
			err = flush()
		}
		return err
	})
}

// SendAllVec is SendAll for a typed stream: batches are encoded straight
// from typed column slabs — no boxed row materialization on the send side —
// chunked into wire messages of at most wire active rows each, so message
// counts derive from the same Ctx.BatchRows knob as the boxed path, and
// each batch is released once encoded. The receiver cannot tell the two
// apart.
func SendAllVec(ctx *Ctx, ep network.Endpoint, to int, channel string, in VecOperator) error {
	wire := ctx.wireBatchRows()
	return sendStream(ep, to, channel, in, func() error {
		return drain(ctx, in.NextVec, func(b *vec.Batch) error {
			defer b.Release() // after the last chunk is encoded
			n := b.Rows()
			for off := 0; off < n; off += wire {
				payload := exchangeHeader(make([]byte, 0, 64), msgData, ep.NodeID())
				end := min(off+wire, n)
				payload = vec.EncodeBatch(payload, b, off, end)
				if err := ep.Send(to, to, channel, payload); err != nil {
					return err
				}
				shipped(ep, end-off)
			}
			return nil
		})
	})
}

// sendStream brackets the send side of a gather: it opens in, runs send and
// closes in. A killed or failed stream still EOFs the receiver, so the gather
// protocol terminates on the coordinator.
func sendStream(ep network.Endpoint, to int, channel string, in Operator, send func() error) error {
	if err := in.Open(); err != nil {
		return err
	}
	defer in.Close()
	err := send()
	if eofErr := ep.Send(to, to, channel, encodeBatch(msgEOF, ep.NodeID(), nil)); err == nil {
		err = eofErr
	}
	return err
}

// Recv yields rows arriving on a channel until EOFs from all expected
// senders — the coordinator side of a gather.
type Recv struct {
	Ep      network.Endpoint
	Channel string
	Senders int
	Sch     types.Schema
	eofs    int
}

// NewRecv builds the receive operator.
func NewRecv(ep network.Endpoint, channel string, senders int, sch types.Schema) *Recv {
	return &Recv{Ep: ep, Channel: channel, Senders: senders, Sch: sch}
}

// Schema implements Operator.
func (r *Recv) Schema() types.Schema { return r.Sch }

// Open implements Operator.
func (r *Recv) Open() error {
	r.eofs = 0
	return nil
}

// NextBatch implements Operator: one received wire batch per call (the
// decode allocated it fresh, so the consumer owns it).
func (r *Recv) NextBatch() ([]types.Row, bool, error) {
	for r.eofs < r.Senders {
		msg, err := r.Ep.Recv(r.Channel)
		if err != nil {
			return nil, false, err
		}
		msgType, _, rows, err := decodeBatch(msg.Payload)
		if err != nil {
			return nil, false, err
		}
		if msgType == msgEOF {
			r.eofs++
		} else if len(rows) > 0 {
			return rows, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Operator.
func (r *Recv) Close() error { return nil }

// TreeReduceSpec describes a tree-topology reduction: preAggregate's
// hierarchical aggregation, the one caller.
type TreeReduceSpec struct {
	Channel string
	Nodes   []int // participant IDs; Nodes[0] is the root
	Nmax    int
}

// RunTreeReduce executes one node's role in a tree reduction. combine wraps
// the local input and the child streams into one operator (the merge
// aggregate); non-root nodes drain the combined stream to their parent and
// return nil; the root returns the combined operator for downstream
// consumption.
func RunTreeReduce(ctx *Ctx, ep network.Endpoint, spec TreeReduceSpec, local Operator,
	combine func(ins []Operator) Operator) (Operator, error) {
	tree, err := topology.NewTree(len(spec.Nodes), spec.Nmax)
	if err != nil {
		return nil, err
	}
	pos := -1
	for i, id := range spec.Nodes {
		if id == ep.NodeID() {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("exec: node %d not in tree spec", ep.NodeID())
	}
	// Each tree edge gets its own channel with exactly one sender. The
	// local branch goes FIRST: when the local pipeline participates in an
	// all-to-all shuffle, every node must keep consuming its shuffle input
	// for the senders to finish. A combine that drained child partials
	// before the local branch would park this node's shuffle consumer
	// behind Recv, the undelivered shuffle traffic would fill this node's
	// mailbox, the last shuffle sender would block, and the leaves — stuck
	// waiting for that sender's partitions — could never produce the
	// partials Recv is waiting for (deadlocks TPC-H Q7 once the working set
	// outgrows the mailbox bound).
	children := tree.Children(pos)
	ins := make([]Operator, 0, len(children)+1)
	ins = append(ins, local)
	for _, c := range children {
		ins = append(ins, NewRecv(ep, fmt.Sprintf("%s:edge:%d-%d", spec.Channel, c, pos), 1, local.Schema()))
	}
	combined := combine(ins)
	if pos == 0 {
		return combined, nil
	}
	parent := tree.Parent(pos)
	ch := fmt.Sprintf("%s:edge:%d-%d", spec.Channel, pos, parent)
	if err := SendAll(ctx, ep, spec.Nodes[parent], ch, combined); err != nil {
		return nil, err
	}
	return nil, nil
}

// MergeOperators performs an ordered k-way merge of sorted inputs — the
// non-leaf phase of the distributed merge sort. Each input is read through
// a row cursor: the merge needs exactly the head row of every input.
type MergeOperators struct {
	Keys []SortKey
	ins  []*Cursor
	head []types.Row // head row per input (nil = exhausted)
	init bool
	slab []types.Row
}

// NewMergeOperators builds the ordered merge.
func NewMergeOperators(ins []Operator, keys []SortKey) *MergeOperators {
	m := &MergeOperators{Keys: keys, ins: make([]*Cursor, len(ins))}
	for i, in := range ins {
		m.ins[i] = NewCursor(in)
	}
	return m
}

// Schema implements Operator.
func (m *MergeOperators) Schema() types.Schema {
	if len(m.ins) == 0 {
		return types.Schema{}
	}
	return m.ins[0].Schema()
}

// Open implements Operator.
func (m *MergeOperators) Open() error {
	m.head = nil
	m.init = false
	for _, in := range m.ins {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

// advance replaces input i's head row with its next row (nil at the end).
func (m *MergeOperators) advance(i int) error {
	r, ok, err := m.ins[i].Next()
	if err != nil {
		return err
	}
	if !ok {
		r = nil
	}
	m.head[i] = r
	return nil
}

// NextBatch implements Operator, merging up to a slab of rows per call.
func (m *MergeOperators) NextBatch() ([]types.Row, bool, error) {
	if !m.init {
		m.head = make([]types.Row, len(m.ins))
		for i := range m.ins {
			if err := m.advance(i); err != nil {
				return nil, false, err
			}
		}
		m.init = true
	}
	out := m.slab[:0]
	for len(out) < DefaultBatchRows {
		best := -1
		for i, r := range m.head {
			if r != nil && (best < 0 || compareByKeys(r, m.head[best], m.Keys) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, m.head[best])
		if err := m.advance(best); err != nil {
			return nil, false, err
		}
	}
	m.slab = out
	return out, len(out) > 0, nil
}

// Close implements Operator.
func (m *MergeOperators) Close() error {
	var firstErr error
	for _, in := range m.ins {
		if err := in.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// forwardItem is one queued hub-forwarding send.
type forwardItem struct {
	to      int
	dest    int
	payload []byte
}

// forwardQueue is an unbounded MPSC queue: pushes never block, and pop
// drains remaining items after close before reporting exhaustion.
type forwardQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []forwardItem
	closed bool
}

func newForwardQueue() *forwardQueue {
	q := &forwardQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *forwardQueue) push(item forwardItem) {
	q.mu.Lock()
	q.items = append(q.items, item)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *forwardQueue) pop() (forwardItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return forwardItem{}, false
	}
	item := q.items[0]
	q.items = q.items[1:]
	return item, true
}

func (q *forwardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
