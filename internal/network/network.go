// Package network provides the communication fabric between HRDBMS nodes.
//
// Two transports implement the same Endpoint interface: an in-process
// fabric used by the simulated cluster (with full metering of bytes,
// messages, and distinct connections, which the perfmodel package converts
// into simulated time), and a TCP transport for real deployments
// (cmd/hrdbms-server).
//
// Messages are addressed datagrams on named logical channels; shuffle,
// 2PC, and query dispatch each use their own channel namespace. Mailboxes
// are bounded, so a slow consumer backpressures senders the way the
// paper's pipelined engine expects.
package network

import (
	"errors"
	"fmt"
	"sync"
)

// Message is one delivered datagram.
type Message struct {
	From    int
	Dest    int // final destination (differs from the receiving node when forwarded via a hub)
	Channel string
	Payload []byte
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("network: endpoint closed")

// Endpoint is one node's attachment to the fabric.
type Endpoint interface {
	NodeID() int
	// Send delivers payload to the mailbox (to, channel). It may block for
	// backpressure. dest is the final destination recorded in the message
	// (pass to for direct sends).
	Send(to, dest int, channel string, payload []byte) error
	// Recv blocks until a message arrives on channel or the endpoint closes.
	Recv(channel string) (Message, error)
	// Close shuts the endpoint; blocked Recv/Send calls return ErrClosed.
	Close() error
}

// LinkStats accumulates traffic for one directed (from, to) pair.
type LinkStats struct {
	Messages int64
	Bytes    int64
}

// linkMap is the shared link-statistics table behind both the fabric-wide
// Meter and per-query MeterScopes. Callers hold the owning mutex.
type linkMap map[[2]int]*LinkStats

func (l linkMap) record(from, to int, bytes int) {
	k := [2]int{from, to}
	ls := l[k]
	if ls == nil {
		ls = &LinkStats{}
		l[k] = ls
	}
	ls.Messages++
	ls.Bytes += int64(bytes)
}

func (l linkMap) totalBytes() int64 {
	var total int64
	for _, ls := range l {
		total += ls.Bytes
	}
	return total
}

func (l linkMap) totalMessages() int64 {
	var total int64
	for _, ls := range l {
		total += ls.Messages
	}
	return total
}

func (l linkMap) maxNodeDegree() int {
	peers := map[int]map[int]bool{}
	add := func(a, b int) {
		if peers[a] == nil {
			peers[a] = map[int]bool{}
		}
		peers[a][b] = true
	}
	for k := range l {
		add(k[0], k[1])
		add(k[1], k[0])
	}
	max := 0
	for _, p := range peers {
		if len(p) > max {
			max = len(p)
		}
	}
	return max
}

// Meter records fabric-wide communication statistics. It is shared by all
// endpoints of an in-process cluster and read by the performance model. Per-query accounting uses
// Scope, which attributes messages by their channel-name prefix — channels
// embed the query ID, so concurrent queries meter independently without
// resetting shared state.
type Meter struct {
	mu     sync.Mutex
	links  linkMap
	scopes []*MeterScope
}

// NewMeter creates an empty meter.
func NewMeter() *Meter { return &Meter{links: linkMap{}} }

func (m *Meter) record(from, to int, channel string, bytes int) {
	if from == to {
		return // loopback delivery is not a network connection
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.links.record(from, to, bytes)
	for _, s := range m.scopes {
		if s.matches(channel) {
			s.links.record(from, to, bytes)
		}
	}
}

// Scope starts per-query metering: every message whose channel name starts
// with one of the prefixes is additionally recorded into the returned
// scope until Close. Scopes read exactly their own query's traffic, so
// concurrent metered queries do not disturb each other.
func (m *Meter) Scope(prefixes ...string) *MeterScope {
	s := &MeterScope{m: m, prefixes: append([]string(nil), prefixes...), links: linkMap{}}
	m.mu.Lock()
	m.scopes = append(m.scopes, s)
	m.mu.Unlock()
	return s
}

// MeterScope collects the subset of fabric traffic whose channel names
// match its prefixes (one prefix per query, plus one per materialized
// subquery). Guarded by the parent meter's mutex.
type MeterScope struct {
	m        *Meter
	prefixes []string
	links    linkMap
}

// matches reports whether a channel belongs to this scope. Caller holds
// m.mu.
func (s *MeterScope) matches(channel string) bool {
	for _, p := range s.prefixes {
		if len(channel) >= len(p) && channel[:len(p)] == p {
			return true
		}
	}
	return false
}

// AddPrefix extends the scope to another channel prefix (used when a query
// materializes scalar subqueries under their own query IDs). Nil-safe.
func (s *MeterScope) AddPrefix(p string) {
	if s == nil {
		return
	}
	s.m.mu.Lock()
	s.prefixes = append(s.prefixes, p)
	s.m.mu.Unlock()
}

// TotalBytes returns bytes attributed to this scope.
func (s *MeterScope) TotalBytes() int64 {
	if s == nil {
		return 0
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return s.links.totalBytes()
}

// TotalMessages returns messages attributed to this scope.
func (s *MeterScope) TotalMessages() int64 {
	if s == nil {
		return 0
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return s.links.totalMessages()
}

// Connections returns the number of distinct directed links this scope's
// traffic used.
func (s *MeterScope) Connections() int {
	if s == nil {
		return 0
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return len(s.links)
}

// MaxNodeDegree returns the largest per-node peer count within the scope.
func (s *MeterScope) MaxNodeDegree() int {
	if s == nil {
		return 0
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return s.links.maxNodeDegree()
}

// Close detaches the scope from the meter; its totals stay readable.
func (s *MeterScope) Close() {
	if s == nil {
		return
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	for i, sc := range s.m.scopes {
		if sc == s {
			s.m.scopes = append(s.m.scopes[:i], s.m.scopes[i+1:]...)
			return
		}
	}
}

// Connections returns the number of distinct directed links used.
func (m *Meter) Connections() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.links)
}

// TotalBytes returns the total bytes sent over all links.
func (m *Meter) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.links.totalBytes()
}

// TotalMessages returns the number of messages sent.
func (m *Meter) TotalMessages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.links.totalMessages()
}

// MaxNodeDegree returns the largest number of distinct peers any single
// node communicated with (in either direction) — the quantity HRDBMS's
// topologies bound by Nmax.
func (m *Meter) MaxNodeDegree() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.links.maxNodeDegree()
}

// Fabric is the in-process transport: a set of endpoints with bounded
// mailboxes, metered centrally.
type Fabric struct {
	mu         sync.Mutex
	endpoints  map[int]*inprocEndpoint
	meter      *Meter
	mailboxCap int
}

// NewFabric creates an in-process fabric for the given node IDs.
func NewFabric(nodeIDs []int, mailboxCap int) *Fabric {
	if mailboxCap < 1 {
		mailboxCap = 1024
	}
	f := &Fabric{endpoints: map[int]*inprocEndpoint{}, meter: NewMeter(), mailboxCap: mailboxCap}
	for _, id := range nodeIDs {
		f.endpoints[id] = &inprocEndpoint{
			id:     id,
			fabric: f,
			boxes:  map[string]chan Message{},
			closed: make(chan struct{}),
		}
	}
	return f
}

// Meter returns the fabric's shared meter.
func (f *Fabric) Meter() *Meter { return f.meter }

// Endpoint returns the endpoint of the given node.
func (f *Fabric) Endpoint(id int) (Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.endpoints[id]
	if !ok {
		return nil, fmt.Errorf("network: unknown node %d", id)
	}
	return e, nil
}

// ReleasePrefix drops every mailbox whose channel name starts with prefix,
// on every endpoint. Mailboxes are created lazily per (endpoint, channel)
// and would otherwise live for the fabric's lifetime; a serving cluster
// runs thousands of queries, each with its own "q<qid>." channel
// namespace, so the query path releases the namespace when the query ends
// to keep fabric memory bounded. A straggling send after release simply
// recreates an empty (and unread) mailbox — harmless, the EOF protocol has
// already completed by then.
func (f *Fabric) ReleasePrefix(prefix string) {
	if prefix == "" {
		return
	}
	f.mu.Lock()
	eps := make([]*inprocEndpoint, 0, len(f.endpoints))
	for _, e := range f.endpoints {
		eps = append(eps, e)
	}
	f.mu.Unlock()
	for _, e := range eps {
		e.mu.Lock()
		for ch := range e.boxes {
			if len(ch) >= len(prefix) && ch[:len(prefix)] == prefix {
				delete(e.boxes, ch)
			}
		}
		e.mu.Unlock()
	}
}

// Mailboxes returns how many mailboxes the fabric holds. Every per-query and
// per-transaction channel is released by its owner, so on an idle cluster
// this does not grow with the statements run.
func (f *Fabric) Mailboxes() (n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.endpoints {
		e.mu.Lock()
		n += len(e.boxes)
		e.mu.Unlock()
	}
	return n
}

// CloseAll shuts every endpoint.
func (f *Fabric) CloseAll() {
	f.mu.Lock()
	eps := make([]*inprocEndpoint, 0, len(f.endpoints))
	for _, e := range f.endpoints {
		eps = append(eps, e)
	}
	f.mu.Unlock()
	for _, e := range eps {
		e.Close()
	}
}

type inprocEndpoint struct {
	id     int
	fabric *Fabric
	mu     sync.Mutex
	boxes  map[string]chan Message
	closed chan struct{}
	once   sync.Once
}

func (e *inprocEndpoint) NodeID() int { return e.id }

func (e *inprocEndpoint) box(channel string) chan Message {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.boxes[channel]
	if !ok {
		b = make(chan Message, e.fabric.mailboxCap)
		e.boxes[channel] = b
	}
	return b
}

func (e *inprocEndpoint) Send(to, dest int, channel string, payload []byte) error {
	e.fabric.mu.Lock()
	target, ok := e.fabric.endpoints[to]
	e.fabric.mu.Unlock()
	if !ok {
		return fmt.Errorf("network: send to unknown node %d", to)
	}
	select {
	case <-e.closed:
		return ErrClosed
	default:
	}
	e.fabric.meter.record(e.id, to, channel, len(payload))
	msg := Message{From: e.id, Dest: dest, Channel: channel, Payload: payload}
	select {
	case target.box(channel) <- msg:
		return nil
	case <-target.closed:
		return ErrClosed
	case <-e.closed:
		return ErrClosed
	}
}

func (e *inprocEndpoint) Recv(channel string) (Message, error) {
	select {
	case msg := <-e.box(channel):
		return msg, nil
	case <-e.closed:
		// Drain anything already delivered before reporting closure.
		select {
		case msg := <-e.box(channel):
			return msg, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

func (e *inprocEndpoint) Close() error {
	e.once.Do(func() { close(e.closed) })
	return nil
}
