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
	"time"
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
	// RecvTimeout is Recv giving up after d, with an error wrapping
	// ErrTimeout; nothing is left waiting on the channel.
	RecvTimeout(channel string, d time.Duration) (Message, error)
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
	mu        sync.Mutex
	endpoints map[int]*inprocEndpoint
	meter     *Meter
}

// NewFabric creates an in-process fabric for the given node IDs.
func NewFabric(nodeIDs []int, mailboxCap int) *Fabric {
	if mailboxCap < 1 {
		mailboxCap = 1024
	}
	f := &Fabric{endpoints: map[int]*inprocEndpoint{}, meter: NewMeter()}
	for _, id := range nodeIDs {
		e := &inprocEndpoint{id: id, fabric: f}
		e.init(mailboxCap)
		f.endpoints[id] = e
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

// all returns the fabric's endpoints.
func (f *Fabric) all() []*inprocEndpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	eps := make([]*inprocEndpoint, 0, len(f.endpoints))
	for _, e := range f.endpoints {
		eps = append(eps, e)
	}
	return eps
}

// ReleasePrefix drops every mailbox whose channel name starts with prefix,
// on every endpoint: a query's "q<qid>." namespace once its loops have
// exited, a transaction's vote and ack channels once it is decided.
func (f *Fabric) ReleasePrefix(prefix string) {
	for _, e := range f.all() {
		e.ReleasePrefix(prefix)
	}
}

// Mailboxes returns how many mailboxes the fabric holds. Every per-query and
// per-transaction channel is released by its owner, so on an idle cluster
// this does not grow with the statements run.
func (f *Fabric) Mailboxes() (n int) {
	for _, e := range f.all() {
		n += e.Mailboxes()
	}
	return n
}

// CloseAll shuts every endpoint.
func (f *Fabric) CloseAll() {
	for _, e := range f.all() {
		e.Close()
	}
}

type inprocEndpoint struct {
	mailboxes
	id     int
	fabric *Fabric
}

func (e *inprocEndpoint) NodeID() int { return e.id }

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
	return target.deliver(Message{From: e.id, Dest: dest, Channel: channel, Payload: payload}, e.closed)
}

func (e *inprocEndpoint) Close() error {
	e.shut()
	return nil
}
