package network

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// ErrTimeout is wrapped by RecvTimeout's error when nothing arrived in time.
var ErrTimeout = errors.New("network: receive timed out")

// mailboxes is one endpoint's receive side, the same for both transports: a
// bounded mailbox per channel name, made on first use by whichever of sender
// and receiver comes first, and dropped by name prefix once the query or
// transaction that named it is over. A mailbox's storage grows with the
// messages it holds, up to the bound, so one that carries two messages costs
// two slots, not the bound's; an empty one holds none. Without the release
// every query and every 2PC transaction would still leave its mailboxes for
// the endpoint's lifetime. A straggling send after the release recreates an
// empty mailbox that nothing reads; by then the protocol it belonged to has
// completed.
type mailboxes struct {
	size   int // messages per mailbox: how far a sender runs ahead of its reader
	closed chan struct{}
	once   sync.Once

	mu    sync.Mutex
	boxes map[string]*mailbox
}

// mailbox is one channel's FIFO queue, a ring guarded by mailboxes.mu. The
// two wake-up channels hold at most one token each: one is posted when a
// message is queued (ready) and when one is taken (room). A woken waiter
// checks again under the lock, and passes the wake-up on when what it waited
// for is still there for the next one — messages after a take, room after a
// put — so every blocked receiver, and every blocked sender, is woken in
// turn. A token nobody was waiting for costs a later waiter one extra check.
type mailbox struct {
	ring  []Message // nil until the first message; grows by doubling
	head  int       // ring index of the oldest message
	n     int       // messages queued
	ready chan struct{}
	room  chan struct{}
}

func (m *mailboxes) init(size int) {
	m.size = size
	m.closed = make(chan struct{})
	m.boxes = map[string]*mailbox{}
}

// box returns channel's mailbox, making it on first use. Caller holds m.mu.
func (m *mailboxes) box(channel string) *mailbox {
	b, ok := m.boxes[channel]
	if !ok {
		b = &mailbox{ready: make(chan struct{}, 1), room: make(chan struct{}, 1)}
		m.boxes[channel] = b
	}
	return b
}

// wake posts a token on c unless one is already waiting there.
func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// put queues msg at the tail, growing the ring when it is full.
func (b *mailbox) put(msg Message) {
	if b.n == len(b.ring) {
		grown := make([]Message, max(2*len(b.ring), 1))
		k := copy(grown, b.ring[b.head:])
		copy(grown[k:], b.ring[:b.head])
		b.ring, b.head = grown, 0
	}
	b.ring[(b.head+b.n)%len(b.ring)] = msg
	b.n++
}

// take removes the head message; the mailbox holds one.
func (b *mailbox) take() Message {
	msg := b.ring[b.head]
	b.ring[b.head] = Message{} // the payload goes with its receiver
	b.head = (b.head + 1) % len(b.ring)
	b.n--
	return msg
}

// deliver puts msg in its channel's mailbox, blocking while the mailbox holds
// the bound, until this endpoint closes or sender (nil: never) does.
func (m *mailboxes) deliver(msg Message, sender <-chan struct{}) error {
	for {
		select {
		case <-m.closed:
			return ErrClosed
		default:
		}
		m.mu.Lock()
		b := m.box(msg.Channel)
		if b.n < m.size {
			b.put(msg)
			more := b.n < m.size
			m.mu.Unlock()
			wake(b.ready)
			if more {
				wake(b.room)
			}
			return nil
		}
		m.mu.Unlock()
		select {
		case <-b.room:
		case <-m.closed:
			return ErrClosed
		case <-sender:
			return ErrClosed
		}
	}
}

// Recv blocks until a message arrives on channel or the endpoint closes.
func (m *mailboxes) Recv(channel string) (Message, error) {
	return m.recv(channel, nil)
}

// RecvTimeout is Recv giving up after d, with an error wrapping ErrTimeout.
// Nothing is left waiting on the channel: a message that arrives later stays
// in the mailbox for the next receive, or goes with its release.
func (m *mailboxes) RecvTimeout(channel string, d time.Duration) (Message, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	return m.recv(channel, timer.C)
}

func (m *mailboxes) recv(channel string, timeout <-chan time.Time) (Message, error) {
	m.mu.Lock()
	b := m.box(channel)
	m.mu.Unlock()
	for {
		if msg, ok := m.tryTake(b); ok {
			return msg, nil
		}
		select {
		case <-b.ready:
		case <-timeout:
			return Message{}, fmt.Errorf("%w on %s", ErrTimeout, channel)
		case <-m.closed:
			// Drain anything already delivered before reporting closure.
			if msg, ok := m.tryTake(b); ok {
				return msg, nil
			}
			return Message{}, ErrClosed
		}
	}
}

// tryTake takes b's head message if it holds one, waking the next receiver
// when messages remain and a sender, since there is room now.
func (m *mailboxes) tryTake(b *mailbox) (Message, bool) {
	m.mu.Lock()
	if b.n == 0 {
		m.mu.Unlock()
		return Message{}, false
	}
	msg := b.take()
	more := b.n > 0
	m.mu.Unlock()
	wake(b.room)
	if more {
		wake(b.ready)
	}
	return msg, true
}

// ReleasePrefix drops every mailbox whose channel name starts with prefix.
func (m *mailboxes) ReleasePrefix(prefix string) {
	if prefix == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for ch := range m.boxes {
		if strings.HasPrefix(ch, prefix) {
			delete(m.boxes, ch)
		}
	}
}

// Mailboxes returns how many mailboxes the endpoint holds.
func (m *mailboxes) Mailboxes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.boxes)
}

// shut marks the endpoint closed, waking every blocked Recv and deliver; it
// reports whether this call did it.
func (m *mailboxes) shut() (first bool) {
	m.once.Do(func() {
		close(m.closed)
		first = true
	})
	return first
}
