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
// transaction that named it is over. Without the release every query and
// every 2PC transaction would leave its mailboxes — 57 KB of pointers each at
// 1,024 slots — for the endpoint's lifetime. A straggling send after the
// release recreates an empty mailbox that nothing reads; by then the
// protocol it belonged to has completed.
type mailboxes struct {
	size   int // slots per mailbox: how far a sender runs ahead of its reader
	closed chan struct{}
	once   sync.Once

	mu    sync.Mutex
	boxes map[string]chan Message
}

func (m *mailboxes) init(size int) {
	m.size = size
	m.closed = make(chan struct{})
	m.boxes = map[string]chan Message{}
}

func (m *mailboxes) box(channel string) chan Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.boxes[channel]
	if !ok {
		b = make(chan Message, m.size)
		m.boxes[channel] = b
	}
	return b
}

// deliver puts msg in its channel's mailbox, blocking while the mailbox is
// full, until this endpoint closes or sender (nil: never) does.
func (m *mailboxes) deliver(msg Message, sender <-chan struct{}) error {
	select {
	case m.box(msg.Channel) <- msg:
		return nil
	case <-m.closed:
		return ErrClosed
	case <-sender:
		return ErrClosed
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
	b := m.box(channel)
	select {
	case msg := <-b:
		return msg, nil
	case <-timeout:
		return Message{}, fmt.Errorf("%w on %s", ErrTimeout, channel)
	case <-m.closed:
		// Drain anything already delivered before reporting closure.
		select {
		case msg := <-b:
			return msg, nil
		default:
			return Message{}, ErrClosed
		}
	}
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
