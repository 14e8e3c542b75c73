package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// mailboxCaps are the bounds the mailbox tests run at: one message, a few,
// and the default.
var mailboxCaps = []int{1, 4, 1024}

// forEachCap runs fn on a two-node fabric at each of mailboxCaps.
func forEachCap(t *testing.T, fn func(t *testing.T, capacity int, from, to Endpoint, f *Fabric)) {
	for _, capacity := range mailboxCaps {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			f := NewFabric([]int{0, 1}, capacity)
			t.Cleanup(f.CloseAll)
			e0, _ := f.Endpoint(0)
			e1, _ := f.Endpoint(1)
			fn(t, capacity, e0, e1, f)
		})
	}
}

// seqPayload encodes (sender, seq) as a message payload.
func seqPayload(sender, seq int) []byte {
	var p [8]byte
	binary.LittleEndian.PutUint32(p[0:], uint32(sender))
	binary.LittleEndian.PutUint32(p[4:], uint32(seq))
	return p[:]
}

func readSeq(p []byte) (sender, seq int) {
	return int(binary.LittleEndian.Uint32(p[0:])), int(binary.LittleEndian.Uint32(p[4:]))
}

// TestMailboxSenderBlocksAtBound: a sender blocks once the mailbox holds the
// bound and resumes after one receive; the messages come out in order.
func TestMailboxSenderBlocksAtBound(t *testing.T) {
	forEachCap(t, func(t *testing.T, capacity int, from, to Endpoint, _ *Fabric) {
		for i := 0; i < capacity; i++ {
			if err := from.Send(1, 1, "ch", seqPayload(0, i)); err != nil {
				t.Fatal(err)
			}
		}
		sent := make(chan error, 1)
		go func() { sent <- from.Send(1, 1, "ch", seqPayload(0, capacity)) }()
		select {
		case err := <-sent:
			t.Fatalf("a send past the bound of %d returned (%v) instead of blocking", capacity, err)
		case <-time.After(30 * time.Millisecond):
		}
		m, err := to.Recv("ch")
		if err != nil {
			t.Fatal(err)
		}
		if _, seq := readSeq(m.Payload); seq != 0 {
			t.Fatalf("first receive got message %d, want 0", seq)
		}
		select {
		case err := <-sent:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the blocked send did not resume after a receive")
		}
		for i := 1; i <= capacity; i++ {
			m, err := to.Recv("ch")
			if err != nil {
				t.Fatal(err)
			}
			if _, seq := readSeq(m.Payload); seq != i {
				t.Fatalf("receive %d got message %d", i, seq)
			}
		}
	})
}

// TestMailboxManySendersAndReceivers: 8 senders on one channel deliver every
// message, and each sender's messages come out in the order it sent them, to
// one receiver and to two.
func TestMailboxManySendersAndReceivers(t *testing.T) {
	const senders, each = 8, 300
	for _, receivers := range []int{1, 2} {
		t.Run(fmt.Sprintf("receivers%d", receivers), func(t *testing.T) {
			forEachCap(t, func(t *testing.T, _ int, from, to Endpoint, _ *Fabric) {
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for i := 0; i < each; i++ {
							if err := from.Send(1, 1, "ch", seqPayload(s, i)); err != nil {
								t.Error(err)
								return
							}
						}
					}(s)
				}
				got := make([][]int, receivers) // by receiver: how many of each sender's it saw
				errs := make(chan error, receivers)
				var rg sync.WaitGroup
				total := senders * each
				share := total / receivers
				for r := 0; r < receivers; r++ {
					rg.Add(1)
					go func(r int) {
						defer rg.Done()
						next := make([]int, senders) // the sequence number each sender's next message must exceed
						for s := range next {
							next[s] = -1
						}
						seen := make([]int, senders)
						for k := 0; k < share; k++ {
							m, err := to.RecvTimeout("ch", 10*time.Second)
							if err != nil {
								errs <- err
								return
							}
							s, seq := readSeq(m.Payload)
							if seq <= next[s] {
								errs <- fmt.Errorf("receiver %d: sender %d's message %d after its %d", r, s, seq, next[s])
								return
							}
							next[s] = seq
							seen[s]++
						}
						got[r] = seen
					}(r)
				}
				wg.Wait()
				rg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				for s := 0; s < senders; s++ {
					n := 0
					for r := range got {
						n += got[r][s]
					}
					if n != each {
						t.Fatalf("sender %d: %d messages received, want %d", s, n, each)
					}
				}
			})
		})
	}
}

// TestMailboxRecvTimeoutLeavesLaterMessage: a receive on an empty mailbox
// times out, and a message that arrives after it is the next receive's.
func TestMailboxRecvTimeoutLeavesLaterMessage(t *testing.T) {
	forEachCap(t, func(t *testing.T, _ int, from, to Endpoint, _ *Fabric) {
		if _, err := to.RecvTimeout("ch", 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("RecvTimeout on an empty mailbox = %v, want ErrTimeout", err)
		}
		if err := from.Send(1, 1, "ch", []byte("late")); err != nil {
			t.Fatal(err)
		}
		if m, err := to.Recv("ch"); err != nil || string(m.Payload) != "late" {
			t.Fatalf("Recv after the timeout = %q, %v; want the late message", m.Payload, err)
		}
	})
}

// TestMailboxCloseDrainsThenErrClosed: after close, a receive returns what
// was delivered before it, in order, and then ErrClosed.
func TestMailboxCloseDrainsThenErrClosed(t *testing.T) {
	forEachCap(t, func(t *testing.T, capacity int, from, to Endpoint, _ *Fabric) {
		for i := 0; i < capacity; i++ {
			if err := from.Send(1, 1, "ch", seqPayload(0, i)); err != nil {
				t.Fatal(err)
			}
		}
		to.Close()
		for i := 0; i < capacity; i++ {
			m, err := to.Recv("ch")
			if err != nil {
				t.Fatalf("receive %d after close: %v", i, err)
			}
			if _, seq := readSeq(m.Payload); seq != i {
				t.Fatalf("receive %d after close got message %d", i, seq)
			}
		}
		if _, err := to.Recv("ch"); err != ErrClosed {
			t.Fatalf("receive from a drained, closed mailbox = %v, want ErrClosed", err)
		}
	})
}

// TestMailboxReleasePrefixDropsQueued: releasing a channel's prefix drops
// the messages it still held.
func TestMailboxReleasePrefixDropsQueued(t *testing.T) {
	forEachCap(t, func(t *testing.T, capacity int, from, to Endpoint, f *Fabric) {
		for i := 0; i < capacity; i++ {
			if err := from.Send(1, 1, "q9.gather", seqPayload(0, i)); err != nil {
				t.Fatal(err)
			}
		}
		before := f.Mailboxes()
		f.ReleasePrefix("q9.")
		if n := f.Mailboxes(); n != before-1 {
			t.Fatalf("%d mailboxes after the release, want %d", n, before-1)
		}
		if m, err := to.RecvTimeout("q9.gather", 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("receive after the release = %q, %v; want ErrTimeout", m.Payload, err)
		}
	})
}

// TestMailboxMemoryFollowsContent: a mailbox costs what it carries, not its
// bound — 1,000 mailboxes at the default bound of 1,024 that each carried
// one message allocate under 1 MB in all (a 1,024-slot channel of messages
// would be 57 KB each).
func TestMailboxMemoryFollowsContent(t *testing.T) {
	const boxes = 1000
	var m mailboxes
	m.init(1024)
	names := make([]string, boxes)
	for i := range names {
		names[i] = fmt.Sprintf("q%d.gather", i)
	}
	payload := []byte("x")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ch := range names {
		if err := m.deliver(Message{Channel: ch, Payload: payload}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Recv(ch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("%d mailboxes that each carried one message allocated %d bytes, want under 1 MB", boxes, got)
	}
	if n := m.Mailboxes(); n != boxes {
		t.Fatalf("%d mailboxes, want %d", n, boxes)
	}
}
