package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestFabricSendRecv(t *testing.T) {
	f := NewFabric([]int{0, 1, 2}, 16)
	defer f.CloseAll()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)

	if err := e0.Send(1, 1, "ch", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, err := e1.Recv("ch")
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 0 || msg.Dest != 1 || string(msg.Payload) != "hello" {
		t.Errorf("msg = %+v", msg)
	}
}

func TestFabricChannelsIsolated(t *testing.T) {
	f := NewFabric([]int{0, 1}, 16)
	defer f.CloseAll()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)
	e0.Send(1, 1, "a", []byte("on-a"))
	e0.Send(1, 1, "b", []byte("on-b"))
	mb, _ := e1.Recv("b")
	ma, _ := e1.Recv("a")
	if string(mb.Payload) != "on-b" || string(ma.Payload) != "on-a" {
		t.Errorf("channel isolation broken: %q %q", mb.Payload, ma.Payload)
	}
}

func TestFabricUnknownNode(t *testing.T) {
	f := NewFabric([]int{0}, 4)
	defer f.CloseAll()
	e0, _ := f.Endpoint(0)
	if err := e0.Send(99, 99, "ch", nil); err == nil {
		t.Error("send to unknown node should fail")
	}
	if _, err := f.Endpoint(99); err == nil {
		t.Error("unknown endpoint should fail")
	}
}

func TestFabricCloseUnblocksRecv(t *testing.T) {
	f := NewFabric([]int{0}, 4)
	e0, _ := f.Endpoint(0)
	done := make(chan error, 1)
	go func() {
		_, err := e0.Recv("ch")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e0.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("recv after close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestFabricDrainAfterClose(t *testing.T) {
	f := NewFabric([]int{0, 1}, 4)
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)
	e0.Send(1, 1, "ch", []byte("x"))
	e1.Close()
	msg, err := e1.Recv("ch")
	if err != nil || string(msg.Payload) != "x" {
		t.Errorf("delivered message lost on close: %v %v", msg, err)
	}
	if _, err := e1.Recv("ch"); err != ErrClosed {
		t.Errorf("empty mailbox after close should report closed, got %v", err)
	}
}

func TestFabricBackpressure(t *testing.T) {
	f := NewFabric([]int{0, 1}, 1)
	defer f.CloseAll()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)
	e0.Send(1, 1, "ch", []byte("1"))
	sent := make(chan struct{})
	go func() {
		e0.Send(1, 1, "ch", []byte("2")) // blocks until consumer reads
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("second send should block on full mailbox")
	case <-time.After(30 * time.Millisecond):
	}
	e1.Recv("ch")
	select {
	case <-sent:
	case <-time.After(2 * time.Second):
		t.Fatal("send never unblocked")
	}
}

func TestMeterAccounting(t *testing.T) {
	f := NewFabric([]int{0, 1, 2}, 16)
	defer f.CloseAll()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)
	e0.Send(1, 1, "ch", make([]byte, 100))
	e0.Send(1, 1, "ch", make([]byte, 50))
	e0.Send(2, 2, "ch", make([]byte, 25))
	e1.Send(0, 0, "ch", make([]byte, 10))

	m := f.Meter()
	if m.TotalBytes() != 185 {
		t.Errorf("bytes = %d", m.TotalBytes())
	}
	if m.TotalMessages() != 4 {
		t.Errorf("messages = %d", m.TotalMessages())
	}
	if m.Connections() != 3 {
		t.Errorf("connections = %d (0->1, 0->2, 1->0)", m.Connections())
	}
	// Node 0 talked with 1 and 2; nodes 1,2 each only with 0.
	if m.MaxNodeDegree() != 2 {
		t.Errorf("max degree = %d", m.MaxNodeDegree())
	}
	if l := m.links[[2]int{0, 1}]; l == nil || l.Bytes != 150 {
		t.Errorf("link 0->1 = %+v, want 150 bytes", l)
	}
}

func TestMeterScope(t *testing.T) {
	f := NewFabric([]int{0, 1, 2}, 16)
	defer f.CloseAll()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)

	s1 := f.Meter().Scope("q1.")
	s2 := f.Meter().Scope("q2.")
	defer s2.Close()

	e0.Send(1, 1, "q1.shuffle0", make([]byte, 100))
	e0.Send(2, 2, "q2.shuffle0", make([]byte, 40))
	e1.Send(0, 0, "q1.gather0", make([]byte, 7))
	e0.Send(1, 1, "ctl", make([]byte, 1000)) // matches no scope

	if s1.TotalBytes() != 107 || s1.TotalMessages() != 2 {
		t.Errorf("scope1 = %dB/%d msgs", s1.TotalBytes(), s1.TotalMessages())
	}
	if s1.Connections() != 2 || s1.MaxNodeDegree() != 1 {
		t.Errorf("scope1 links = %d degree = %d", s1.Connections(), s1.MaxNodeDegree())
	}
	if s2.TotalBytes() != 40 {
		t.Errorf("scope2 = %dB", s2.TotalBytes())
	}
	// Sub-query prefix joins an existing scope.
	s1.AddPrefix("q3.")
	e0.Send(1, 1, "q3.sub", make([]byte, 5))
	if s1.TotalBytes() != 112 {
		t.Errorf("scope1 after AddPrefix = %dB", s1.TotalBytes())
	}
	// After Close traffic no longer accrues but totals stay readable.
	s1.Close()
	e0.Send(1, 1, "q1.late", make([]byte, 99))
	if s1.TotalBytes() != 112 {
		t.Errorf("closed scope accrued traffic: %dB", s1.TotalBytes())
	}
	// A scope opened later sees only traffic sent after it opened, however
	// much the cumulative meter already holds.
	s3 := f.Meter().Scope("q2.")
	defer s3.Close()
	e0.Send(2, 2, "q2.shuffle1", make([]byte, 3))
	if s3.TotalBytes() != 3 || s2.TotalBytes() != 43 {
		t.Errorf("late scope = %dB (want 3), scope2 = %dB (want 43)", s3.TotalBytes(), s2.TotalBytes())
	}
	// Nil scope is inert (disabled-metering fast path).
	var nilScope *MeterScope
	nilScope.AddPrefix("x")
	nilScope.Close()
	if nilScope.TotalBytes() != 0 || nilScope.Connections() != 0 || nilScope.MaxNodeDegree() != 0 {
		t.Error("nil scope must read zero")
	}
}

// TestTCPRefusesOversizedFrame: a length prefix beyond the 1<<30 ceiling —
// bit 31 set, as a sender that compressed its payload would write it — ends
// that connection without delivering anything, and the endpoint keeps
// serving well-formed frames from others.
func TestTCPRefusesOversizedFrame(t *testing.T) {
	peers := map[int]string{}
	e0, err := NewTCPEndpoint(0, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	e1, err := NewTCPEndpoint(1, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	peers[0] = e0.Addr()
	peers[1] = e1.Addr()

	raw, err := net.Dial("tcp", e1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame := binary.LittleEndian.AppendUint32(nil, 12|1<<31)
	frame = append(frame, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 'c', 'h')
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// EOF or a reset, depending on whether the reader had unread bytes.
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("reader kept the connection after a bit-31 length prefix: %v", err)
	}
	if err := e0.Send(1, 1, "ch", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	msg, err := e1.Recv("ch")
	if err != nil || msg.From != 0 || string(msg.Payload) != "ok" {
		t.Fatalf("first delivery on ch = %+v, %v; want the well-formed frame from node 0", msg, err)
	}
}

func TestFabricConcurrentTraffic(t *testing.T) {
	const n = 8
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	f := NewFabric(ids, 64)
	defer f.CloseAll()

	var wg sync.WaitGroup
	recvCounts := make([]int, n)
	// Receivers: each expects n-1 messages.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _ := f.Endpoint(i)
			for j := 0; j < n-1; j++ {
				if _, err := e.Recv("all"); err != nil {
					t.Errorf("node %d recv: %v", i, err)
					return
				}
				recvCounts[i]++
			}
		}(i)
	}
	// Senders: everyone sends to everyone else.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _ := f.Endpoint(i)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if err := e.Send(j, j, "all", []byte{byte(i)}); err != nil {
					t.Errorf("node %d send: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, c := range recvCounts {
		if c != n-1 {
			t.Errorf("node %d received %d", i, c)
		}
	}
	if f.Meter().Connections() != n*(n-1) {
		t.Errorf("connections = %d, want %d", f.Meter().Connections(), n*(n-1))
	}
}

func TestTCPEndpointRoundTrip(t *testing.T) {
	peers := map[int]string{}
	e0, err := NewTCPEndpoint(0, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	e1, err := NewTCPEndpoint(1, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	peers[0] = e0.Addr()
	peers[1] = e1.Addr()

	if err := e0.Send(1, 1, "query", []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	msg, err := e1.Recv("query")
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 0 || string(msg.Payload) != "SELECT 1" {
		t.Errorf("msg = %+v", msg)
	}
	// Reply on another channel.
	if err := e1.Send(0, 0, "result", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	reply, err := e0.Recv("result")
	if err != nil || string(reply.Payload) != "ok" {
		t.Errorf("reply = %+v err=%v", reply, err)
	}
}

func TestTCPEndpointManyMessages(t *testing.T) {
	peers := map[int]string{}
	e0, _ := NewTCPEndpoint(0, "127.0.0.1:0", peers)
	defer e0.Close()
	e1, _ := NewTCPEndpoint(1, "127.0.0.1:0", peers)
	defer e1.Close()
	peers[0] = e0.Addr()
	peers[1] = e1.Addr()

	const count = 500
	go func() {
		for i := 0; i < count; i++ {
			e0.Send(1, 1, "bulk", []byte(fmt.Sprintf("m%04d", i)))
		}
	}()
	for i := 0; i < count; i++ {
		msg, err := e1.Recv("bulk")
		if err != nil {
			t.Fatal(err)
		}
		if string(msg.Payload) != fmt.Sprintf("m%04d", i) {
			t.Fatalf("message %d out of order: %q", i, msg.Payload)
		}
	}
}

func TestTCPSendUnknownPeer(t *testing.T) {
	e0, _ := NewTCPEndpoint(0, "127.0.0.1:0", map[int]string{})
	defer e0.Close()
	if err := e0.Send(5, 5, "x", nil); err == nil {
		t.Error("send to unknown peer should fail")
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	e0, _ := NewTCPEndpoint(0, "127.0.0.1:0", map[int]string{})
	done := make(chan error, 1)
	go func() {
		_, err := e0.Recv("never")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e0.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("recv = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}
