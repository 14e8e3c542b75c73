package network

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCPEndpoint implements Endpoint over real sockets for multi-process
// deployments (cmd/hrdbms-server). Frames are length-prefixed:
//
//	uint32 frameLen | int32 from | int32 dest | uint16 chanLen | channel | payload
//
// Outbound connections are dialed lazily and cached; inbound frames are
// demultiplexed into the same per-channel mailboxes as the in-process
// fabric's, released the same way (ReleasePrefix).
type TCPEndpoint struct {
	mailboxes
	id       int
	listener net.Listener
	peers    map[int]string // node ID → address
	mu       sync.Mutex
	conns    map[int]net.Conn
	wg       sync.WaitGroup
}

// NewTCPEndpoint binds addr for node id and starts accepting frames.
// peers maps every node ID (including self) to its dialable address.
func NewTCPEndpoint(id int, addr string, peers map[int]string) (*TCPEndpoint, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		id:       id,
		listener: l,
		peers:    peers,
		conns:    map[int]net.Conn{},
	}
	e.init(1024)
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the bound listen address (useful with ":0").
func (e *TCPEndpoint) Addr() string { return e.listener.Addr().String() }

// NodeID returns this endpoint's node ID.
func (e *TCPEndpoint) NodeID() int { return e.id }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		frameLen := binary.LittleEndian.Uint32(hdr[:])
		if frameLen < 10 || frameLen > 1<<30 {
			return
		}
		frame := make([]byte, frameLen)
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		from := int(int32(binary.LittleEndian.Uint32(frame[0:])))
		dest := int(int32(binary.LittleEndian.Uint32(frame[4:])))
		chanLen := int(binary.LittleEndian.Uint16(frame[8:]))
		if 10+chanLen > len(frame) {
			return
		}
		channel := string(frame[10 : 10+chanLen])
		payload := frame[10+chanLen:]
		if e.deliver(Message{From: from, Dest: dest, Channel: channel, Payload: payload}, nil) != nil {
			return
		}
	}
}

func (e *TCPEndpoint) conn(to int) (net.Conn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[to]; ok {
		return c, nil
	}
	addr, ok := e.peers[to]
	if !ok {
		return nil, fmt.Errorf("network: no address for node %d", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: dial node %d (%s): %w", to, addr, err)
	}
	e.conns[to] = c
	return c, nil
}

// Send frames and writes the message to the peer, dialing on first use.
func (e *TCPEndpoint) Send(to, dest int, channel string, payload []byte) error {
	select {
	case <-e.closed:
		return ErrClosed
	default:
	}
	c, err := e.conn(to)
	if err != nil {
		return err
	}
	frame := make([]byte, 0, 14+len(channel)+len(payload))
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(10+len(channel)+len(payload)))
	frame = append(frame, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(int32(e.id)))
	frame = append(frame, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(int32(dest)))
	frame = append(frame, b4[:]...)
	var b2 [2]byte
	binary.LittleEndian.PutUint16(b2[:], uint16(len(channel)))
	frame = append(frame, b2[:]...)
	frame = append(frame, channel...)
	frame = append(frame, payload...)

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := c.Write(frame); err != nil {
		delete(e.conns, to)
		c.Close()
		return fmt.Errorf("network: write to node %d: %w", to, err)
	}
	return nil
}

// Close shuts the listener and all connections.
func (e *TCPEndpoint) Close() error {
	if !e.shut() {
		return nil
	}
	e.listener.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = map[int]net.Conn{}
	e.mu.Unlock()
	return nil
}
