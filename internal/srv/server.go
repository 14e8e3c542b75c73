package srv

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Backend is the execution seam the server drives: the cluster session
// layer, or a stub in tests.
type Backend interface {
	ExecSQLOpts(sql string, opts *cluster.QueryOptions) (*cluster.Result, error)
	Prepare(sql string) (*cluster.Prepared, error)
	ExecPrepared(p *cluster.Prepared, opts *cluster.QueryOptions) (*cluster.Result, error)
}

// Config sizes the serving layer. Zero values select defaults.
type Config struct {
	// MaxConns caps concurrent client sessions (default 256).
	MaxConns int
	// IdleTimeout closes a connection idle between statements for this
	// long (default none).
	IdleTimeout time.Duration
	// MaxQueryBytes bounds one statement line; longer lines answer
	// "ERR query too large" and the connection stays usable (default 4 MiB).
	MaxQueryBytes int
	// DrainTimeout is how long Shutdown waits for in-flight queries before
	// killing them (default 10s).
	DrainTimeout time.Duration
	// Admission sizes the query scheduler.
	Admission AdmissionConfig
}

func (c Config) withDefaults() Config {
	if c.MaxQueryBytes <= 0 {
		c.MaxQueryBytes = 4 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server owns the serving layer: the accept loop, per-connection sessions,
// and the admission scheduler. It replaces the bare accept-and-spawn loop a
// database prototype starts with.
type Server struct {
	be  Backend
	cfg Config
	reg *obs.Registry

	adm      *Admission
	sessions *Sessions

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	listeners map[net.Listener]struct{}
	draining  bool
	handlers  sync.WaitGroup
}

// New builds a server over a backend. reg may be nil.
func New(be Backend, cfg Config, reg *obs.Registry) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		be:        be,
		cfg:       cfg,
		reg:       reg,
		adm:       NewAdmission(cfg.Admission, reg),
		sessions:  NewSessions(cfg.MaxConns, reg),
		conns:     map[net.Conn]struct{}{},
		listeners: map[net.Listener]struct{}{},
	}
}

// Sessions exposes the session manager.
func (s *Server) Sessions() *Sessions { return s.sessions }

// Serve accepts connections until the listener fails permanently or the
// server drains. Per-connection errors never terminate the loop: a failed
// accept is retried with backoff, and a connection beyond the session cap
// is answered with an ERR line and closed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			// Transient accept failure (EMFILE, ECONNABORTED): back off and
			// keep serving the connections we already have.
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff < time.Second {
				backoff *= 2
			}
			if s.reg != nil {
				s.reg.Counter("srv.accept.errors").Inc()
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			_ = writeErrLine(conn, ErrDraining)
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go func(conn net.Conn) {
			defer s.handlers.Done()
			s.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}(conn)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: stop accepting, fail queued queries, let
// running ones finish within DrainTimeout (then kill them), and close every
// connection. Safe to call once; returns nil on a clean drain.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for l := range s.listeners {
		_ = l.Close()
	}
	s.mu.Unlock()

	s.sessions.DrainAll()
	s.adm.Drain()
	clean := s.adm.Quiesce(s.cfg.DrainTimeout)
	if !clean {
		s.adm.KillAll(fmt.Errorf("%w: drain timeout", ErrDraining))
		s.adm.Quiesce(s.cfg.DrainTimeout)
	}

	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.handlers.Wait()
	if !clean {
		return fmt.Errorf("srv: drain timed out after %v; in-flight queries killed", s.cfg.DrainTimeout)
	}
	return nil
}
