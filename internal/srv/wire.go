package srv

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
)

// ErrQueryTooLarge rejects a statement line longer than MaxQueryBytes. The
// oversized line is consumed and discarded, so the connection keeps
// working.
var ErrQueryTooLarge = errors.New("srv: query too large")

// writeErrLine best-effort writes one protocol error line.
func writeErrLine(w io.Writer, err error) error {
	_, werr := fmt.Fprintf(w, "ERR %v\n", err)
	return werr
}

// readLine reads one '\n'-terminated line whose statement — the line
// without its "\n" or "\r\n" terminator — is at most max bytes, and
// returns the statement. A longer line is consumed to its end and reported
// as too long rather than a connection-fatal error.
func readLine(r *bufio.Reader, max int) (line string, tooLong bool, err error) {
	var buf []byte
	for {
		chunk, err := r.ReadSlice('\n')
		buf = append(buf, chunk...)
		switch {
		case err == nil:
			stmt := statement(buf)
			if len(stmt) > max {
				return "", true, nil
			}
			return string(stmt), false, nil
		case errors.Is(err, bufio.ErrBufferFull):
			// A last '\r' may be half of the terminator; a byte more than
			// that is over budget whatever follows.
			if len(buf)-1 > max {
				// Over budget already: discard the rest of the line, then
				// report oversized with the connection intact.
				for {
					_, derr := r.ReadSlice('\n')
					switch {
					case derr == nil:
						return "", true, nil
					case errors.Is(derr, io.EOF):
						return "", true, derr
					case !errors.Is(derr, bufio.ErrBufferFull):
						return "", false, derr
					}
				}
			}
		default:
			if len(buf) > 0 && errors.Is(err, io.EOF) {
				// Final unterminated line.
				stmt := statement(buf)
				if len(stmt) > max {
					return "", true, io.EOF
				}
				return string(stmt), false, nil
			}
			return "", false, err
		}
	}
}

// statement is line without its "\n" or "\r\n" terminator.
func statement(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r"))
}

// ServeConn runs the line protocol on one connection: one statement per
// line in, result rows then an "OK ..." or "ERR ..." line out. It owns the
// connection's session and closes both when the client goes away, the idle
// timeout fires, or the server drains.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	sess, err := s.sessions.Open()
	if err != nil {
		_ = writeErrLine(conn, err)
		return
	}
	defer s.sessions.Close(sess)

	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriter(conn)
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		line, tooLong, err := readLine(r, s.cfg.MaxQueryBytes)
		if err != nil {
			return // EOF, idle timeout, or closed during drain
		}
		if tooLong {
			if s.reg != nil {
				s.reg.Counter("srv.rejected.oversized").Inc()
			}
			_ = writeErrLine(w, fmt.Errorf("%w (max %d bytes)", ErrQueryTooLarge, s.cfg.MaxQueryBytes))
			_ = w.Flush()
			continue
		}
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ";"))
		if stmt == "" {
			continue
		}
		s.dispatch(sess, w, stmt)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch executes one protocol statement and writes its response.
func (s *Server) dispatch(sess *Session, w *bufio.Writer, stmt string) {
	upper := strings.ToUpper(stmt)
	switch {
	case strings.HasPrefix(upper, "KILL "):
		s.cmdKill(w, stmt)
	case strings.HasPrefix(upper, "PREPARE "):
		s.cmdPrepare(sess, w, stmt)
	case strings.HasPrefix(upper, "EXECUTE "):
		name := strings.TrimSpace(stmt[len("EXECUTE "):])
		p, ok := sess.Lookup(name)
		if !ok {
			_ = writeErrLine(w, fmt.Errorf("srv: no prepared statement %q", name))
			return
		}
		s.runAndReply(sess, w, func(opts *cluster.QueryOptions) (*cluster.Result, error) {
			return s.be.ExecPrepared(p, opts)
		})
	case strings.HasPrefix(upper, "SET "):
		s.cmdSet(sess, w, stmt)
	case upper == "SHOW SESSIONS":
		s.cmdShowSessions(w)
	case upper == "SHOW QUERIES":
		s.cmdShowQueries(w)
	default:
		s.runAndReply(sess, w, func(opts *cluster.QueryOptions) (*cluster.Result, error) {
			return s.be.ExecSQLOpts(stmt, opts)
		})
	}
}

// runAndReply is the admission-controlled query path shared by plain SQL
// and EXECUTE: mark the session active, wait for a slot, run with the
// grant's kill switch and the session's settings threaded through, release
// the slot, account, reply.
func (s *Server) runAndReply(sess *Session, w *bufio.Writer, run func(*cluster.QueryOptions) (*cluster.Result, error)) {
	res, wait, err := s.RunQuery(sess, run)
	if err != nil {
		if s.reg != nil {
			s.reg.Counter("srv.queries.failed").Inc()
		}
		_ = writeErrLine(w, err)
		return
	}
	for _, r := range res.Rows {
		fmt.Fprintln(w, r.String())
	}
	if res.Message != "" {
		fmt.Fprintf(w, "OK %s\n", res.Message)
	} else {
		fmt.Fprintf(w, "OK %d rows\n", len(res.Rows))
	}
	_ = wait
}

// RunQuery executes one statement for a session through admission control.
// It is the programmatic equivalent of sending SQL on the wire (the bench
// harness and tests drive it directly).
func (s *Server) RunQuery(sess *Session, run func(*cluster.QueryOptions) (*cluster.Result, error)) (*cluster.Result, time.Duration, error) {
	if sess.State() == SessionDraining {
		if s.reg != nil {
			s.reg.Counter("srv.rejected.draining").Inc()
		}
		return nil, 0, ErrDraining
	}
	sess.setState(SessionActive)
	defer sess.setState(SessionIdle)
	g, err := s.adm.Admit(sess.ID)
	if err != nil {
		return nil, 0, err
	}
	defer s.adm.Release(g)
	opts := sess.Options()
	opts.Cancel = g.Cancel
	opts.QueueWait = g.QueueWait
	res, err := run(&opts)
	if err != nil {
		// A fired kill switch wins over whatever error it surfaced as.
		if kerr := g.Cancel.Err(); kerr != nil {
			err = kerr
		}
		return nil, g.QueueWait, err
	}
	sess.account(len(res.Rows), g.QueueWait)
	if s.reg != nil {
		s.reg.Counter("srv.queries").Inc()
	}
	return res, g.QueueWait, nil
}

func (s *Server) cmdKill(w *bufio.Writer, stmt string) {
	qid, err := strconv.ParseUint(strings.TrimSpace(stmt[len("KILL "):]), 10, 64)
	if err != nil {
		_ = writeErrLine(w, fmt.Errorf("srv: KILL wants a query id: %v", err))
		return
	}
	if err := s.adm.Kill(qid); err != nil {
		_ = writeErrLine(w, err)
		return
	}
	fmt.Fprintf(w, "OK killed %d\n", qid)
}

func (s *Server) cmdPrepare(sess *Session, w *bufio.Writer, stmt string) {
	rest := stmt[len("PREPARE "):]
	idx := strings.Index(strings.ToUpper(rest), " AS ")
	if idx < 0 {
		_ = writeErrLine(w, fmt.Errorf("srv: PREPARE wants: PREPARE <name> AS <sql>"))
		return
	}
	name := strings.TrimSpace(rest[:idx])
	sql := strings.TrimSpace(rest[idx+len(" AS "):])
	if name == "" || sql == "" {
		_ = writeErrLine(w, fmt.Errorf("srv: PREPARE wants: PREPARE <name> AS <sql>"))
		return
	}
	p, err := s.be.Prepare(sql)
	if err != nil {
		_ = writeErrLine(w, err)
		return
	}
	sess.Prepare(name, p)
	fmt.Fprintf(w, "OK prepared %s\n", name)
}

func (s *Server) cmdSet(sess *Session, w *bufio.Writer, stmt string) {
	rest := strings.TrimSpace(stmt[len("SET "):])
	rest = strings.ReplaceAll(rest, "=", " ")
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		_ = writeErrLine(w, fmt.Errorf("srv: SET wants: SET <batchrows|parallel> <value>"))
		return
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil {
		_ = writeErrLine(w, fmt.Errorf("srv: SET %s: %v", fields[0], err))
		return
	}
	if err := sess.Set(strings.ToLower(fields[0]), v); err != nil {
		_ = writeErrLine(w, err)
		return
	}
	fmt.Fprintf(w, "OK set %s %d\n", strings.ToLower(fields[0]), v)
}

func (s *Server) cmdShowSessions(w *bufio.Writer) {
	list := s.sessions.List()
	for _, sess := range list {
		q, rows, wait := sess.Stats()
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%.3fms\n",
			sess.ID, sess.State(), q, rows, float64(wait.Nanoseconds())/1e6)
	}
	fmt.Fprintf(w, "OK %d sessions\n", len(list))
}

func (s *Server) cmdShowQueries(w *bufio.Writer) {
	ids := s.adm.Running()
	for _, id := range ids {
		fmt.Fprintf(w, "%d\n", id)
	}
	fmt.Fprintf(w, "OK %d queries\n", len(ids))
}
