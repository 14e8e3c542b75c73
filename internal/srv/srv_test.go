package srv_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/srv"
	"repro/internal/testutil"
	"repro/internal/types"
)

// stubBackend is a controllable Backend: queries optionally announce
// themselves on started and block until release fires (or their kill
// switch does).
type stubBackend struct {
	started chan struct{} // buffered; receives one token per query start
	release chan struct{} // close to let blocked queries finish
}

func (b *stubBackend) run(opts *cluster.QueryOptions) (*cluster.Result, error) {
	if b.started != nil {
		b.started <- struct{}{}
	}
	if b.release != nil {
		var done <-chan struct{}
		if opts != nil {
			done = opts.Cancel.Done()
		}
		select {
		case <-b.release:
		case <-done:
			return nil, opts.Cancel.Err()
		}
	}
	return &cluster.Result{Message: "done"}, nil
}

func (b *stubBackend) ExecSQLOpts(sql string, opts *cluster.QueryOptions) (*cluster.Result, error) {
	return b.run(opts)
}

func (b *stubBackend) Prepare(sql string) (*cluster.Prepared, error) {
	return nil, fmt.Errorf("stub: no prepare")
}

func (b *stubBackend) ExecPrepared(p *cluster.Prepared, opts *cluster.QueryOptions) (*cluster.Result, error) {
	return b.run(opts)
}

// lineClient drives the wire protocol over one connection.
type lineClient struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Reader
}

func newLineClient(t *testing.T, conn net.Conn) *lineClient {
	return &lineClient{t: t, conn: conn, rd: bufio.NewReader(conn)}
}

// send submits one statement and reads lines until OK/ERR.
func (c *lineClient) send(stmt string) []string {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, stmt); err != nil {
		c.t.Fatalf("send %q: %v", stmt, err)
	}
	return c.readReply()
}

func (c *lineClient) readReply() []string {
	c.t.Helper()
	var lines []string
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			c.t.Fatalf("read reply: %v (so far %v)", err, lines)
		}
		line = strings.TrimRight(line, "\n")
		lines = append(lines, line)
		if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
			return lines
		}
	}
}

// TestOversizedQueryKeepsConnection exercises the bounded line reader: a
// statement over MaxQueryBytes answers "query too large" and the
// connection keeps serving.
func TestOversizedQueryKeepsConnection(t *testing.T) {
	reg := obs.NewRegistry()
	s := srv.New(&stubBackend{}, srv.Config{MaxQueryBytes: 4096}, reg)
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(server); close(done) }()
	defer func() { client.Close(); <-done }()

	c := newLineClient(t, client)
	// An 8 KiB statement: double the configured cap.
	go func() {
		// net.Pipe is synchronous; write concurrently with the reply read.
		fmt.Fprintln(client, strings.Repeat("x", 8192))
	}()
	out := c.readReply()
	if len(out) != 1 || !strings.Contains(out[0], "query too large") {
		t.Fatalf("oversized reply: %v", out)
	}
	if got := reg.Counter("srv.rejected.oversized").Value(); got != 1 {
		t.Fatalf("srv.rejected.oversized = %d, want 1", got)
	}
	// The connection must survive and execute the next statement.
	out = c.send("SELECT 1")
	if len(out) != 1 || out[0] != "OK done" {
		t.Fatalf("after oversized: %v", out)
	}
}

// TestQueueFullRejection fills the one-deep admission queue and asserts the
// third query is rejected with the typed error and counted.
func TestQueueFullRejection(t *testing.T) {
	reg := obs.NewRegistry()
	adm := srv.NewAdmission(srv.AdmissionConfig{MaxActive: 1, QueueDepth: 1}, reg)

	g1, err := adm.Admit(1)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		g, err := adm.Admit(2)
		if g != nil {
			adm.Release(g)
		}
		queued <- err
	}()
	waitGauge(t, reg, "srv.queue.depth", 1)

	if _, err := adm.Admit(3); !errors.Is(err, srv.ErrQueueFull) {
		t.Fatalf("third query: got %v, want ErrQueueFull", err)
	}
	if got := reg.Counter("srv.rejected.queue_full").Value(); got != 1 {
		t.Fatalf("srv.rejected.queue_full = %d, want 1", got)
	}

	adm.Release(g1)
	if err := <-queued; err != nil {
		t.Fatalf("queued query should admit after release: %v", err)
	}
}

// TestPerSessionQueueFairness: one session cannot occupy the whole queue —
// its entries cap at QueuePerSession while another session still queues.
func TestPerSessionQueueFairness(t *testing.T) {
	reg := obs.NewRegistry()
	adm := srv.NewAdmission(srv.AdmissionConfig{MaxActive: 1, QueueDepth: 8, QueuePerSession: 1}, reg)
	g1, err := adm.Admit(1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, sess := range []uint64{2, 3} {
		wg.Add(1)
		go func(sess uint64) {
			defer wg.Done()
			g, err := adm.Admit(sess)
			if g != nil {
				adm.Release(g)
			}
			errs <- err
		}(sess)
	}
	waitGauge(t, reg, "srv.queue.depth", 2)
	// Session 2 already holds its fair share: a second entry is rejected
	// even though the queue has room.
	if _, err := adm.Admit(2); !errors.Is(err, srv.ErrQueueFull) {
		t.Fatalf("over-share queue: got %v, want ErrQueueFull", err)
	}
	adm.Release(g1)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("fair-share waiter failed: %v", err)
		}
	}
}

// TestKillQueuedQuery kills a query that was queued but never admitted: its
// Admit call returns the typed kill error, the slot math stays intact, and
// the kill is counted.
func TestKillQueuedQuery(t *testing.T) {
	reg := obs.NewRegistry()
	adm := srv.NewAdmission(srv.AdmissionConfig{MaxActive: 1, QueueDepth: 4}, reg)

	g1, err := adm.Admit(1) // qid 1, running
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := adm.Admit(2) // qid 2, queued behind g1
		queued <- err
	}()
	waitGauge(t, reg, "srv.queue.depth", 1)

	if err := adm.Kill(2); err != nil {
		t.Fatalf("kill queued: %v", err)
	}
	select {
	case err := <-queued:
		if !errors.Is(err, srv.ErrKilled) {
			t.Fatalf("queued admit: got %v, want ErrKilled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("killed queued query never unblocked")
	}
	if got := reg.Counter("srv.killed.queued").Value(); got != 1 {
		t.Fatalf("srv.killed.queued = %d, want 1", got)
	}
	if err := adm.Kill(99); !errors.Is(err, srv.ErrNoSuchQuery) {
		t.Fatalf("kill unknown: got %v, want ErrNoSuchQuery", err)
	}
	// The killed entry must not leak its queue slot: releasing the runner
	// leaves the scheduler idle.
	adm.Release(g1)
	if !adm.Quiesce(2 * time.Second) {
		t.Fatal("scheduler did not quiesce after kill + release")
	}
}

// TestGracefulDrainWithInFlight drains a server with one query running and
// one queued: the queued one fails with ErrDraining (and is counted), the
// running one finishes cleanly, and Shutdown returns a clean drain.
func TestGracefulDrainWithInFlight(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	reg := obs.NewRegistry()
	be := &stubBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := srv.New(be, srv.Config{
		DrainTimeout: 5 * time.Second,
		Admission:    srv.AdmissionConfig{MaxActive: 1, QueueDepth: 4},
	}, reg)

	sessA, err := s.Sessions().Open()
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := s.Sessions().Open()
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() {
		_, _, err := s.RunQuery(sessA, func(opts *cluster.QueryOptions) (*cluster.Result, error) {
			return be.ExecSQLOpts("SELECT 1", opts)
		})
		runErr <- err
	}()
	<-be.started // the query is admitted and executing

	queuedErr := make(chan error, 1)
	go func() {
		_, _, err := s.RunQuery(sessB, func(opts *cluster.QueryOptions) (*cluster.Result, error) {
			return be.ExecSQLOpts("SELECT 2", opts)
		})
		queuedErr <- err
	}()
	waitGauge(t, reg, "srv.queue.depth", 1)

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown() }()

	select {
	case err := <-queuedErr:
		if !errors.Is(err, srv.ErrDraining) {
			t.Fatalf("queued during drain: got %v, want ErrDraining", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued query not failed by drain")
	}
	if reg.Counter("srv.rejected.draining").Value() == 0 {
		t.Fatal("srv.rejected.draining not counted")
	}

	// The in-flight query finishes; the drain is clean.
	close(be.release)
	if err := <-runErr; err != nil {
		t.Fatalf("in-flight query during drain: %v", err)
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never returned")
	}
	// New queries after drain reject immediately.
	if _, _, err := s.RunQuery(sessA, func(opts *cluster.QueryOptions) (*cluster.Result, error) {
		return be.ExecSQLOpts("SELECT 3", opts)
	}); !errors.Is(err, srv.ErrDraining) {
		t.Fatalf("post-drain query: got %v, want ErrDraining", err)
	}
}

// TestForcedDrainKillsStragglers: a query still running when DrainTimeout
// expires is killed — it returns the draining error, not a result — and
// Shutdown says the drain was forced.
func TestForcedDrainKillsStragglers(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	be := &stubBackend{started: make(chan struct{}, 1), release: make(chan struct{})}
	s := srv.New(be, srv.Config{DrainTimeout: 20 * time.Millisecond}, obs.NewRegistry())
	sess, err := s.Sessions().Open()
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() {
		_, _, err := s.RunQuery(sess, func(opts *cluster.QueryOptions) (*cluster.Result, error) {
			return be.ExecSQLOpts("SELECT 1", opts)
		})
		runErr <- err
	}()
	<-be.started // admitted, executing, and never released

	if err := s.Shutdown(); err == nil || !strings.Contains(err.Error(), "drain timed out") {
		t.Fatalf("shutdown = %v, want a forced-drain error", err)
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, srv.ErrDraining) {
			t.Fatalf("straggler returned %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("straggler never killed")
	}
}

// TestSessionConcurrencyIsolation runs two wire sessions concurrently
// against a real cluster — one doing DML, one reading — and asserts
// result sanity, prepared-statement isolation, and no goroutine leaks.
func TestSessionConcurrencyIsolation(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	db, err := core.Open(core.Config{Workers: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec("CREATE TABLE st (a INT, tag VARCHAR(4)) PARTITION BY HASH(a)"); err != nil {
		t.Fatal(err)
	}

	s := srv.New(db.Cluster(), srv.Config{Admission: srv.AdmissionConfig{MaxActive: 4}}, db.Registry())
	dial := func() (*lineClient, func()) {
		server, client := net.Pipe()
		done := make(chan struct{})
		go func() { s.ServeConn(server); close(done) }()
		return newLineClient(t, client), func() { client.Close(); <-done }
	}
	ca, closeA := dial()
	defer closeA()
	cb, closeB := dial()
	defer closeB()

	// Prepared statements are per-session: the same name binds different
	// SQL in each session.
	if out := ca.send("PREPARE q AS SELECT count(*) FROM st WHERE tag = 'a'"); !strings.HasPrefix(out[0], "OK") {
		t.Fatalf("prepare A: %v", out)
	}
	if out := cb.send("PREPARE q AS SELECT count(*) FROM st WHERE tag = 'b'"); !strings.HasPrefix(out[0], "OK") {
		t.Fatalf("prepare B: %v", out)
	}

	const rounds = 8
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	wg.Add(2)
	go func() { // session A: DML + its prepared count
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			out := ca.send(fmt.Sprintf("INSERT INTO st VALUES (%d,'a'), (%d,'a')", 2*i, 2*i+1))
			if !strings.Contains(out[len(out)-1], "2 rows inserted") {
				errCh <- fmt.Errorf("insert round %d: %v", i, out)
				return
			}
			if out := ca.send("EXECUTE q"); !strings.HasPrefix(out[len(out)-1], "OK 1 rows") {
				errCh <- fmt.Errorf("execute A round %d: %v", i, out)
				return
			}
		}
	}()
	go func() { // session B: concurrent reads, always consistent
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			out := cb.send("SELECT count(*) FROM st")
			if len(out) != 2 || !strings.HasPrefix(out[1], "OK") {
				errCh <- fmt.Errorf("select round %d: %v", i, out)
				return
			}
			var n int
			if _, err := fmt.Sscanf(out[0], "%d", &n); err != nil || n < 0 || n > 2*rounds {
				// A concurrent reader may observe a partially applied
				// multi-row INSERT (scans are read-uncommitted), but never
				// rows that were never written.
				errCh <- fmt.Errorf("select round %d: inconsistent count %q", i, out[0])
				return
			}
			if out := cb.send("EXECUTE q"); out[0] != "0" {
				// Session B's prepared q counts tag 'b' rows: always zero.
				errCh <- fmt.Errorf("execute B round %d: %v", i, out)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	out := ca.send("SELECT count(*) FROM st")
	if out[0] != fmt.Sprintf("%d", 2*rounds) {
		t.Fatalf("final count: %v", out)
	}
	// Per-session accounting is visible and attributed.
	if out := ca.send("SHOW SESSIONS"); len(out) != 3 {
		t.Fatalf("show sessions: %v", out)
	}
}

// TestKillInFlightQuery kills a long-running real query mid-execution and
// asserts it unwinds promptly (one batch boundary, not end-of-query) with
// the typed kill error.
func TestKillInFlightQuery(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	db, err := core.Open(core.Config{Workers: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec("CREATE TABLE big (k INT, v INT) PARTITION BY HASH(v)"); err != nil {
		t.Fatal(err)
	}
	// One hot key: the self-join explodes to rows^2 intermediate rows, so
	// the query runs long enough to be killed mid-stream.
	rows := make([]types.Row, 4000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(1), types.NewInt(int64(i))}
	}
	if _, err := db.Load("big", rows); err != nil {
		t.Fatal(err)
	}

	reg := db.Registry()
	s := srv.New(db.Cluster(), srv.Config{Admission: srv.AdmissionConfig{MaxActive: 2}}, reg)
	sess, err := s.Sessions().Open()
	if err != nil {
		t.Fatal(err)
	}
	if out := sess.Set("batchrows", 256); out != nil {
		t.Fatal(out)
	}

	runErr := make(chan error, 1)
	go func() {
		_, _, err := s.RunQuery(sess, func(opts *cluster.QueryOptions) (*cluster.Result, error) {
			return db.Cluster().ExecSQLOpts(
				"SELECT count(*) FROM big x, big y WHERE x.k = y.k", opts)
		})
		runErr <- err
	}()

	// An operator's connection waits for the query to be admitted and
	// running, then kills it by the id SHOW QUERIES lists.
	server, client := net.Pipe()
	served := make(chan struct{})
	go func() { s.ServeConn(server); close(served) }()
	defer func() { client.Close(); <-served }()
	operator := newLineClient(t, client)
	var qid string
	deadline := time.Now().Add(5 * time.Second)
	for qid == "" {
		if out := operator.send("SHOW QUERIES"); len(out) > 1 {
			qid = out[0]
			break
		}
		select {
		case err := <-runErr:
			t.Fatalf("query finished before kill: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let execution enter the dataflow
	killedAt := time.Now()
	if out := operator.send("KILL " + qid); out[0] != "OK killed "+qid {
		t.Fatalf("kill: %v", out)
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, srv.ErrKilled) {
			t.Fatalf("killed query returned %v, want ErrKilled", err)
		}
		if d := time.Since(killedAt); d > 3*time.Second {
			t.Fatalf("kill took %v; want within one batch boundary", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed query never returned")
	}
	if got := reg.Counter("srv.killed.running").Value(); got != 1 {
		t.Fatalf("srv.killed.running = %d, want 1", got)
	}
}

// waitGauge polls a registered gauge func until it reaches want.
func waitGauge(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, m := range reg.Snapshot() {
			if m.Name == name && m.Value == float64(want) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauge %s never reached %d", name, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionMetricsNoLockCycle hammers Admit/Release against registry
// snapshots while a third party keeps registering new instruments. That is
// the srv/obs lock-order cycle: Snapshot used to call the admission gauge
// funcs (which take Admission.mu) while holding the registry read lock, and
// Admit/Release used to look their counters up in the registry while holding
// Admission.mu; one queued registry writer between the two and all three
// parties waited on each other for good. The parent commit wedges here
// within a second.
func TestAdmissionMetricsNoLockCycle(t *testing.T) {
	reg := obs.NewRegistry()
	adm := srv.NewAdmission(srv.AdmissionConfig{MaxActive: 2, QueueDepth: 64, QueuePerSession: 64}, reg)
	const rounds = 20000
	var wg sync.WaitGroup
	for s := uint64(1); s <= 4; s++ {
		wg.Add(1)
		go func(session uint64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g, err := adm.Admit(session)
				if err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				adm.Release(g)
			}
		}(s)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // /metrics scrapes
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	go func() { // other components creating instruments: registry writers
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				reg.Counter(fmt.Sprintf("test.churn.%d", i%4096)).Inc()
				reg.RegisterGaugeFunc("test.churn.gauge", func() int64 { return int64(i) })
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Admit/Release against Snapshot deadlocked (srv.admission ↔ obs.registry lock cycle)")
	}
	close(stop)
	bg.Wait()
	if got := metricValue(reg, "srv.admitted"); got != 4*rounds {
		t.Errorf("srv.admitted = %v, want %d", got, 4*rounds)
	}
}

func metricValue(reg *obs.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}
