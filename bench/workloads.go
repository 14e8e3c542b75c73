package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/tpch"
	"repro/internal/types"
)

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// timedQuery runs one read statement through ExecSQL and records it; the
// result check happens after the clock stops.
func timedQuery(e *env, rec *recorder, q, sql string, pass int) {
	start := time.Now()
	res, err := e.c.ExecSQL(sql)
	ms := msSince(start)
	failed := err != nil
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s pass %d: %v\n", q, pass, err)
	} else if d := diffResult(canonRows(res.Rows), e.first[q]); d != "" {
		failed = true
		fmt.Fprintf(os.Stderr, "bench: %s pass %d differs from the warm-up pass: %s\n", q, pass, d)
	}
	rec.add(op{Kind: q, Pass: pass, MS: ms, Failed: failed})
}

// runQueryPasses is the timed phase of scan_agg and join_shuffle: every
// pass runs each query once, in an order the seed picks.
func runQueryPasses(e *env, passes int, rec *recorder) {
	rng := rand.New(rand.NewSource(e.seed))
	queries := tpch.Queries()
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(e.w.Queries)) {
			q := e.w.Queries[i]
			timedQuery(e, rec, q, queries[q], p)
		}
		rec.passDone(e.w, p)
	}
	rec.wallS = time.Since(start).Seconds()
}

// serveClients is the load generator's width: never more connections than
// the host has processors, and at most four.
func serveClients() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// wireClient is one closed-loop TCP client of the serving layer.
type wireClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialWire(addr string) (*wireClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}, nil
}

// roundTrip sends one statement and reads result lines up to the OK or ERR
// line that ends the reply.
func (c *wireClient) roundTrip(stmt string) (lines []string, err error) {
	if _, err := c.w.WriteString(stmt + "\n"); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\n")
		if strings.HasPrefix(line, "OK ") {
			return lines, nil
		}
		if strings.HasPrefix(line, "ERR ") {
			return nil, fmt.Errorf("server: %s", line)
		}
		lines = append(lines, line)
	}
}

// runServe is serve_short's timed phase: serveClients() connections, each
// sending its next statement only when the previous reply has arrived.
// Every pass is the eight queries in a seeded order, so each query gets the
// same number of samples. In an untraced run the clients run in rounds of
// CalibEvery passes and join between rounds, so that the calibration kernel
// runs with no statement in flight; a traced run is one round. waits, when
// non-nil, receives each statement's admission queue wait (ms), read from
// the session's public accounting.
func runServe(e *env, passes int, rec *recorder, waits *[]float64) error {
	n := serveClients()
	queries := tpch.Queries()
	clients := make([]*wireClient, n)
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.conn.Close()
			}
		}
	}()
	// Connect one at a time, each confirmed by a round trip, so that the
	// i-th live session belongs to the i-th client.
	before := len(e.server.Sessions().List())
	for i := range clients {
		c, err := dialWire(e.addr)
		if err != nil {
			return err
		}
		clients[i] = c
		if _, err := c.roundTrip("SHOW SESSIONS"); err != nil {
			return err
		}
	}
	sessions := e.server.Sessions().List()[before:]
	if len(sessions) != n {
		return fmt.Errorf("serve: %d sessions for %d clients", len(sessions), n)
	}

	round := passes
	if rec.calib != nil {
		round = e.w.CalibEvery
	}
	type clientState struct {
		rng    *rand.Rand
		waited time.Duration
		broken bool // the connection is no longer in a known state
	}
	states := make([]clientState, n)
	for ci := range states {
		states[ci].rng = rand.New(rand.NewSource(e.seed*1000 + int64(ci)))
	}
	var waitMu sync.Mutex
	start := time.Now()
	for from := 0; from < passes; from += round {
		var wg sync.WaitGroup
		for ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c, sess, st := clients[ci], sessions[ci], &states[ci]
				for p := from; p < from+round && p < passes; p++ {
					for _, i := range st.rng.Perm(len(e.w.Queries)) {
						if st.broken {
							return
						}
						q := e.w.Queries[i]
						stmt := strings.Join(strings.Fields(queries[q]), " ")
						t0 := time.Now()
						lines, err := c.roundTrip(stmt)
						ms := msSince(t0)
						failed := err != nil
						if err != nil {
							st.broken = true
							fmt.Fprintf(os.Stderr, "bench: client %d %s pass %d: %v\n", ci, q, p, err)
						} else if d := diffResult(canonLines(lines, e.floats[q]), e.first[q]); d != "" {
							failed = true
							fmt.Fprintf(os.Stderr, "bench: client %d %s pass %d differs from the warm-up pass: %s\n", ci, q, p, d)
						}
						rec.add(op{Kind: q, Pass: p, Client: ci, MS: ms, Failed: failed})
						if waits != nil {
							_, _, total := sess.Stats()
							waitMu.Lock()
							*waits = append(*waits, float64((total-st.waited).Nanoseconds())/1e6)
							waitMu.Unlock()
							st.waited = total
						}
					}
				}
			}(ci)
		}
		wg.Wait()
		rec.calib.sample()
	}
	rec.wallS = time.Since(start).Seconds()
	want := n * passes * len(e.w.Queries)
	for len(rec.ops) < want { // statements a broken connection never sent
		rec.ops = append(rec.ops, op{Kind: e.w.Queries[0], Failed: true})
	}
	return nil
}

// Refresh cycle shape (ISSUE 11): what one write half does.
const (
	appendOrders  = 40
	updatesPerCyc = 20
	insertRows    = 8
	markerSupp    = 9000000 // ps_suppkey no generated supplier has
)

// refresher generates refresh_mix's DML from the seed alone, so the same
// statements can be replayed on the 1-worker reference cluster.
type refresher struct {
	rng  *rand.Rand
	base baseFacts
	// totals after the cycles run so far
	appendedLineitems int
	appendedBytes     int64
	updates           int
}

func newRefresher(seed int64, base baseFacts) *refresher {
	return &refresher{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), base: base}
}

var (
	refreshDay0  = types.MustDate("1995-01-01").I
	refreshModes = []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}
)

// newOrders builds one cycle's orders and lineitems with the generator's
// column layout. Order keys continue past the loaded maximum, so the
// lineitem-orders join stays 1:N.
func (r *refresher) newOrders(cycle int) (orders, lines []types.Row) {
	for i := 0; i < appendOrders; i++ {
		okey := int64(r.base.Orders + cycle*appendOrders + i + 1)
		odate := refreshDay0 + int64(r.rng.Intn(700))
		var total float64
		nLines := r.rng.Intn(6) + 1
		for l := 0; l < nLines; l++ {
			part := int64(r.rng.Intn(r.base.Parts) + 1)
			qty := float64(r.rng.Intn(50) + 1)
			price := (900 + float64(part%1000)/10) * qty / 10
			disc := float64(r.rng.Intn(11)) / 100
			tax := float64(r.rng.Intn(9)) / 100
			ship := odate + int64(r.rng.Intn(121)+1)
			total += price * (1 + tax) * (1 - disc)
			lines = append(lines, types.Row{
				types.NewInt(okey), types.NewInt(part),
				types.NewInt(int64(r.rng.Intn(r.base.Suppliers) + 1)), types.NewInt(int64(l + 1)),
				types.NewFloat(qty), types.NewFloat(price), types.NewFloat(disc), types.NewFloat(tax),
				types.NewString("N"), types.NewString("O"),
				types.NewDate(ship), types.NewDate(odate + 60), types.NewDate(ship + 7),
				types.NewString("NONE"), types.NewString(refreshModes[r.rng.Intn(len(refreshModes))]),
				types.NewString("refresh append"),
			})
		}
		orders = append(orders, types.Row{
			types.NewInt(okey), types.NewInt(int64(r.rng.Intn(r.base.Customers) + 1)),
			types.NewString("O"), types.NewFloat(total), types.NewDate(odate),
			types.NewString("3-MEDIUM"), types.NewString("Clerk#000000001"), types.NewInt(0),
			types.NewString("refresh append"),
		})
	}
	return orders, lines
}

// writeHalf runs one cycle's DML on c and reports each statement to note.
// A statement that errs or touches the wrong number of rows is failed.
func (r *refresher) writeHalf(c *cluster.Cluster, cycle int, note func(kind string, ms float64, failed bool)) {
	orders, lines := r.newOrders(cycle)
	for _, row := range orders {
		r.appendedBytes += int64(types.RowEncodedSize(row))
	}
	for _, row := range lines {
		r.appendedBytes += int64(types.RowEncodedSize(row))
	}
	r.appendedLineitems += len(lines)

	start := time.Now()
	no, err1 := c.Load("orders", orders)
	nl, err2 := c.Load("lineitem", lines)
	note("append", msSince(start), err1 != nil || err2 != nil || no != len(orders) || nl != len(lines))

	exec := func(kind, sql, want string) {
		start := time.Now()
		res, err := c.ExecSQL(sql)
		ms := msSince(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s in cycle %d: %v\n", kind, cycle, err)
		} else if res.Message != want {
			fmt.Fprintf(os.Stderr, "bench: %s in cycle %d: %q, want %q\n", kind, cycle, res.Message, want)
		}
		note(kind, ms, err != nil || res.Message != want)
	}
	for i := 0; i < updatesPerCyc; i++ {
		k := r.rng.Intn(r.base.Customers) + 1
		exec("update", fmt.Sprintf("UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = %d", k), "1 rows updated")
		r.updates++
	}
	marker := markerSupp + cycle
	var vals []string
	for i := 0; i < insertRows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d.50, 'refresh insert')",
			r.rng.Intn(r.base.Parts)+1, marker, r.rng.Intn(9999)+1, r.rng.Intn(900)+1))
	}
	exec("insert", "INSERT INTO partsupp VALUES "+strings.Join(vals, ", "), fmt.Sprintf("%d rows inserted", insertRows))
	exec("delete", fmt.Sprintf("DELETE FROM partsupp WHERE ps_suppkey = %d", marker), fmt.Sprintf("%d rows deleted", insertRows))
}

// runRefresh is refresh_mix's timed phase: one client, cycles of a write
// half then a read half. Read results change every cycle, so they are
// checked for success here and against the reference cluster afterwards.
func runRefresh(e *env, cycles int, rec *recorder, ref *refresher) {
	queries := tpch.Queries()
	start := time.Now()
	for cyc := 0; cyc < cycles; cyc++ {
		ref.writeHalf(e.c, cyc, func(kind string, ms float64, failed bool) {
			rec.add(op{Kind: kind, Pass: cyc, MS: ms, Failed: failed})
		})
		for _, q := range e.w.Queries {
			t0 := time.Now()
			_, err := e.c.ExecSQL(queries[q])
			ms := msSince(t0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s in cycle %d: %v\n", q, cyc, err)
			}
			rec.add(op{Kind: q, Pass: cyc, MS: ms, Failed: err != nil})
		}
		rec.passDone(e.w, cyc)
	}
	rec.wallS = time.Since(start).Seconds()
}

// scalar runs a one-row, one-column query.
func scalar(c *cluster.Cluster, sql string) (float64, error) {
	res, err := c.ExecSQL(sql)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: want one value, got %d rows", sql, len(res.Rows))
	}
	return res.Rows[0][0].Float(), nil
}
