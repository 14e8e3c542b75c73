// Command hrdbms-server runs an HRDBMS node set reachable over TCP: it
// embeds a cluster (coordinators + workers in this process, as the
// in-process substitution DESIGN.md documents) and serves a line protocol
// on a real socket through the serving layer (internal/srv): per-connection
// sessions, admission control with a bounded queue, KILL, and graceful
// drain on SIGTERM.
//
// Protocol: one statement per line; the server answers with tab-separated
// rows, then a line "OK <n> rows" or "ERR <message>". Besides SQL the
// server understands PREPARE <name> AS <sql>, EXECUTE <name>, KILL <qid>,
// SET <batchrows|parallel> <value>, SHOW SESSIONS, and SHOW QUERIES.
//
// With -http set, a second listener serves observability endpoints:
// GET /metrics (plain-text registry, including the srv.* serving metrics)
// and GET /debug/queries (recent query traces as JSON). -trace records a
// per-operator trace of every query into the /debug/queries ring.
//
// Usage:
//
//	hrdbms-server -listen :7432 -workers 8 -dir /var/lib/hrdbms -http :7433
//	echo "SELECT 1 FROM nation LIMIT 1;" | nc localhost 7432
//	curl localhost:7433/metrics
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/srv"
	"repro/internal/tpch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hrdbms-server:", err)
		os.Exit(1)
	}
}

// run is the server; an error ends it after its deferred cleanup has run.
func run() error {
	listen := flag.String("listen", "127.0.0.1:7432", "listen address")
	httpAddr := flag.String("http", "", "serve /metrics and /debug/queries on this address")
	trace := flag.Bool("trace", false, "record a per-operator trace of every query")
	workers := flag.Int("workers", 4, "number of worker nodes")
	dir := flag.String("dir", "", "data directory (default: temp)")
	tpchSF := flag.Float64("tpch", 0, "preload TPC-H at this scale factor")
	maxConns := flag.Int("max-conns", 256, "maximum concurrent client sessions")
	maxActive := flag.Int("max-active", 0, "maximum concurrently running queries (0 = default)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue depth (0 = default)")
	idle := flag.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain wait for in-flight queries")
	flag.Parse()

	baseDir := *dir
	if baseDir == "" {
		var err error
		if baseDir, err = os.MkdirTemp("", "hrdbms-server-*"); err != nil {
			return err
		}
	}
	db, err := core.Open(core.Config{Workers: *workers, Dir: baseDir, TraceQueries: *trace})
	if err != nil {
		return err
	}
	defer db.Close()

	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		fmt.Printf("observability on http://%s/metrics and /debug/queries\n", hl.Addr())
		go func() {
			if err := http.Serve(hl, obs.Handler(db.Registry(), db.Traces())); err != nil {
				fmt.Fprintln(os.Stderr, "hrdbms-server: http:", err)
			}
		}()
	}

	if *tpchSF > 0 {
		for _, ddl := range tpch.DDL() {
			if _, err := db.Exec(ddl); err != nil {
				return err
			}
		}
		data := tpch.Generate(*tpchSF, 1)
		for tbl, rows := range data.Tables() {
			if _, err := db.Load(tbl, rows); err != nil {
				return err
			}
		}
		fmt.Printf("loaded TPC-H SF%g\n", *tpchSF)
	}

	server := newServer(db, srv.Config{
		MaxConns:     *maxConns,
		IdleTimeout:  *idle,
		DrainTimeout: *drain,
		Admission:    srv.AdmissionConfig{MaxActive: *maxActive, QueueDepth: *queueDepth},
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("hrdbms-server listening on %s (%d workers, data in %s)\n",
		l.Addr(), *workers, baseDir)

	// SIGTERM/SIGINT trigger a graceful drain: stop accepting, fail queued
	// queries, let running ones finish (or kill them after drain-timeout),
	// then close every connection and exit cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		fmt.Printf("hrdbms-server: %v, draining\n", s)
		if err := server.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "hrdbms-server: drain:", err)
		}
	}()

	if err := server.Serve(l); err != nil {
		return err
	}
	fmt.Println("hrdbms-server: drained, bye")
	return nil
}

// newServer wires the serving layer over an open database.
func newServer(db *core.DB, cfg srv.Config) *srv.Server {
	return srv.New(db.Cluster(), cfg, db.Registry())
}
