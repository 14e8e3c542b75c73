package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/srv"
)

// serve handles one connection with a default-configured serving layer.
func serve(db *core.DB, conn net.Conn) {
	newServer(db, srv.Config{}).ServeConn(conn)
}

// TestServeProtocol drives the line protocol over an in-memory pipe.
func TestServeProtocol(t *testing.T) {
	db, err := core.Open(core.Config{Workers: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	server, client := net.Pipe()
	go serve(db, server)
	defer client.Close()

	rd := bufio.NewReader(client)
	send := func(sql string) []string {
		if _, err := fmt.Fprintln(client, sql); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			line = strings.TrimRight(line, "\n")
			lines = append(lines, line)
			if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
				return lines
			}
		}
	}

	out := send("CREATE TABLE t (a INT, b VARCHAR(10)) PARTITION BY HASH(a);")
	if !strings.HasPrefix(out[len(out)-1], "OK") {
		t.Fatalf("create: %v", out)
	}
	out = send("INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'z');")
	if !strings.Contains(out[len(out)-1], "3 rows inserted") {
		t.Fatalf("insert: %v", out)
	}
	out = send("SELECT a, b FROM t ORDER BY a;")
	if len(out) != 4 || out[0] != "1\tx" || out[2] != "3\tz" || out[3] != "OK 3 rows" {
		t.Fatalf("select: %v", out)
	}
	out = send("SELEC syntax error;")
	if !strings.HasPrefix(out[len(out)-1], "ERR") {
		t.Fatalf("bad sql: %v", out)
	}
	// The connection must survive an error and keep serving.
	out = send("SELECT count(*) FROM t;")
	if out[0] != "3" {
		t.Fatalf("after error: %v", out)
	}
}

// TestObservabilityEndpoints exercises the -http surface: /metrics renders
// the registry, /debug/queries returns traced queries as JSON.
func TestObservabilityEndpoints(t *testing.T) {
	db, err := core.Open(core.Config{Workers: 2, Dir: t.TempDir(), TraceQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE obs_t (a INT, b FLOAT) PARTITION BY HASH(a)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO obs_t VALUES (1, 1.5), (2, 2.5), (3, 3.5)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT SUM(b) FROM obs_t"); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(db.Registry(), db.Traces()))
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{"buffer.hits", "network.bytes_total", "wal.appends_total",
		"twopc.commits_total", "query.seconds_count"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s:\n%s", want, metrics)
		}
	}
	// The trace store flushes asynchronously; poll for the traced SELECT.
	deadline := time.Now().Add(2 * time.Second)
	for {
		body := get("/debug/queries")
		if strings.Contains(body, "obs_t") && strings.Contains(body, `"spans"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/queries never showed the traced query:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
