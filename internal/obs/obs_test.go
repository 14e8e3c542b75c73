package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeRender(t *testing.T) {
	tr := NewQueryTrace(7, "SELECT 1")
	root := tr.StartSpan("Gather", 0)
	scan1 := tr.StartSpan("Scan t", 1)
	scan2 := tr.StartSpan("Scan t", 2)
	scan1.SetParent(root)
	scan2.SetParent(root)
	scan1.AddRowsOut(10)
	scan1.AddScan(12, 3, 1)
	scan2.AddRowsOut(5)
	scan2.AddNet(2048, 4)
	root.AddRowsOut(15)
	root.AddWall(2 * time.Millisecond)

	out := tr.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Gather [node 0] (rows=15") {
		t.Errorf("root line = %q", lines[0])
	}
	// Children indented, ordered by node.
	if !strings.HasPrefix(lines[1], "  Scan t [node 1]") || !strings.Contains(lines[1], "scanned=12 pages=3 skipped=1") {
		t.Errorf("child line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "net=2048B msgs=4") {
		t.Errorf("child line = %q", lines[2])
	}
}

func TestNilTraceAndSpanAreNoops(t *testing.T) {
	var tr *QueryTrace
	sp := tr.StartSpan("x", 0)
	if sp != nil {
		t.Fatal("nil trace must hand out nil spans")
	}
	// All of these must be safe no-ops.
	sp.AddRowsOut(1)
	sp.AddWall(time.Second)
	sp.AddScan(1, 1, 1)
	sp.AddNet(1, 1)
	sp.AddSpill(1)
	sp.AddState(1)
	sp.SetParent(sp)
	sp.Finish()
	tr.SetWall(time.Second)
	if tr.Render() != "" || tr.Spans() != nil {
		t.Fatal("nil trace must render empty")
	}
}

func TestDisabledSpanZeroAlloc(t *testing.T) {
	var sp *Span
	allocs := testing.AllocsPerRun(1000, func() {
		sp.AddRowsOut(1)
		sp.AddWall(1)
		sp.AddNet(1, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled span allocated %v per op", allocs)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewQueryTrace(1, "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.StartSpan("op", n)
				sp.AddRowsOut(1)
			}
		}(i)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("spans = %d, want 800", got)
	}
}

func TestTraceStoreRingAndClose(t *testing.T) {
	s := NewTraceStore(4)
	for i := uint64(1); i <= 6; i++ {
		s.Add(NewQueryTrace(i, ""))
	}
	s.Close() // waits for the flusher to drain
	got := s.Recent()
	if len(got) != 4 {
		t.Fatalf("recent = %d traces, want 4", len(got))
	}
	// Oldest first: 3,4,5,6 survive.
	for i, want := range []uint64{3, 4, 5, 6} {
		if got[i].QID != want {
			t.Fatalf("recent[%d].QID = %d, want %d", i, got[i].QID, want)
		}
	}
	s.Add(NewQueryTrace(99, "")) // after Close: ignored, no panic
	s.Close()                    // idempotent
}

func TestTraceStoreConcurrentAdd(t *testing.T) {
	s := NewTraceStore(128)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Add(NewQueryTrace(uint64(n*100+j), ""))
				s.Recent()
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	if len(s.Recent()) == 0 {
		t.Fatal("no traces stored")
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wal.appends_total")
	c.Add(3)
	c.Inc()
	if r.Counter("wal.appends_total").Value() != 4 {
		t.Fatal("counter get-or-create must return the same instrument")
	}
	r.RegisterGaugeFunc("buffer.hits", func() int64 { return 42 })
	h := r.Histogram("query.seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.05)
	h.Observe(5)

	snap := r.Snapshot()
	byName := map[string]Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if byName["buffer.hits"].Value != 42 || byName["buffer.hits"].Kind != "gauge" {
		t.Fatalf("gauge func metric = %+v", byName["buffer.hits"])
	}
	if byName["query.seconds"].Value != 2 {
		t.Fatalf("histogram count = %v", byName["query.seconds"].Value)
	}

	var sb strings.Builder
	r.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"wal.appends_total 4\n",
		"buffer.hits 42\n",
		`query.seconds_bucket{le="0.1"} 1`,
		`query.seconds_bucket{le="+Inf"} 2`,
		"query.seconds_count 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, text)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c").Inc()
				r.Histogram("h", []float64{1, 2}).Observe(float64(j % 3))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 1600 {
		t.Fatalf("counter = %d", r.Counter("c").Value())
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Histogram("z", nil).Observe(1)
	r.RegisterGaugeFunc("f", func() int64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var sb strings.Builder
	r.WriteText(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil registry must write nothing")
	}
}

func TestHTTPHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("network.bytes_total").Add(123)
	s := NewTraceStore(8)
	tr := NewQueryTrace(5, "SELECT x FROM t")
	sp := tr.StartSpan("Scan t", 1)
	sp.AddRowsOut(9)
	s.Add(tr)
	s.Close()

	h := Handler(r, s)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "network.bytes_total 123") {
		t.Errorf("/metrics = %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	body := rec.Body.String()
	for _, want := range []string{`"qid": 5`, `"sql": "SELECT x FROM t"`, `"op": "Scan t"`, `"rows_out": 9`} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/queries missing %q in:\n%s", want, body)
		}
	}
}
