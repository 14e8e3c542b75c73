// Package obs is HRDBMS's observability layer: a per-query span tracer
// that attributes rows, bytes, pages, and wall time to individual plan
// operators across the nodes of a distributed query, and a concurrency-safe
// metrics registry the storage, transaction, and network subsystems publish
// into.
//
// Every figure in the paper is an argument about where time and bytes go —
// shuffle topology degree, materialization volume, pages skipped — and this
// package is the instrumentation that lets the reproduction make the same
// arguments about itself: EXPLAIN ANALYZE renders the span tree, the
// /metrics and /debug/queries endpoints expose the registry and recent
// traces, and hrdbms-bench dumps machine-readable per-query stats.
//
// Tracing is strictly pay-for-what-you-use: a nil *QueryTrace produces nil
// *Span values, and every Span method is a nil-receiver no-op, so the
// disabled path costs one predictable branch and zero allocations.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span records one operator's execution on one node. Counters are updated
// concurrently by operator goroutines and read after (or during) the query,
// so all of them are atomics. Spans link parent→child by ID; the tree is
// reconstructed at render time.
type Span struct {
	ID     int64
	Op     string // operator label, e.g. "Scan lineitem", "Shuffle"
	Node   int    // node the operator ran on
	parent atomic.Int64

	RowsOut      atomic.Int64 // rows this operator produced
	EstRows      atomic.Int64 // optimizer-estimated rows (0 = not stamped)
	ScanRows     atomic.Int64 // rows read by a scan before predicates
	PagesRead    atomic.Int64 // pages a scan fetched
	PagesSkipped atomic.Int64 // page fetches data skipping saved it
	SetsRead     atomic.Int64 // page sets a columnar scan read ...
	SetsSkipped  atomic.Int64 // ... and skipped whole
	ChainPages   atomic.Int64 // of PagesRead, the overflow pages of chained columns
	ColsRead     atomic.Int64 // columns a columnar scan fetches per page set ...
	ColsTotal    atomic.Int64 // ... of this many in the table (0 = not a columnar scan)
	NetBytes     atomic.Int64 // bytes this operator put on the wire
	NetMsgs      atomic.Int64
	Batches      atomic.Int64 // row slabs this operator shipped (vectorized path)
	VecBatches   atomic.Int64 // typed columnar batches this operator shipped (vector path)
	DecodeTyped  atomic.Int64 // column pages decoded by the typed batch decoders
	PredKernel   atomic.Int64 // page sets whose scan predicate ran through the compiled vector kernel
	PredRow      atomic.Int64 // page sets whose scan predicate was evaluated row by row (expr.EvalBool)
	SpillBytes   atomic.Int64
	StateBytes   atomic.Int64
	Workers      atomic.Int64 // intra-operator worker threads granted (morsel parallelism)
	TypedIn      atomic.Int64 // a blocking operator's input (aggregate build, join probe): 1 typed batches, -1 row slabs, 0 not one
	BuildLeft    atomic.Bool  // a hash join built its table from the planner's left input
	WallNS       atomic.Int64 // cumulative time inside Open/Next/Close (includes children)

	finished atomic.Bool // set once by Finish; spans left unfinished indicate a tracing bug
}

// Finish marks the span complete. Idempotent and nil-safe: finishing twice
// is harmless, and the disabled (nil) span path stays a single branch. Every
// StartSpan must be paired with a Finish on all paths (the spanpair lint rule
// enforces this) so a trace can distinguish "operator done" from "operator
// abandoned".
func (s *Span) Finish() {
	if s != nil {
		s.finished.Store(true)
	}
}

// SetParent links this span under a parent span. Nil-safe.
func (s *Span) SetParent(p *Span) {
	if s == nil || p == nil {
		return
	}
	s.parent.Store(p.ID)
}

// SetEst stamps the optimizer's row estimate so EXPLAIN ANALYZE can show
// est= next to the actual count. Nil-safe.
func (s *Span) SetEst(n int64) {
	if s != nil {
		s.EstRows.Store(n)
	}
}

// AddRowsOut counts produced rows. Nil-safe.
func (s *Span) AddRowsOut(n int64) {
	if s != nil {
		s.RowsOut.Add(n)
	}
}

// AddWall accumulates operator wall time. Nil-safe.
func (s *Span) AddWall(d time.Duration) {
	if s != nil {
		s.WallNS.Add(int64(d))
	}
}

// AddScan records scan-side counters. Nil-safe.
func (s *Span) AddScan(rows, pagesRead, pagesSkipped int64) {
	if s != nil {
		s.ScanRows.Add(rows)
		s.PagesRead.Add(pagesRead)
		s.PagesSkipped.Add(pagesSkipped)
	}
}

// AddSets records a columnar scan's page sets — read, and skipped whole — and
// how many of the pages it read were chain pages. Nil-safe.
func (s *Span) AddSets(read, skipped, chainPages int64) {
	if s != nil {
		s.SetsRead.Add(read)
		s.SetsSkipped.Add(skipped)
		s.ChainPages.Add(chainPages)
	}
}

// SetCols records a columnar scan's read set: read of the table's total
// columns are fetched and decoded. Nil-safe.
func (s *Span) SetCols(read, total int) {
	if s != nil {
		s.ColsRead.Store(int64(read))
		s.ColsTotal.Store(int64(total))
	}
}

// AddNet records bytes/messages sent by an exchange operator. Nil-safe.
func (s *Span) AddNet(bytes int64, msgs int64) {
	if s != nil {
		s.NetBytes.Add(bytes)
		s.NetMsgs.Add(msgs)
	}
}

// AddBatches counts row slabs moved by the vectorized path. Nil-safe.
func (s *Span) AddBatches(n int64) {
	if s != nil {
		s.Batches.Add(n)
	}
}

// AddVecBatches counts typed columnar batches moved by the vector path.
// Nil-safe.
func (s *Span) AddVecBatches(n int64) {
	if s != nil {
		s.VecBatches.Add(n)
	}
}

// AddSpill records spill volume. Nil-safe.
func (s *Span) AddSpill(n int64) {
	if s != nil {
		s.SpillBytes.Add(n)
	}
}

// AddState records operator state bytes. Nil-safe.
func (s *Span) AddState(n int64) {
	if s != nil {
		s.StateBytes.Add(n)
	}
}

// AddDecode records the column pages a scan decoded. Nil-safe.
func (s *Span) AddDecode(pages int64) {
	if s != nil {
		s.DecodeTyped.Add(pages)
	}
}

// AddPred records how a columnar scan evaluated its predicate: page sets
// through the compiled vector kernel vs row by row through the row
// expression. Nil-safe.
func (s *Span) AddPred(kernelSets, rowSets int64) {
	if s != nil {
		s.PredKernel.Add(kernelSets)
		s.PredRow.Add(rowSets)
	}
}

// AddWorkers records the parallel worker threads an operator was granted
// from the node budget. Nil-safe.
func (s *Span) AddWorkers(n int64) {
	if s != nil {
		s.Workers.Add(n)
	}
}

// SetInput records which front end a blocking operator's input — an
// aggregate's build, a hash join's probe — was read through: typed batches
// straight off a columnar scan, or row slabs. Nil-safe.
func (s *Span) SetInput(typed bool) {
	if s == nil {
		return
	}
	if typed {
		s.TypedIn.Store(1)
	} else {
		s.TypedIn.Store(-1)
	}
}

// SetBuildLeft records that a hash join built its table from the planner's
// left input rather than its right. Nil-safe.
func (s *Span) SetBuildLeft() {
	if s != nil {
		s.BuildLeft.Store(true)
	}
}

func inputName(typedIn int64) string {
	switch {
	case typedIn > 0:
		return "typed"
	case typedIn < 0:
		return "rows"
	}
	return ""
}

// SpanSnapshot is the JSON-friendly view of a span.
type SpanSnapshot struct {
	ID           int64  `json:"id"`
	Parent       int64  `json:"parent,omitempty"`
	Op           string `json:"op"`
	Node         int    `json:"node"`
	RowsOut      int64  `json:"rows_out"`
	EstRows      int64  `json:"est_rows,omitempty"`
	ScanRows     int64  `json:"scan_rows,omitempty"`
	PagesRead    int64  `json:"pages_read,omitempty"`
	PagesSkipped int64  `json:"pages_skipped,omitempty"`
	SetsRead     int64  `json:"sets_read,omitempty"`
	SetsSkipped  int64  `json:"sets_skipped,omitempty"`
	ChainPages   int64  `json:"chain_pages,omitempty"`
	ColsRead     int64  `json:"cols_read,omitempty"`
	ColsTotal    int64  `json:"cols_total,omitempty"`
	NetBytes     int64  `json:"net_bytes,omitempty"`
	NetMsgs      int64  `json:"net_msgs,omitempty"`
	Batches      int64  `json:"batches,omitempty"`
	VecBatches   int64  `json:"vec_batches,omitempty"`
	DecodeTyped  int64  `json:"decode_typed,omitempty"`
	PredKernel   int64  `json:"pred_kernel_sets,omitempty"`
	PredRow      int64  `json:"pred_row_sets,omitempty"`
	SpillBytes   int64  `json:"spill_bytes,omitempty"`
	StateBytes   int64  `json:"state_bytes,omitempty"`
	Workers      int64  `json:"workers,omitempty"`
	In           string `json:"in,omitempty"`         // "typed" or "rows": a blocking operator's input front end
	BuildLeft    bool   `json:"build_left,omitempty"` // a hash join built on the planner's left input
	WallNS       int64  `json:"wall_ns"`
}

func (s *Span) snapshot() SpanSnapshot {
	return SpanSnapshot{
		ID:           s.ID,
		Parent:       s.parent.Load(),
		Op:           s.Op,
		Node:         s.Node,
		RowsOut:      s.RowsOut.Load(),
		EstRows:      s.EstRows.Load(),
		ScanRows:     s.ScanRows.Load(),
		PagesRead:    s.PagesRead.Load(),
		PagesSkipped: s.PagesSkipped.Load(),
		SetsRead:     s.SetsRead.Load(),
		SetsSkipped:  s.SetsSkipped.Load(),
		ChainPages:   s.ChainPages.Load(),
		ColsRead:     s.ColsRead.Load(),
		ColsTotal:    s.ColsTotal.Load(),
		NetBytes:     s.NetBytes.Load(),
		NetMsgs:      s.NetMsgs.Load(),
		Batches:      s.Batches.Load(),
		VecBatches:   s.VecBatches.Load(),
		DecodeTyped:  s.DecodeTyped.Load(),
		PredKernel:   s.PredKernel.Load(),
		PredRow:      s.PredRow.Load(),
		SpillBytes:   s.SpillBytes.Load(),
		StateBytes:   s.StateBytes.Load(),
		Workers:      s.Workers.Load(),
		In:           inputName(s.TypedIn.Load()),
		BuildLeft:    s.BuildLeft.Load(),
		WallNS:       s.WallNS.Load(),
	}
}

// QueryTrace collects the spans of one query execution across all nodes.
// The zero value is not usable; a nil *QueryTrace is the disabled tracer.
type QueryTrace struct {
	QID   uint64
	SQL   string
	wall  atomic.Int64
	seq   atomic.Int64
	mu    sync.Mutex //lint:lockorder obs.trace leaf
	spans []*Span
}

// NewQueryTrace starts a trace for one query.
func NewQueryTrace(qid uint64, sql string) *QueryTrace {
	return &QueryTrace{QID: qid, SQL: sql}
}

// StartSpan creates a span for an operator on a node. Returns nil on a nil
// trace, so disabled tracing propagates as nil spans.
func (t *QueryTrace) StartSpan(op string, node int) *Span {
	if t == nil {
		return nil
	}
	s := &Span{ID: t.seq.Add(1), Op: op, Node: node}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Drop removes the spans rooted at roots, and every span beneath them, from
// the trace: operators that were placed but will never run leave no trace.
// Nil-safe.
func (t *QueryTrace) Drop(roots ...*Span) {
	if t == nil {
		return
	}
	gone := map[int64]bool{}
	for _, r := range roots {
		if r != nil {
			gone[r.ID] = true
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// A child may be older than its parent (a scan's span is made before the
	// operators above it), so sweep until no span joins the dropped ones.
	for grew := len(gone) > 0; grew; {
		grew = false
		for _, s := range t.spans {
			if !gone[s.ID] && gone[s.parent.Load()] {
				gone[s.ID], grew = true, true
			}
		}
	}
	kept := t.spans[:0]
	for _, s := range t.spans {
		if !gone[s.ID] {
			kept = append(kept, s)
		}
	}
	clear(t.spans[len(kept):])
	t.spans = kept
}

// SetWall records the query's end-to-end wall time. Nil-safe.
func (t *QueryTrace) SetWall(d time.Duration) {
	if t != nil {
		t.wall.Store(int64(d))
	}
}

// Spans returns a snapshot of all spans recorded so far.
func (t *QueryTrace) Spans() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out := make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		out[i] = s.snapshot()
	}
	return out
}

// TraceSnapshot is the JSON-friendly view of a whole query trace.
type TraceSnapshot struct {
	QID    uint64         `json:"qid"`
	SQL    string         `json:"sql,omitempty"`
	WallNS int64          `json:"wall_ns"`
	Spans  []SpanSnapshot `json:"spans"`
}

// Snapshot captures the trace for serialization.
func (t *QueryTrace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	return TraceSnapshot{QID: t.QID, SQL: t.SQL, WallNS: t.wall.Load(), Spans: t.Spans()}
}

// Render returns the stitched span tree as indented text: one line per
// operator span, children ordered by node then span ID, each annotated with
// its non-zero counters. This is the body of EXPLAIN ANALYZE.
func (t *QueryTrace) Render() string {
	if t == nil {
		return ""
	}
	spans := t.Spans()
	children := map[int64][]SpanSnapshot{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Node != cs[j].Node {
				return cs[i].Node < cs[j].Node
			}
			return cs[i].ID < cs[j].ID
		})
	}
	var sb strings.Builder
	var walk func(parent int64, depth int)
	walk = func(parent int64, depth int) {
		for _, s := range children[parent] {
			sb.WriteString(strings.Repeat("  ", depth))
			sb.WriteString(s.line())
			sb.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}

// line renders one span as a single EXPLAIN ANALYZE line.
func (s SpanSnapshot) line() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [node %d] (rows=%d time=%.3fms", s.Op, s.Node, s.RowsOut,
		float64(s.WallNS)/1e6)
	if s.EstRows > 0 {
		fmt.Fprintf(&sb, " est=%d", s.EstRows)
	}
	if s.ScanRows > 0 {
		fmt.Fprintf(&sb, " scanned=%d", s.ScanRows)
	}
	if s.PagesRead > 0 || s.PagesSkipped > 0 {
		fmt.Fprintf(&sb, " pages=%d skipped=%d", s.PagesRead, s.PagesSkipped)
	}
	if s.SetsRead > 0 || s.SetsSkipped > 0 {
		fmt.Fprintf(&sb, " sets=%d/%d chain=%d", s.SetsRead, s.SetsSkipped, s.ChainPages)
	}
	if s.ColsTotal > 0 {
		fmt.Fprintf(&sb, " cols=%d/%d", s.ColsRead, s.ColsTotal)
	}
	if s.NetBytes > 0 || s.NetMsgs > 0 {
		fmt.Fprintf(&sb, " net=%dB msgs=%d", s.NetBytes, s.NetMsgs)
	}
	if s.Batches > 0 {
		fmt.Fprintf(&sb, " batches=%d", s.Batches)
	}
	if s.VecBatches > 0 {
		fmt.Fprintf(&sb, " vec_batches=%d", s.VecBatches)
	}
	if s.DecodeTyped > 0 {
		fmt.Fprintf(&sb, " decode=%d", s.DecodeTyped)
	}
	switch {
	case s.PredRow > 0:
		fmt.Fprintf(&sb, " pred=row(%d sets)", s.PredRow)
	case s.PredKernel > 0:
		sb.WriteString(" pred=kernel")
	}
	if s.SpillBytes > 0 {
		fmt.Fprintf(&sb, " spill=%dB", s.SpillBytes)
	}
	if s.StateBytes > 0 {
		fmt.Fprintf(&sb, " state=%dB", s.StateBytes)
	}
	if s.BuildLeft {
		sb.WriteString(" build=left")
	}
	if s.In != "" {
		fmt.Fprintf(&sb, " in=%s", s.In)
	}
	if s.Workers > 0 {
		fmt.Fprintf(&sb, " workers=%d", s.Workers)
	}
	sb.WriteByte(')')
	return sb.String()
}
