package exec

import (
	"container/heap"
	"sort"

	"repro/internal/obs"
	"repro/internal/types"
)

// SortKey describes one ORDER BY term.
type SortKey struct {
	Col  int // input column offset
	Desc bool
}

// compareByKeys orders rows by the keys.
func compareByKeys(a, b types.Row, keys []SortKey) int {
	for _, k := range keys {
		c := types.Compare(a[k.Col], b[k.Col])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// Sort is an external merge sort: each granted worker buffers its share of
// the input up to its share of MemRows rows, writes sorted runs to spill
// files, and the runs are merged with a loser-tree-free k-way heap merge.
// This is the leaf-level phase of the paper's distributed n-way merge sort;
// the tree topology's upper levels use MergeOperators.
type Sort struct {
	In   Operator
	Keys []SortKey
	// Parallel is the desired run-generation parallelism: prepare asks the
	// Ctx budget for that many workers and generates runs with however many
	// it is granted. The order does not depend on the degree, except that
	// rows with fully equal sort keys may tie-break differently (which
	// worker a slab goes to is nondeterministic).
	Parallel int
	// Trace, when non-nil, records the granted worker count.
	Trace  *obs.Span
	ctx    *Ctx
	spills spillSet

	mem      []types.Row // the sorted result, when one resident run is all of it
	merged   *mergeHeap  // otherwise: the k-way merge over every run
	prepared bool
	pos      int
	slab     []types.Row
}

// NewSort builds a sort operator.
func NewSort(ctx *Ctx, in Operator, keys []SortKey) *Sort {
	return &Sort{In: in, Keys: keys, ctx: ctx}
}

// Schema implements Operator.
func (s *Sort) Schema() types.Schema { return s.In.Schema() }

// Open implements Operator.
func (s *Sort) Open() error {
	s.mem, s.merged, s.prepared, s.pos = nil, nil, false, 0
	return s.In.Open()
}

// sortWorker is one run-generation worker's state: the rows it holds and
// the runs it has sealed on disk. No worker touches another's.
type sortWorker struct {
	s    *Sort
	mem  []types.Row
	runs []*spillReader
}

func (w *sortWorker) sortMem() {
	sort.SliceStable(w.mem, func(i, j int) bool {
		return compareByKeys(w.mem[i], w.mem[j], w.s.Keys) < 0
	})
}

// spill sorts the resident rows and seals them as one more run on disk.
func (w *sortWorker) spill() error {
	w.sortMem()
	sp, err := w.s.spills.newWriter(w.s.ctx, "sort-run-*")
	if err != nil {
		return err
	}
	for _, r := range w.mem {
		if err := sp.write(r); err != nil {
			return err
		}
	}
	rd, err := sp.finish()
	if err != nil {
		return err
	}
	w.runs = append(w.runs, rd)
	w.mem = w.mem[:0]
	return nil
}

func (s *Sort) prepare() error {
	degree := s.ctx.AcquireWorkers(s.Parallel)
	defer s.ctx.ReleaseWorkers(degree)
	s.Trace.AddWorkers(int64(degree))
	budget := s.ctx.memShare(degree)
	workers := make([]*sortWorker, degree)
	for w := range workers {
		workers[w] = &sortWorker{s: s}
	}
	if err := fanOut(s.ctx, rowSlabs(s.In), degree, func(w int, slab []types.Row) error {
		sw := workers[w]
		state := int64(0)
		for _, r := range slab {
			state += int64(types.RowEncodedSize(r))
			sw.mem = append(sw.mem, r)
			if budget > 0 && len(sw.mem) >= budget {
				if err := sw.spill(); err != nil {
					return err
				}
			}
		}
		s.ctx.addState(state)
		return nil
	}, func(w int) error {
		workers[w].sortMem()
		return nil
	}); err != nil {
		return err
	}

	// How the result is served follows from what was produced, not from the
	// degree: a lone resident run is already the answer and is windowed
	// straight out of memory; anything more goes through the k-way merge.
	var spilled []*spillReader
	var resident [][]types.Row
	for _, sw := range workers {
		spilled = append(spilled, sw.runs...)
		if len(sw.mem) > 0 {
			resident = append(resident, sw.mem)
		}
	}
	if len(spilled) == 0 && len(resident) <= 1 {
		if len(resident) == 1 {
			s.mem = resident[0]
		}
		s.prepared = true
		return nil
	}
	s.merged = &mergeHeap{keys: s.Keys}
	for _, rd := range spilled {
		// Read-ahead is the one thing the grant decides here: with no second
		// thread granted, the merge decodes its spilled runs itself.
		var run runSource = rd
		if degree > 1 {
			run = newPrefetchRun(rd, s.ctx.batchRows())
		}
		if err := s.merged.add(run); err != nil {
			return err
		}
	}
	for _, rows := range resident {
		if err := s.merged.add(&memRun{rows: rows}); err != nil {
			return err
		}
	}
	s.prepared = true
	return nil
}

// NextBatch implements Operator: windows of the sorted resident rows, or
// slabs popped off the k-way merge when runs were spilled.
func (s *Sort) NextBatch() ([]types.Row, bool, error) {
	if !s.prepared {
		if err := s.prepare(); err != nil {
			return nil, false, err
		}
	}
	size := s.ctx.batchRows()
	if s.merged == nil {
		return nextWindow(s.mem, &s.pos, size)
	}
	out := s.slab[:0]
	for len(out) < size && s.merged.Len() > 0 {
		item := heap.Pop(s.merged).(mergeItem)
		out = append(out, item.row)
		if err := s.merged.add(item.src); err != nil {
			return nil, false, err
		}
	}
	s.slab = out
	return out, len(out) > 0, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	if s.merged != nil {
		for _, it := range s.merged.items {
			it.src.close()
		}
		s.merged = nil
	}
	s.spills.discardAll()
	return s.In.Close()
}

// runSource is one sorted run feeding the k-way merge: a spill file, a
// worker's resident final batch, or a prefetching decoder over a spill file.
type runSource interface {
	next() (types.Row, bool, error)
	close()
}

type mergeItem struct {
	row types.Row
	src runSource
}

type mergeHeap struct {
	items []mergeItem
	keys  []SortKey
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	return compareByKeys(h.items[i].row, h.items[j].row, h.keys) < 0
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// add pushes src's next row onto the heap, or closes src when it is
// exhausted (or failed).
func (h *mergeHeap) add(src runSource) error {
	r, ok, err := src.next()
	if err != nil || !ok {
		src.close()
		return err
	}
	heap.Push(h, mergeItem{row: r, src: src})
	return nil
}

// memRun serves a sorted resident batch as a merge source.
type memRun struct {
	rows []types.Row
	pos  int
}

func (m *memRun) next() (types.Row, bool, error) {
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	r := m.rows[m.pos]
	m.pos++
	return r, true, nil
}

func (m *memRun) close() {}

// prefetchRun decodes a spill run ahead of the k-way merge on its own
// goroutine, shipping slabs through a bounded channel — without it the
// merge's critical path pays every run's read+decode serially, which eats
// most of what parallel run generation won.
type prefetchRun struct {
	batches chan []types.Row
	errCh   chan error
	stop    chan struct{}
	cur     []types.Row
	pos     int
	closed  bool
}

func newPrefetchRun(src *spillReader, slab int) *prefetchRun {
	if slab <= 0 {
		slab = DefaultBatchRows
	}
	p := &prefetchRun{
		batches: make(chan []types.Row, 2),
		errCh:   make(chan error, 1),
		stop:    make(chan struct{}),
	}
	go func() {
		defer close(p.batches)
		defer src.close()
		buf := make([]types.Row, 0, slab)
		for {
			r, ok, err := src.next()
			if err != nil {
				select {
				case p.errCh <- err:
				case <-p.stop:
					// Consumer closed early; nobody will read the error.
				}
				return
			}
			if !ok {
				break
			}
			buf = append(buf, r)
			if len(buf) >= slab {
				select {
				case p.batches <- buf:
				case <-p.stop:
					return
				}
				buf = make([]types.Row, 0, slab)
			}
		}
		if len(buf) > 0 {
			select {
			case p.batches <- buf:
			case <-p.stop:
			}
		}
	}()
	return p
}

func (p *prefetchRun) next() (types.Row, bool, error) {
	for p.pos >= len(p.cur) {
		b, ok := <-p.batches
		if !ok {
			select {
			case err := <-p.errCh:
				return nil, false, err
			default:
				return nil, false, nil
			}
		}
		p.cur, p.pos = b, 0
	}
	r := p.cur[p.pos]
	p.pos++
	return r, true, nil
}

func (p *prefetchRun) close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.stop)
	// Drain so the decoder goroutine can exit. Bounded: the decoder
	// observes the closed stop channel and closes batches.
	go func(ch chan []types.Row) {
		for range ch {
		}
	}(p.batches)
}

// TopK keeps the best k rows by the sort keys using a bounded heap — the
// paper's LIMIT+ORDER BY implementation: each worker maintains a heap of
// its local top-k and the coordinator merges them.
type TopK struct {
	In   Operator
	Keys []SortKey
	K    int
	ctx  *Ctx

	results  []types.Row
	pos      int
	prepared bool
}

// NewTopK builds a top-k operator.
func NewTopK(ctx *Ctx, in Operator, keys []SortKey, k int) *TopK {
	return &TopK{In: in, Keys: keys, K: k, ctx: ctx}
}

// Schema implements Operator.
func (t *TopK) Schema() types.Schema { return t.In.Schema() }

// Open implements Operator.
func (t *TopK) Open() error {
	t.results, t.pos, t.prepared = nil, 0, false
	return t.In.Open()
}

func (t *TopK) prepare() error {
	// boundedHeap holds the current top-k with the WORST row at the root,
	// so a newly arriving better row replaces the root — exactly the
	// paper's description (min-heap for descending order).
	h := &boundedHeap{keys: t.Keys}
	if err := drain(t.ctx, t.In.NextBatch, func(b []types.Row) error {
		if t.ctx != nil {
			t.ctx.RowsProcessed.Add(int64(len(b)))
		}
		for _, r := range b {
			if h.Len() < t.K {
				heap.Push(h, r)
			} else if compareByKeys(r, h.rows[0], t.Keys) < 0 {
				h.rows[0] = r
				heap.Fix(h, 0)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	t.results = make([]types.Row, h.Len())
	for i := len(t.results) - 1; i >= 0; i-- {
		t.results[i] = heap.Pop(h).(types.Row)
	}
	t.prepared = true
	return nil
}

// NextBatch implements Operator, serving the prepared top-k in slabs.
func (t *TopK) NextBatch() ([]types.Row, bool, error) {
	if !t.prepared {
		if err := t.prepare(); err != nil {
			return nil, false, err
		}
	}
	return nextWindow(t.results, &t.pos, t.ctx.batchRows())
}

// Close implements Operator.
func (t *TopK) Close() error { return t.In.Close() }

// boundedHeap orders rows so the WORST (by sort keys) is at the root.
type boundedHeap struct {
	rows []types.Row
	keys []SortKey
}

func (h *boundedHeap) Len() int { return len(h.rows) }
func (h *boundedHeap) Less(i, j int) bool {
	return compareByKeys(h.rows[i], h.rows[j], h.keys) > 0
}
func (h *boundedHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *boundedHeap) Push(x interface{}) { h.rows = append(h.rows, x.(types.Row)) }
func (h *boundedHeap) Pop() interface{} {
	old := h.rows
	n := len(old)
	r := old[n-1]
	h.rows = old[:n-1]
	return r
}
