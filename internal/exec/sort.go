package exec

import (
	"container/heap"
	"sort"
	"sync"

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

// Sort is an external merge sort: it buffers up to MemRows rows, writes
// sorted runs to spill files, and merges them with a loser-tree-free k-way
// heap merge. This is the leaf-level phase of the paper's distributed
// n-way merge sort; the tree topology's upper levels use MergeReceive.
type Sort struct {
	In   Operator
	Keys []SortKey
	// Parallel is the desired run-generation parallelism. Values above 1
	// make prepare acquire extra workers from the Ctx budget and generate
	// sorted runs concurrently; 0/1 keep the serial sort. The parallel
	// order equals the serial order except that rows with fully equal sort
	// keys may tie-break differently (run assignment is nondeterministic).
	Parallel int
	// Trace, when non-nil, records the granted worker count.
	Trace *obs.Span
	ctx   *Ctx

	mem      []types.Row
	runs     []*spillReader
	merged   *mergeHeap
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
	s.mem, s.runs, s.merged, s.prepared, s.pos = nil, nil, nil, false, 0
	return s.In.Open()
}

func (s *Sort) sortMem() {
	sort.SliceStable(s.mem, func(i, j int) bool {
		return compareByKeys(s.mem[i], s.mem[j], s.Keys) < 0
	})
}

func (s *Sort) spillRun() error {
	s.sortMem()
	w, err := newSpillWriter(s.ctx, "sort-run-*")
	if err != nil {
		return err
	}
	for _, r := range s.mem {
		if err := w.write(r); err != nil {
			w.abort()
			return err
		}
	}
	rd, err := w.finish()
	if err != nil {
		return err
	}
	s.runs = append(s.runs, rd)
	s.mem = s.mem[:0]
	return nil
}

func (s *Sort) prepare() error {
	degree := 1
	if s.Parallel > 1 {
		degree = s.ctx.AcquireWorkers(s.Parallel)
		defer s.ctx.ReleaseWorkers(degree)
	}
	if degree > 1 {
		return s.prepareParallel(degree)
	}
	if err := drain(s.ctx, s.In, func(b []types.Row) error {
		for _, r := range b {
			if s.ctx != nil {
				s.ctx.RowsProcessed.Add(1)
				s.ctx.addState(int64(types.RowEncodedSize(r)))
			}
			s.mem = append(s.mem, r)
			if s.ctx != nil && s.ctx.MemRows > 0 && len(s.mem) >= s.ctx.MemRows {
				if err := s.spillRun(); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	s.sortMem()
	if len(s.runs) > 0 {
		// The final resident batch becomes one more run of the k-way merge;
		// a pure in-memory sort is served straight out of s.mem.
		s.merged = &mergeHeap{keys: s.Keys}
		for _, run := range s.runs {
			if err := s.merged.add(run); err != nil {
				return err
			}
		}
		if err := s.merged.add(&memRun{rows: s.mem}); err != nil {
			return err
		}
		s.mem = nil
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

// sortWorker is one parallel run-generation worker's state.
type sortWorker struct {
	runs []*spillReader
	mem  []types.Row
}

// prepareParallel generates sorted runs with degree workers: the input is
// fanned out slab-at-a-time, each worker accumulates its share, spills one
// sorted run whenever its share of the memory budget fills, and sorts its
// final resident batch in memory. All runs — spilled ones behind prefetching
// decoders, resident batches directly — feed the same k-way heap merge the
// serial path uses.
func (s *Sort) prepareParallel(degree int) error {
	localBudget := 0
	if s.ctx != nil && s.ctx.MemRows > 0 {
		localBudget = s.ctx.MemRows / degree
		if localBudget < 1 {
			localBudget = 1
		}
	}
	workers := make([]*sortWorker, degree)
	batches := make(chan []types.Row, degree)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	errCh := make(chan error, degree)
	var wg sync.WaitGroup
	for w := 0; w < degree; w++ {
		sw := &sortWorker{}
		workers[w] = sw
		wg.Add(1)
		go func(sw *sortWorker) {
			defer wg.Done()
			sortLocal := func() {
				sort.SliceStable(sw.mem, func(i, j int) bool {
					return compareByKeys(sw.mem[i], sw.mem[j], s.Keys) < 0
				})
			}
			spillLocal := func() error {
				sortLocal()
				sp, err := newSpillWriter(s.ctx, "sort-run-*")
				if err != nil {
					return err
				}
				for _, r := range sw.mem {
					if err := sp.write(r); err != nil {
						sp.abort()
						return err
					}
				}
				rd, err := sp.finish()
				if err != nil {
					return err
				}
				sw.runs = append(sw.runs, rd)
				sw.mem = sw.mem[:0]
				return nil
			}
			for {
				select {
				case <-stop:
					return
				case batch, ok := <-batches:
					if !ok {
						sortLocal()
						return
					}
					for _, r := range batch {
						if s.ctx != nil {
							s.ctx.RowsProcessed.Add(1)
							s.ctx.addState(int64(types.RowEncodedSize(r)))
						}
						sw.mem = append(sw.mem, r)
						if localBudget > 0 && len(sw.mem) >= localBudget {
							if err := spillLocal(); err != nil {
								errCh <- err
								halt()
								return
							}
						}
					}
				}
			}
		}(sw)
	}
	feedErr := feedRowBatches(s.ctx, s.In, batches, stop)
	close(batches)
	wg.Wait()
	var firstErr error
	select {
	case firstErr = <-errCh:
	default:
		firstErr = feedErr
	}
	if firstErr != nil {
		for _, sw := range workers {
			for _, rd := range sw.runs {
				rd.close()
			}
		}
		return firstErr
	}
	s.mem = nil
	s.merged = &mergeHeap{keys: s.Keys}
	slab := s.ctx.batchRows()
	for _, sw := range workers {
		for _, rd := range sw.runs {
			if err := s.merged.add(newPrefetchRun(rd, slab)); err != nil {
				return err
			}
		}
		if len(sw.mem) > 0 {
			if err := s.merged.add(&memRun{rows: sw.mem}); err != nil {
				return err
			}
		}
	}
	s.Trace.AddWorkers(int64(degree))
	s.prepared = true
	return nil
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
	if err := drain(t.ctx, t.In, func(b []types.Row) error {
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
