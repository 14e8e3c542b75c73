package exec

import (
	"repro/internal/expr"
	"repro/internal/external"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/types"
)

// scanFeed adapts a callback-style scan into a pull operator by running the
// scan in a goroutine (the paper spawns one scan thread per table fragment;
// this goroutine is that thread). Rows cross the goroutine boundary in
// slabs — one channel select per batch instead of per row — which is where
// the scan-side win of the vectorized path comes from.
type scanFeed struct {
	sch     types.Schema
	start   func(snd *batchSender) error
	batches chan []types.Row
	errCh   chan error
	stop    chan struct{}
	cancel  *Cancel
	batch   int
	started bool
	closed  bool
}

func (s *scanFeed) Schema() types.Schema { return s.sch }

func (s *scanFeed) Open() error {
	if s.batch <= 0 {
		s.batch = DefaultBatchRows
	}
	s.batches = make(chan []types.Row, DefaultScanFeedDepth)
	s.errCh = make(chan error, 1)
	s.stop = make(chan struct{})
	s.started = false
	s.closed = false
	return nil
}

func (s *scanFeed) launch() {
	s.started = true
	go func() {
		snd := &batchSender{out: s.batches, stop: s.stop, cancel: s.cancel, size: s.batch}
		err := s.start(snd)
		if err != nil {
			select {
			case s.errCh <- err:
			case <-s.stop:
				// Consumer closed early; nobody will read the error.
			}
		}
		close(s.batches)
	}()
}

// NextBatch implements Operator. Each received slab was freshly
// allocated by the scan thread, so handing it to the caller (who may
// compact it in place) is safe.
func (s *scanFeed) NextBatch() ([]types.Row, bool, error) {
	if !s.started {
		s.launch()
	}
	b, ok := <-s.batches
	if ok {
		return b, true, nil
	}
	select {
	case err := <-s.errCh:
		return nil, false, err
	default:
	}
	// A killed scan stops producing mid-stream; surface the kill cause so
	// the truncated stream can never be mistaken for normal exhaustion.
	if err := s.cancel.Err(); err != nil {
		return nil, false, err
	}
	return nil, false, nil
}

func (s *scanFeed) Close() error {
	if !s.closed {
		s.closed = true
		if s.stop != nil {
			close(s.stop)
		}
		// Drain so the producer goroutine can exit. Bounded: the producer
		// observes the closed stop channel via batchSender.flush and closes
		// batches, which ends this loop.
		if s.batches != nil {
			go func(ch chan []types.Row) {
				for range ch {
				}
			}(s.batches)
		}
	}
	return nil
}

// batchSender accumulates rows into a slab and ships the slab when full,
// unless the consumer has gone away. It replaces the old per-row
// sendRow select: the channel synchronization now costs one select per
// size rows.
type batchSender struct {
	out    chan<- []types.Row
	stop   <-chan struct{}
	cancel *Cancel
	slab   []types.Row
	size   int
	sent   int64
}

// send buffers one row, flushing when the slab is full. It returns false
// when the consumer is gone and the scan should abort.
func (b *batchSender) send(r types.Row) bool {
	if b.slab == nil {
		b.slab = make([]types.Row, 0, b.size)
	}
	b.slab = append(b.slab, r)
	if len(b.slab) >= b.size {
		return b.flush()
	}
	return true
}

// flush ships the current slab (if any). The sender allocates a fresh slab
// afterwards — the consumer owns shipped slabs per the batch contract.
func (b *batchSender) flush() bool {
	if len(b.slab) == 0 {
		return true
	}
	select {
	case b.out <- b.slab:
		b.sent++
		b.slab = make([]types.Row, 0, b.size)
		return true
	case <-b.stop:
		return false
	case <-b.cancel.Done():
		// Killed query: stop producing. The consumer learns the cause from
		// scanFeed.NextBatch (or the coordinator's cancel guard).
		return false
	}
}

// ScanConfig controls predicate pushdown into a fragment scan.
type ScanConfig struct {
	// Pred is the scan predicate, bound to the fragment schema; rows not
	// matching are dropped at the scan (selection pushdown). May be nil.
	Pred expr.Expr
	// UseSkipCache / UseMinMax enable the two skipping schemes.
	UseSkipCache bool
	UseMinMax    bool
	// Predeclare enables buffer-manager scan pre-declaration.
	Predeclare bool
	// BatchRows sizes the slabs the scan thread hands downstream; zero
	// selects DefaultBatchRows.
	BatchRows int
	// Stats, when non-nil, receives the scan's page/row counters.
	Stats *storage.ScanStats
	// Trace, when non-nil, receives the same counters as span annotations
	// (written once, atomically, when the scan thread finishes).
	Trace *obs.Span
	// Parallel is the desired scan parallelism. Values above 1 make the
	// scan thread acquire extra workers from Ctx's budget and run a
	// morsel-driven parallel scan; 0/1 keep the serial scan.
	Parallel int
	// Ctx supplies the worker budget for parallel scans and the kill
	// switch. Nil grants Parallel workers unconditionally.
	Ctx *Ctx
}

func buildScanOptions(cfg ScanConfig) storage.ScanOptions {
	opts := storage.ScanOptions{
		UseCache:   cfg.UseSkipCache,
		UseMinMax:  cfg.UseMinMax,
		Predeclare: cfg.Predeclare,
	}
	if cfg.Pred != nil {
		conj, complete := expr.ToSkipConj(cfg.Pred)
		opts.SkipConj = conj
		opts.SkipComplete = complete
	}
	return opts
}

// FragmentScan is the row-table scan operator.
type FragmentScan struct {
	scanFeed
	fr  *storage.Fragment
	cfg ScanConfig
}

// NewRowScan builds a scan over a row fragment.
func NewRowScan(fr *storage.Fragment, alias string, cfg ScanConfig) *FragmentScan {
	sch := fr.Def.Schema
	if alias != "" {
		sch = sch.Qualify(alias)
	}
	fs := &FragmentScan{fr: fr, cfg: cfg}
	fs.scanFeed.sch = sch
	fs.scanFeed.start = fs.run
	fs.scanFeed.batch = cfg.BatchRows
	fs.scanFeed.cancel = cfg.Ctx.Cancel()
	return fs
}

func (fs *FragmentScan) run(snd *batchSender) error {
	opts := buildScanOptions(fs.cfg)
	degree := 1
	if fs.cfg.Parallel > 1 {
		degree = fs.cfg.Ctx.AcquireWorkers(fs.cfg.Parallel)
		defer fs.cfg.Ctx.ReleaseWorkers(degree)
	}
	if degree > 1 {
		return fs.runParallel(snd, opts, degree)
	}
	var evalErr error
	stats, err := fs.fr.Scan(opts, func(rid page.RID, r types.Row) bool {
		if fs.cfg.Pred != nil {
			keep, err := expr.EvalBool(fs.cfg.Pred, r)
			if err != nil {
				evalErr = err
				return false
			}
			if !keep {
				return true
			}
		}
		return snd.send(r)
	})
	snd.flush()
	if fs.cfg.Stats != nil {
		*fs.cfg.Stats = stats
	}
	fs.cfg.Trace.AddScan(stats.RowsRead, stats.PagesRead, stats.PagesSkipped)
	fs.cfg.Trace.AddBatches(snd.sent)
	if evalErr != nil {
		return evalErr
	}
	return err
}

// runParallel fans the scan out to degree morsel workers. Every worker gets
// a private batchSender (private slab accumulation) over the shared slab
// channel, so slabs stay single-producer-built while the consumer sees one
// merged stream; residual slabs are flushed after the workers join.
func (fs *FragmentScan) runParallel(snd *batchSender, opts storage.ScanOptions, degree int) error {
	senders := make([]*batchSender, degree)
	for i := range senders {
		senders[i] = &batchSender{out: snd.out, stop: snd.stop, cancel: snd.cancel, size: snd.size}
	}
	evalErrs := make([]error, degree)
	stats, err := fs.fr.ParallelScan(opts, degree, storage.DefaultMorselPages, func(w int, rid page.RID, r types.Row) bool {
		if fs.cfg.Pred != nil {
			keep, perr := expr.EvalBool(fs.cfg.Pred, r)
			if perr != nil {
				evalErrs[w] = perr
				return false
			}
			if !keep {
				return true
			}
		}
		return senders[w].send(r)
	})
	var sent int64
	for _, ws := range senders {
		ws.flush()
		sent += ws.sent
	}
	if fs.cfg.Stats != nil {
		*fs.cfg.Stats = stats
	}
	fs.cfg.Trace.AddScan(stats.RowsRead, stats.PagesRead, stats.PagesSkipped)
	fs.cfg.Trace.AddBatches(sent)
	fs.cfg.Trace.AddWorkers(int64(degree))
	for _, e := range evalErrs {
		if e != nil {
			return e
		}
	}
	return err
}

// ColumnarScan is the PAX-table scan operator.
type ColumnarScan struct {
	scanFeed
	fr  *storage.ColumnarFragment
	cfg ScanConfig
}

// NewColumnarScan builds a scan over a columnar fragment.
func NewColumnarScan(fr *storage.ColumnarFragment, alias string, cfg ScanConfig) *ColumnarScan {
	sch := fr.Def.Schema
	if alias != "" {
		sch = sch.Qualify(alias)
	}
	cs := &ColumnarScan{fr: fr, cfg: cfg}
	cs.scanFeed.sch = sch
	cs.scanFeed.start = cs.run
	cs.scanFeed.batch = cfg.BatchRows
	cs.scanFeed.cancel = cfg.Ctx.Cancel()
	return cs
}

func (cs *ColumnarScan) run(snd *batchSender) error {
	opts := buildScanOptions(cs.cfg)
	degree := 1
	if cs.cfg.Parallel > 1 {
		degree = cs.cfg.Ctx.AcquireWorkers(cs.cfg.Parallel)
		defer cs.cfg.Ctx.ReleaseWorkers(degree)
	}
	if degree > 1 {
		return cs.runParallel(snd, opts, degree)
	}
	var evalErr error
	stats, err := cs.fr.Scan(opts, func(r types.Row) bool {
		if cs.cfg.Pred != nil {
			keep, err := expr.EvalBool(cs.cfg.Pred, r)
			if err != nil {
				evalErr = err
				return false
			}
			if !keep {
				return true
			}
		}
		return snd.send(r)
	})
	snd.flush()
	if cs.cfg.Stats != nil {
		*cs.cfg.Stats = stats
	}
	cs.cfg.Trace.AddScan(stats.RowsRead, stats.PagesRead, stats.PagesSkipped)
	cs.cfg.Trace.AddBatches(snd.sent)
	if evalErr != nil {
		return evalErr
	}
	return err
}

// runParallel fans the columnar scan out to degree page-set workers, one
// private batchSender per worker over the shared slab channel.
func (cs *ColumnarScan) runParallel(snd *batchSender, opts storage.ScanOptions, degree int) error {
	senders := make([]*batchSender, degree)
	for i := range senders {
		senders[i] = &batchSender{out: snd.out, stop: snd.stop, cancel: snd.cancel, size: snd.size}
	}
	evalErrs := make([]error, degree)
	stats, err := cs.fr.ParallelScan(opts, degree, 1, func(w int, r types.Row) bool {
		if cs.cfg.Pred != nil {
			keep, perr := expr.EvalBool(cs.cfg.Pred, r)
			if perr != nil {
				evalErrs[w] = perr
				return false
			}
			if !keep {
				return true
			}
		}
		return senders[w].send(r)
	})
	var sent int64
	for _, ws := range senders {
		ws.flush()
		sent += ws.sent
	}
	if cs.cfg.Stats != nil {
		*cs.cfg.Stats = stats
	}
	cs.cfg.Trace.AddScan(stats.RowsRead, stats.PagesRead, stats.PagesSkipped)
	cs.cfg.Trace.AddBatches(sent)
	cs.cfg.Trace.AddWorkers(int64(degree))
	for _, e := range evalErrs {
		if e != nil {
			return e
		}
	}
	return err
}

// ExternalScan reads assigned partitions of an external table.
type ExternalScan struct {
	scanFeed
	tbl   external.Table
	parts []int
	pred  expr.Expr
}

// NewExternalScan builds a scan over the given partitions of an external
// table.
func NewExternalScan(tbl external.Table, parts []int, alias string, pred expr.Expr) *ExternalScan {
	sch := tbl.Schema()
	if alias != "" {
		sch = sch.Qualify(alias)
	}
	es := &ExternalScan{tbl: tbl, parts: parts, pred: pred}
	es.scanFeed.sch = sch
	es.scanFeed.start = es.run
	return es
}

func (es *ExternalScan) run(snd *batchSender) error {
	var evalErr error
	for _, p := range es.parts {
		err := es.tbl.ScanPartition(p, func(r types.Row) bool {
			if es.pred != nil {
				keep, err := expr.EvalBool(es.pred, r)
				if err != nil {
					evalErr = err
					return false
				}
				if !keep {
					return true
				}
			}
			return snd.send(r)
		})
		if evalErr != nil {
			return evalErr
		}
		if err != nil {
			return err
		}
	}
	snd.flush()
	return nil
}
