package exec

import (
	"repro/internal/expr"
	"repro/internal/external"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// feed adapts a callback-style scan into a pull operator by running the
// scan in a goroutine (the paper spawns one scan thread per table fragment;
// this goroutine is that thread). T is what crosses the goroutine boundary:
// a row slab ([]types.Row) for the row and external scans, a typed column
// batch (*vec.Batch) for the columnar scan — one channel select per slab
// instead of per row. Every shipped slab was freshly built by its producer
// and is never touched by it again, so the consumer owns it outright.
type feed[T any] struct {
	sch     types.Schema
	start   func() error // the scan; ships through ports taken from port()
	cancel  *Cancel
	batch   int // rows per slab; zero selects DefaultBatchRows at Open
	slabs   chan T
	errCh   chan error
	stop    chan struct{}
	started bool
	closed  bool
}

func (s *feed[T]) Schema() types.Schema { return s.sch }

func (s *feed[T]) Open() error {
	if s.batch <= 0 {
		s.batch = DefaultBatchRows
	}
	s.slabs = make(chan T, DefaultScanFeedDepth)
	s.errCh = make(chan error, 1)
	s.stop = make(chan struct{})
	s.started = false
	s.closed = false
	return nil
}

func (s *feed[T]) launch() {
	s.started = true
	go func() {
		if err := s.start(); err != nil {
			select {
			case s.errCh <- err:
			case <-s.stop:
				// Consumer closed early; nobody will read the error.
			}
		}
		close(s.slabs)
	}()
}

// next returns the next shipped slab; the scan thread starts on first use.
func (s *feed[T]) next() (slab T, ok bool, err error) {
	if !s.started {
		s.launch()
	}
	if slab, ok = <-s.slabs; ok {
		return slab, true, nil
	}
	select {
	case err = <-s.errCh:
		return slab, false, err
	default:
	}
	// A killed scan stops producing mid-stream; surface the kill cause so
	// the truncated stream can never be mistaken for normal exhaustion.
	return slab, false, s.cancel.Err()
}

func (s *feed[T]) Close() error {
	if !s.closed {
		s.closed = true
		if s.stop != nil {
			close(s.stop)
		}
		// Drain so the producer goroutine can exit. Bounded: the producer
		// observes the closed stop channel via feedPort.ship and closes
		// slabs, which ends this loop.
		if s.slabs != nil {
			go func(ch chan T) {
				for range ch {
				}
			}(s.slabs)
		}
	}
	return nil
}

// port returns one producer's end of the feed. A scan of degree N takes N
// ports — one per worker, each accumulating a private slab — over the one
// shared channel, so slabs stay single-producer-built while the consumer
// sees one merged stream.
func (s *feed[T]) port() feedPort[T] {
	return feedPort[T]{out: s.slabs, stop: s.stop, cancel: s.cancel}
}

// feedPort ships finished slabs to the feed's consumer.
type feedPort[T any] struct {
	out    chan<- T
	stop   <-chan struct{}
	cancel *Cancel
}

// ship hands one slab over. It returns false when the scan should abort:
// the consumer has closed the feed, or the query was killed (the consumer
// learns the cause from feed.next or the coordinator's cancel guard).
func (p *feedPort[T]) ship(slab T) bool {
	select {
	case p.out <- slab:
		return true
	case <-p.stop:
		return false
	case <-p.cancel.Done():
		return false
	}
}

// rowFeed is the feed of the row-slab scans.
type rowFeed struct{ feed[[]types.Row] }

// NextBatch implements Operator.
func (s *rowFeed) NextBatch() ([]types.Row, bool, error) { return s.next() }

// ScanConfig controls predicate pushdown into a fragment scan.
type ScanConfig struct {
	// Pred is the scan predicate, bound to the fragment schema; rows not
	// matching are dropped at the scan (selection pushdown). May be nil.
	Pred expr.Expr
	// Cols lists, ascending, the fragment columns the scan emits (projection
	// pushdown); nil emits all of them. Pred sees the whole fragment row
	// whatever Cols says, so a columnar scan reads Cols and Pred's columns
	// and emits Cols.
	Cols []int
	// Boxed marks, by fragment column, the string columns a row-table scan
	// keeps boxed instead of dictionary-coding them: those whose values are
	// mostly distinct, where a dictionary would intern nearly every cell.
	// May be nil: every string column is dictionary-coded.
	Boxed []bool
	// UseSkipCache / UseMinMax enable the two skipping schemes.
	UseSkipCache bool
	UseMinMax    bool
	// Trace, when non-nil, receives the scan's page/row counters as span
	// annotations (written once, atomically, when the scan thread finishes).
	Trace *obs.Span
	// Parallel is the desired scan degree: the scan thread asks Ctx's budget
	// for that many morsel workers and runs with what it is granted; 0/1
	// scan on the scan thread alone.
	Parallel int
	// Ctx supplies the worker budget for parallel scans, the kill switch and
	// the size of the slabs the scan hands downstream. Nil grants Parallel
	// workers unconditionally.
	Ctx *Ctx
}

func buildScanOptions(cfg ScanConfig, table types.Schema) storage.ScanOptions {
	opts := storage.ScanOptions{
		UseCache:   cfg.UseSkipCache,
		UseMinMax:  cfg.UseMinMax,
		Predeclare: true,
	}
	if cfg.Pred != nil {
		conj, complete := expr.ToSkipConj(cfg.Pred, table)
		opts.SkipConj = conj
		opts.SkipComplete = complete
	}
	return opts
}

// scanSchemas returns a fragment's schema under the scan's alias, which the
// scan predicate is bound to, and the part of it the scan emits.
func scanSchemas(table types.Schema, alias string, cols []int) (full, out types.Schema) {
	full = table
	if alias != "" {
		full = full.Qualify(alias)
	}
	if cols == nil {
		return full, full
	}
	return full, full.Project(cols)
}

// ScanColumns resolves the columns a scan of an n-column table touches:
// emit, the table offsets it emits (cols, or all n when cols is nil); isPred,
// by table offset, whether pred reads the column; and read, their union —
// what the scan decodes.
func ScanColumns(n int, cols []int, pred expr.Expr) (emit []int, isPred, read []bool) {
	emit = cols
	if emit == nil {
		emit = make([]int, n)
		for i := range emit {
			emit[i] = i
		}
	}
	isPred = make([]bool, n)
	expr.Walk(pred, func(x expr.Expr) {
		if c, ok := x.(*expr.Col); ok && c.Index >= 0 && c.Index < n {
			isPred[c.Index] = true
		}
	})
	read = append([]bool(nil), isPred...)
	for _, c := range emit {
		read[c] = true
	}
	return emit, isPred, read
}

// rowCopier is the external scan's end of the feed. The rows it is handed
// are borrowed, so it copies each into a staging array; a slab, when it
// ships, gets one backing array sized to the rows it holds, and each row is
// that array's segment capped at its width, so an append downstream copies
// instead of writing into the next row.
type rowCopier struct {
	feedPort[[]types.Row]
	width int
	size  int
	vals  []types.Value // the staged rows, width values each
	rows  int
}

func newRowCopier(port feedPort[[]types.Row], width, size int) *rowCopier {
	return &rowCopier{feedPort: port, width: width, size: size}
}

// send stages r, shipping a slab once size rows are staged. It returns
// false when the consumer is gone and the scan should abort.
func (c *rowCopier) send(r types.Row) bool {
	c.vals = append(c.vals, r...)
	if c.rows++; c.rows >= c.size {
		return c.flush()
	}
	return true
}

// flush ships the staged rows (if any) as one slab.
func (c *rowCopier) flush() bool {
	if c.rows == 0 {
		return true
	}
	w := c.width
	back := append(make([]types.Value, 0, len(c.vals)), c.vals...)
	slab := make([]types.Row, c.rows)
	for i := range slab {
		slab[i] = back[i*w : (i+1)*w : (i+1)*w]
	}
	c.vals, c.rows = c.vals[:0], 0
	return c.ship(slab)
}

// ExternalScan reads assigned partitions of an external table.
type ExternalScan struct {
	rowFeed
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
	es.sch = sch
	es.start = es.run
	return es
}

func (es *ExternalScan) run() error {
	snd := newRowCopier(es.port(), es.sch.Len(), es.batch)
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
