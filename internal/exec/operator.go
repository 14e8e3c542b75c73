// Package exec implements HRDBMS's execution engine (Section IV): pull-based
// pipelined relational operators with exchange operators encapsulating
// intra-operator parallelism and the network edges between nodes. Operators
// run fully in memory once data is read from disk and spill to temporary
// files only when their input exceeds the memory budget, as the paper
// prescribes.
package exec

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/types"
)

// Slab size defaults. DefaultBatchRows sizes operator slabs;
// DefaultWireBatchRows sizes exchange messages (smaller, so a shuffle
// keeps many destinations' buffers resident without ballooning memory).
// Both are overridden together by Ctx.BatchRows.
const (
	DefaultBatchRows     = 1024
	DefaultWireBatchRows = 128
)

// Operator is the pull iterator every relational operator implements: rows
// move between operators only in slabs. Moving a slab per call amortizes
// the two dominant per-row costs of a row-at-a-time engine — the channel
// select in every producer goroutine (scan threads, shuffle receive loops,
// probe workers) and the interface calls per row per operator.
//
// Ownership contract: the slice NextBatch returns is valid only until the
// next NextBatch or Close call, and the CALLER owns it in the meantime — it
// may compact, reorder, or truncate the slice in place (Filter does).
// Producers must therefore never return a slice that aliases state they
// re-read (fresh slabs, retired result regions, and reused scratch slabs
// are all fine). The row values inside a slab are immutable and may be
// retained indefinitely.
type Operator interface {
	// Schema describes the rows NextBatch returns.
	Schema() types.Schema
	// Open prepares the operator (and its inputs) for iteration.
	Open() error
	// NextBatch returns the next slab of rows; ok=false signals
	// exhaustion. Implementations never return an empty slab with ok=true.
	NextBatch() (slab []types.Row, ok bool, err error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// Counters is the metering block shared by every Ctx derived from one
// node context. It lives behind a pointer so a per-query child Ctx (see
// Child) still charges the node-level counters the cluster gauges and
// runMetered diffs read, and so Ctx itself stays shallow-copyable.
type Counters struct {
	// RowsProcessed, SpillBytes, SpillFiles meter work for the
	// performance model.
	RowsProcessed atomic.Int64
	SpillBytes    atomic.Int64
	SpillFiles    atomic.Int64
	// StateBytes accumulates the bytes held by stateful operators (hash
	// join build sides, aggregation tables, sort buffers) — the memory
	// working set the paper's OOM discussion is about.
	StateBytes atomic.Int64
	// DecodeTypedPages counts the pages the typed scans decoded into
	// batches: column pages, and a row table's pages. There is no boxed
	// decode to count beside it: a column holds only its own kind, which
	// storage enforces, so a cell of another kind is a corrupt page.
	DecodeTypedPages atomic.Int64
	// PredRowSets counts the page sets of a columnar scan, and the pages of
	// a row-table scan, whose predicate was evaluated row by row through
	// expr.EvalBool because a conjunct of it has no compiled kernel.
	PredRowSets atomic.Int64
	// BoxedRows counts rows boxed on the way from a typed producer to a row
	// consumer: every row a columnar scan's NextBatch materialized (a row
	// table's rows are boxed at rest, so its scan's are not counted), and
	// every row the aggregate's typed front end read boxed (an argument or key with
	// no kernel, or a spill). Zero on a worker means scan batches reached the
	// aggregate as typed columns.
	BoxedRows atomic.Int64
}

// Ctx carries per-query execution state shared by the operators of one
// plan fragment on one node.
type Ctx struct {
	// TempDir receives spill files. Empty disables spilling (operators
	// fail instead of spilling).
	TempDir string
	// MemRows is the per-operator in-memory row budget before spilling.
	// Zero means unlimited.
	MemRows int
	// BatchRows sizes the slabs the vectorized path moves between
	// operators and, for exchanges, the rows per wire message. Zero keeps
	// the defaults (DefaultBatchRows for operator slabs,
	// DefaultWireBatchRows for exchange messages).
	BatchRows int

	// Counters meters work into the node-level block shared with every
	// sibling Ctx of the same node (see Child).
	*Counters

	// parallelBudget, when set, bounds the node's total intra-operator
	// parallelism: operators acquire worker tokens and degrade gracefully
	// to fewer threads when the node is busy (the paper's worker-local
	// resource management: "worker nodes manage memory and degree of
	// parallelism individually").
	parallelBudget chan struct{}

	// cancel, when set, aborts the fragment between batches: scan feeds
	// stop producing, exchanges stop sending (but still EOF their peers),
	// and pull loops surface the cause. Nil means uncancellable.
	cancel *Cancel
}

// Child derives a per-query context from a node context: tuning knobs are
// copied (callers may then override per session), while the metering
// counters and the node's parallel budget stay shared, so concurrent
// queries on one node still compete for the same worker tokens and show up
// in the same gauges. The cancel handle is private to the child.
func (c *Ctx) Child(cancel *Cancel) *Ctx {
	child := *c
	child.cancel = cancel
	return &child
}

// Cancel returns the context's cancellation handle (nil if none).
func (c *Ctx) Cancel() *Cancel {
	if c == nil {
		return nil
	}
	return c.cancel
}

// canceled reports whether the fragment should abort, with the cause.
func (c *Ctx) canceled() error {
	if c == nil || c.cancel == nil {
		return nil
	}
	return c.cancel.Err()
}

// SetParallelBudget installs a node-wide cap on extra operator threads.
func (c *Ctx) SetParallelBudget(tokens int) {
	if tokens < 0 {
		tokens = 0
	}
	c.parallelBudget = make(chan struct{}, tokens)
	for i := 0; i < tokens; i++ {
		c.parallelBudget <- struct{}{}
	}
}

// AcquireWorkers grants between 1 and want degrees of parallelism without
// blocking: the first degree is always free; extra degrees come from the
// node budget if available right now.
func (c *Ctx) AcquireWorkers(want int) int {
	if want < 1 {
		want = 1
	}
	granted := 1
	if c == nil || c.parallelBudget == nil {
		return want
	}
	for granted < want {
		select {
		case <-c.parallelBudget:
			granted++
		default:
			return granted
		}
	}
	return granted
}

// ReleaseWorkers returns extra degrees to the node budget.
func (c *Ctx) ReleaseWorkers(granted int) {
	if c == nil || c.parallelBudget == nil {
		return
	}
	for i := 1; i < granted; i++ {
		select {
		case c.parallelBudget <- struct{}{}:
		default:
			return
		}
	}
}

// batchRows resolves the operator slab size; nil-safe.
func (c *Ctx) batchRows() int {
	if c == nil || c.BatchRows <= 0 {
		return DefaultBatchRows
	}
	return c.BatchRows
}

// wireBatchRows resolves the rows per exchange message; nil-safe. The
// wire default is smaller than the slab default so a shuffle can keep a
// buffer per destination without ballooning memory, but an explicit
// Ctx.BatchRows overrides both together (satisfying "one knob").
func (c *Ctx) wireBatchRows() int {
	if c == nil || c.BatchRows <= 0 {
		return DefaultWireBatchRows
	}
	return c.BatchRows
}

// memShare is one of degree workers' share of the MemRows budget: at least
// one row, or 0 when the budget is unlimited. nil-safe.
func (c *Ctx) memShare(degree int) int {
	if c == nil || c.MemRows <= 0 {
		return 0
	}
	return max(c.MemRows/degree, 1)
}

// DefaultGraceFanout is the grace hash join's spill partition count.
const DefaultGraceFanout = 16

// DefaultScanFeedDepth is how many slabs a scan thread may buffer ahead
// of its consumer.
const DefaultScanFeedDepth = 4

// addState records operator state bytes when a context is present.
func (c *Ctx) addState(n int64) {
	if c != nil {
		c.StateBytes.Add(n)
	}
}

// addRows meters rows an operator processed when a context is present.
func (c *Ctx) addRows(n int) {
	if c != nil {
		c.RowsProcessed.Add(int64(n))
	}
}

// addBoxed counts rows boxed off a typed batch when a context is present.
func (c *Ctx) addBoxed(n int64) {
	if c != nil && n > 0 {
		c.BoxedRows.Add(n)
	}
}

// NewCtx builds a context with a temp dir and row budget.
func NewCtx(tempDir string, memRows int) *Ctx {
	return &Ctx{TempDir: tempDir, MemRows: memRows, Counters: &Counters{}}
}

func (c *Ctx) tempFile(pattern string) (*os.File, error) {
	if c.TempDir == "" {
		return nil, fmt.Errorf("exec: operator needs to spill but no temp dir configured")
	}
	f, err := os.CreateTemp(c.TempDir, pattern)
	if err != nil {
		return nil, fmt.Errorf("exec: create spill file: %w", err)
	}
	c.SpillFiles.Add(1)
	return f, nil
}

// errStopDrain, returned by a drain callback, ends the pull early without
// an error (the consumer already has one to report, or was closed).
var errStopDrain = errors.New("exec: stop drain")

// drain pulls next — an operator's NextBatch or NextVec — to exhaustion,
// handing every slab to fn. The kill switch is re-checked before each pull:
// a blocking consumer (sort, join build, aggregation) may sit over an input
// that produces many rows per upstream cancel check, and this bound keeps
// KILL latency at one slab regardless.
func drain[S any](ctx *Ctx, next func() (S, bool, error), fn func(slab S) error) error {
	for {
		if err := ctx.canceled(); err != nil {
			return err
		}
		b, ok, err := next()
		if err != nil || !ok {
			return err
		}
		if err := fn(b); err != nil {
			if err == errStopDrain {
				return nil
			}
			return err
		}
	}
}

// nextWindow serves a fully computed result in slabs: it returns the next
// window of at most size rows and advances *pos past it. The window is a
// region of rows that iteration has retired by the time the caller holds
// it, so the caller's in-place compaction is safe.
func nextWindow(rows []types.Row, pos *int, size int) ([]types.Row, bool, error) {
	if *pos >= len(rows) {
		return nil, false, nil
	}
	end := *pos + size
	if end > len(rows) {
		end = len(rows)
	}
	out := rows[*pos:end]
	*pos = end
	return out, true, nil
}

// Source yields rows from a slice; the leaf operator for tests, constant
// relations, and rebuffered intermediates.
type Source struct {
	Sch   types.Schema
	Rows  []types.Row
	pos   int
	batch int // slab size; zero selects DefaultBatchRows
	slab  []types.Row
}

// NewSource builds a source operator.
func NewSource(s types.Schema, rows []types.Row) *Source {
	return &Source{Sch: s, Rows: rows}
}

// Schema implements Operator.
func (s *Source) Schema() types.Schema { return s.Sch }

// Open implements Operator.
func (s *Source) Open() error { s.pos = 0; return nil }

// NextBatch implements Operator. Rows are copied into a reusable slab
// rather than sub-sliced out of s.Rows: the slab contract lets the
// consumer compact the slab in place, and that must not disturb the
// authoritative backing slice.
func (s *Source) NextBatch() ([]types.Row, bool, error) {
	if s.pos >= len(s.Rows) {
		return nil, false, nil
	}
	n := s.batch
	if n <= 0 {
		n = DefaultBatchRows
	}
	if rest := len(s.Rows) - s.pos; rest < n {
		n = rest
	}
	if cap(s.slab) < n {
		s.slab = make([]types.Row, n)
	}
	out := s.slab[:n]
	copy(out, s.Rows[s.pos:s.pos+n])
	s.pos += n
	return out, true, nil
}

// Close implements Operator.
func (s *Source) Close() error { return nil }

// Fold is a scalar computed from the rows of the Filter whose predicate
// holds it: the aggregates FoldAggs over every input row, then
// FoldResolve with the row of their values, before the predicate reads it.
// An expression with no FoldAggs is not one.
type Fold interface {
	FoldAggs() []AggSpec
	FoldResolve(aggs types.Row) error
}

// Filter passes rows whose predicate evaluates to (non-null) true. A
// predicate that holds a Fold makes it blocking: it drains its input,
// folding every row and holding it (past MemRows in a spill file), resolves
// the folds, then filters the held rows.
type Filter struct {
	In    Operator
	Pred  expr.Expr
	ctx   *Ctx
	folds []Fold

	held     []types.Row  // the input rows a fold held in memory
	spilled  *spillReader // and those past the budget, after them
	spills   spillSet
	pos      int
	prepared bool
}

// NewFilter builds a filter; the predicate must already be bound to the
// input schema.
func NewFilter(ctx *Ctx, in Operator, pred expr.Expr) *Filter {
	f := &Filter{In: in, Pred: pred, ctx: ctx}
	expr.Walk(pred, func(x expr.Expr) {
		if fd, ok := x.(Fold); ok && len(fd.FoldAggs()) > 0 {
			f.folds = append(f.folds, fd)
		}
	})
	return f
}

// Schema implements Operator.
func (f *Filter) Schema() types.Schema { return f.In.Schema() }

// Open implements Operator.
func (f *Filter) Open() error {
	f.held, f.spilled, f.pos, f.prepared = nil, nil, 0, len(f.folds) == 0
	return f.In.Open()
}

// fold drains the input into the folds' aggregates and the held rows, then
// resolves every fold.
func (f *Filter) fold() error {
	sch := f.In.Schema()
	specs := make([][]AggSpec, len(f.folds))
	cols := make([][]aggCol, len(f.folds))
	for i, fd := range f.folds {
		specs[i] = fd.FoldAggs()
		for j, k := range aggKinds(sch, 0, specs[i], false) {
			cols[i] = append(cols[i], newAggCol(specs[i][j].Kind, k, false))
			cols[i][j].grow()
		}
	}
	budget := f.ctx.memShare(1)
	var w *spillWriter
	err := drain(f.ctx, f.In.NextBatch, func(b []types.Row) error {
		f.ctx.addRows(len(b))
		state := int64(0)
		for _, r := range b {
			for i := range specs {
				for j, sp := range specs[i] {
					if sp.Arg == nil {
						cols[i][j].n[0]++
						continue
					}
					v, err := sp.Arg.Eval(r)
					if err != nil {
						return err
					}
					cols[i][j].add(0, v)
				}
			}
			if budget == 0 || len(f.held) < budget {
				f.held = append(f.held, r)
				state += int64(types.RowEncodedSize(r))
				continue
			}
			if w == nil {
				var err error
				if w, err = f.spills.newWriter(f.ctx, "fold-*"); err != nil {
					return err
				}
			}
			if err := w.write(r); err != nil {
				return err
			}
		}
		f.ctx.addState(state)
		return nil
	})
	if err != nil {
		return err
	}
	if w != nil {
		if f.spilled, err = w.finish(); err != nil {
			return err
		}
	}
	for i, fd := range f.folds {
		vals := make(types.Row, len(cols[i]))
		for j := range cols[i] {
			vals[j] = cols[i][j].final(0, cols[i][j].kind)
		}
		if err := fd.FoldResolve(vals); err != nil {
			return err
		}
	}
	f.prepared = true
	return nil
}

// next is the input the predicate reads: the operator below, or the rows a
// fold held, in arrival order.
func (f *Filter) next() ([]types.Row, bool, error) {
	if len(f.folds) == 0 {
		b, ok, err := f.In.NextBatch()
		if ok {
			f.ctx.addRows(len(b))
		}
		return b, ok, err
	}
	if f.pos < len(f.held) {
		return nextWindow(f.held, &f.pos, f.ctx.batchRows())
	}
	if f.spilled != nil {
		return f.spilled.nextBatch(f.ctx.batchRows())
	}
	return nil, false, nil
}

// NextBatch implements Operator: evaluate the predicate over the input
// slab and compact survivors in place (the slab belongs to us per the
// ownership contract).
func (f *Filter) NextBatch() ([]types.Row, bool, error) {
	if !f.prepared {
		if err := f.fold(); err != nil {
			return nil, false, err
		}
	}
	for {
		b, ok, err := f.next()
		if err != nil || !ok {
			return nil, false, err
		}
		out := b[:0]
		for _, r := range b {
			keep, err := expr.EvalBool(f.Pred, r)
			if err != nil {
				return nil, false, err
			}
			if keep {
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			return out, true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	f.held, f.spilled = nil, nil
	f.spills.discardAll()
	return f.In.Close()
}

// Project computes output expressions per row.
type Project struct {
	In    Operator
	Exprs []expr.Expr
	Out   types.Schema
	ctx   *Ctx
	slab  []types.Row
}

// NewProject builds a projection; exprs must be bound to the input schema
// and names gives the output column names.
func NewProject(ctx *Ctx, in Operator, exprs []expr.Expr, names []string) *Project {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = types.Column{Name: names[i], Kind: expr.KindOf(e, in.Schema())}
	}
	return &Project{In: in, Exprs: exprs, Out: types.Schema{Cols: cols}, ctx: ctx}
}

// Schema implements Operator.
func (p *Project) Schema() types.Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open() error { return p.In.Open() }

// NextBatch implements Operator: evaluate the output expressions over the
// input slab into a reusable output slab. The projected rows themselves
// are freshly allocated (row values may be retained by the consumer); only
// the slice holding them is reused.
func (p *Project) NextBatch() ([]types.Row, bool, error) {
	b, ok, err := p.In.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	if p.ctx != nil {
		p.ctx.RowsProcessed.Add(int64(len(b)))
	}
	if cap(p.slab) < len(b) {
		p.slab = make([]types.Row, len(b))
	}
	out := p.slab[:len(b)]
	// One flat value allocation backs every projected row of the slab
	// (instead of one allocation per row). A consumer that retains a row
	// pins its slab's values, which is fine for the retainers we have:
	// they keep either everything (sort, build sides) or a bounded few
	// (top-k), never an unbounded selective subset.
	k := len(p.Exprs)
	vals := make([]types.Value, len(b)*k)
	for i, r := range b {
		row := types.Row(vals[i*k : (i+1)*k : (i+1)*k])
		for j, e := range p.Exprs {
			v, err := e.Eval(r)
			if err != nil {
				return nil, false, err
			}
			row[j] = v
		}
		out[i] = row
	}
	return out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.In.Close() }

// Limit stops after n rows (with optional offset).
type Limit struct {
	In     Operator
	N      int64
	Offset int64
	seen   int64 // offset rows skipped so far
	done   int64 // rows emitted so far
}

// NewLimit builds a LIMIT operator.
func NewLimit(in Operator, n, offset int64) *Limit {
	return &Limit{In: in, N: n, Offset: offset}
}

// Schema implements Operator.
func (l *Limit) Schema() types.Schema { return l.In.Schema() }

// Open implements Operator.
func (l *Limit) Open() error { l.seen, l.done = 0, 0; return l.In.Open() }

// NextBatch implements Operator: trim the offset off the front and the
// overshoot off the back of the input slabs. The input is not pulled again
// once N rows have been emitted.
func (l *Limit) NextBatch() ([]types.Row, bool, error) {
	for l.done < l.N {
		b, ok, err := l.In.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		if skip := l.Offset - l.seen; skip > 0 {
			if skip > int64(len(b)) {
				skip = int64(len(b))
			}
			l.seen += skip
			b = b[skip:]
		}
		if rest := l.N - l.done; int64(len(b)) > rest {
			b = b[:rest]
		}
		l.done += int64(len(b))
		if len(b) > 0 {
			return b, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.In.Close() }

// Union concatenates inputs (UNION ALL and merging fragment scans).
type Union struct {
	Ins []Operator
	cur int
}

// NewUnion builds a union of same-schema inputs.
func NewUnion(ins ...Operator) *Union { return &Union{Ins: ins} }

// Schema implements Operator.
func (u *Union) Schema() types.Schema {
	if len(u.Ins) == 0 {
		return types.Schema{}
	}
	return u.Ins[0].Schema()
}

// Open implements Operator.
func (u *Union) Open() error {
	u.cur = 0
	for _, in := range u.Ins {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

// NextBatch implements Operator, passing the current input's slabs through
// and moving to the next input when it is exhausted.
func (u *Union) NextBatch() ([]types.Row, bool, error) {
	for u.cur < len(u.Ins) {
		b, ok, err := u.Ins[u.cur].NextBatch()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return b, true, nil
		}
		u.cur++
	}
	return nil, false, nil
}

// Close implements Operator.
func (u *Union) Close() error {
	var firstErr error
	for _, in := range u.Ins {
		if err := in.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Collect drains an operator into a slice (Open/NextBatch/Close).
func Collect(op Operator) ([]types.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []types.Row
	err := drain(nil, op.NextBatch, func(b []types.Row) error {
		out = append(out, b...)
		return nil
	})
	return out, err
}
