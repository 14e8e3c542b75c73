package exec

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/vec"
)

// JoinType selects join semantics.
type JoinType uint8

// Join types. Semi and Anti implement decorrelated EXISTS / NOT EXISTS and
// IN subqueries; the paper's engine skips outer joins (its TPC-H run omits
// the one outer-join query), so we do too.
const (
	JoinInner JoinType = iota + 1
	JoinSemi
	JoinAnti
)

// String names the join type.
func (t JoinType) String() string {
	switch t {
	case JoinInner:
		return "INNER"
	case JoinSemi:
		return "SEMI"
	case JoinAnti:
		return "ANTI"
	default:
		return "?"
	}
}

// HashJoin files Build's rows in a table and streams Probe's through it on
// equality of the key columns, with an optional residual predicate evaluated
// over the concatenated row. Probing runs with Parallel worker goroutines —
// the paper's intra-operator parallelism ("multiple threads reading records
// from its input, each simultaneously probing the hash table").
//
// Which of the planner's inputs builds is the caller's choice. Build is
// normally the right input, so the output and residual row is Probe ++
// Build; a join built on its left input (BuildLeft) keeps the planner's
// order, Build ++ Probe, by concatenating the other way round in its one
// match rule — no projection, and the residual is not rebound. A semi or
// anti join built on its left is a mark join: the probe marks every build
// row it matches and emits nothing, and once the probe has ended the marked
// build rows (semi) or the unmarked ones (anti) are emitted in arrival
// order.
//
// When the build side exceeds the memory budget, the join degrades to a
// Grace hash join: both sides are partitioned to spill files by key hash
// and each partition pair is joined in memory.
//
// The streaming probe has two front ends onto the one table: row slabs from
// Probe.NextBatch (joinProbe.probeRow), or — when the plan was lowered over a
// typed producer (NewTypedProbeHashJoin) — typed batches from its NextVec
// (joinProbe.probeBatch), which reads the key off the key columns and boxes a
// row only once the table holds a row filed under its hash. Both fill the
// same scratch key, hash it with the hash the build used and share the match
// rule, so the build, the table lookup, the Grace path and the emitter exist
// once. The build side and the Grace path read rows: the table stores
// boxed rows, and Grace writes every probe row to a spill partition anyway.
type HashJoin struct {
	Probe     Operator
	Build     Operator
	ProbeKeys []expr.Expr
	BuildKeys []expr.Expr
	Residual  expr.Expr // over the planner's left ++ right columns (probe ++ build unless BuildLeft); may be nil
	Type      JoinType
	Parallel  int
	// Trace, when non-nil, records the granted probe worker count, which
	// front end the probe read, and a build on the planner's left input.
	Trace     *obs.Span
	typed     VecOperator // Probe's typed face; nil probes row slabs
	buildLeft bool        // Build is the planner's left input: rows are Build ++ Probe; a semi or anti join marks
	ctx       *Ctx
	spills    spillSet

	out      types.Schema
	results  chan []types.Row
	errCh    chan error
	err      error
	prepared bool
	done     bool

	stop     chan struct{} // closed by Close; unblocks result emission
	stopOnce *sync.Once
}

// errJoinStopped aborts probe emission after Close; it never reaches
// callers (an abandoned stream has no consumer to report to).
var errJoinStopped = errors.New("exec: hash join closed")

// NewHashJoin builds a hash join.
func NewHashJoin(ctx *Ctx, probe, build Operator, probeKeys, buildKeys []expr.Expr, jt JoinType, residual expr.Expr, parallel int) *HashJoin {
	if parallel < 1 {
		parallel = 1
	}
	h := &HashJoin{
		Probe: probe, Build: build,
		ProbeKeys: probeKeys, BuildKeys: buildKeys,
		Residual: residual, Type: jt, Parallel: parallel, ctx: ctx,
	}
	switch jt {
	case JoinInner:
		h.out = probe.Schema().Concat(build.Schema())
	default:
		h.out = probe.Schema()
	}
	return h
}

// NewTypedProbeHashJoin builds a hash join whose streaming probe reads
// probe's typed batches. Above degree 1 a batch crosses to a probe worker
// uncopied, which the NextVec contract allows: each batch is the consumer's
// until it releases it, which the probe does once it has probed it.
func NewTypedProbeHashJoin(ctx *Ctx, probe VecOperator, build Operator, probeKeys, buildKeys []expr.Expr, jt JoinType, residual expr.Expr, parallel int) *HashJoin {
	h := NewHashJoin(ctx, probe, build, probeKeys, buildKeys, jt, residual, parallel)
	h.typed = probe
	return h
}

// BuildLeft declares Build to be the planner's left input and Probe its
// right, so that the row the residual reads — and an inner join's output
// row — is Build ++ Probe, as the planner laid them out. A semi or anti join
// then outputs build rows: its schema is Build's.
func (h *HashJoin) BuildLeft() {
	h.buildLeft = true
	h.out = h.Build.Schema()
	if h.Type == JoinInner {
		h.out = h.out.Concat(h.Probe.Schema())
	}
}

// marks reports whether the join is a mark join: a semi or anti join built
// on its left input.
func (h *HashJoin) marks() bool { return h.buildLeft && h.Type != JoinInner }

// Schema implements Operator.
func (h *HashJoin) Schema() types.Schema { return h.out }

// Open implements Operator.
func (h *HashJoin) Open() error {
	h.results, h.errCh, h.err, h.prepared, h.done = nil, nil, nil, false, false
	h.stop = make(chan struct{})
	h.stopOnce = new(sync.Once)
	if err := h.Probe.Open(); err != nil {
		return err
	}
	return h.Build.Open()
}

// prepare drains the build side; if it fits in memory, streams the probe
// side through worker goroutines; otherwise partitions both sides.
func (h *HashJoin) prepare() error {
	budget := 0
	if h.ctx != nil {
		budget = h.ctx.MemRows
	}
	table := &joinTable{}
	keys := newKeyHasher(h.BuildKeys, h.Build.Schema().Len())
	var buildSpill *spillWriter // non-nil once the build has overflowed

	if err := drain(h.ctx, h.Build.NextBatch, func(b []types.Row) error {
		var state int64
		for _, r := range b {
			hk, err := keys.hash(r)
			if err != nil {
				return err
			}
			if buildSpill == nil && budget > 0 && len(table.rows) >= budget {
				if buildSpill, err = h.spills.newWriter(h.ctx, "join-build-*"); err != nil {
					return err
				}
				// Move the in-memory rows to the spill file too: Grace mode
				// re-partitions everything uniformly.
				for _, br := range table.rows {
					if err := buildSpill.write(br); err != nil {
						return err
					}
				}
				table = nil
			}
			if buildSpill != nil {
				if err := buildSpill.write(r); err != nil {
					return err
				}
			} else {
				table.add(r, hk)
				state += int64(types.RowEncodedSize(r))
			}
		}
		if h.ctx != nil {
			h.ctx.RowsProcessed.Add(int64(len(b)))
			h.ctx.addState(state)
		}
		return nil
	}); err != nil {
		return err
	}

	if buildSpill == nil {
		table.seal(h.marks())
		return h.streamProbe(table)
	}
	return h.graceJoin(buildSpill, keys)
}

// joinTable is a hash join's build side: a chainTable whose entries are the
// build rows, in arrival order, filed under the hashes of their keys during
// the build and chained once by seal when it is drained.
type joinTable struct {
	chainTable
	rows   []types.Row   // the build rows, in arrival order
	marked []atomic.Bool // a mark join's: marked[i] once a probe row matched rows[i]; probe workers share it
}

// add files a build row under its key hash; it is not found before seal.
func (t *joinTable) add(r types.Row, hk uint64) {
	t.rows = append(t.rows, r)
	t.file(hk)
}

// seal chains the rows, each chain listing its rows in arrival order — the
// order an inner join emits a probe row's matches in — and gives a mark
// join's table its marks.
func (t *joinTable) seal(marks bool) {
	if marks {
		t.marked = make([]atomic.Bool, len(t.rows))
	}
	t.chainTable.seal()
}

// keyHasher hashes a row's key expressions the way joinProbe.bucket hashes
// its scratch key — types.HashRow of the key values — without allocating.
// When every key is a plain column it hashes the row in place through their
// offsets; otherwise it evaluates the keys into a scratch row, so one
// keyHasher serves one goroutine at a time.
type keyHasher struct {
	keys    []expr.Expr
	offs    []int     // what HashRow reads: the key columns, or [0, len(keys)) of scratch
	scratch types.Row // nil when every key is a plain column
}

// newKeyHasher binds keys over an n-column input.
func newKeyHasher(keys []expr.Expr, n int) *keyHasher {
	cols, anyExpr := keyColumns(keys, n)
	if !anyExpr {
		return &keyHasher{offs: cols}
	}
	return &keyHasher{keys: keys, offs: allOffsets(len(keys)), scratch: make(types.Row, len(keys))}
}

// hash returns the key hash of r.
func (k *keyHasher) hash(r types.Row) (uint64, error) {
	if k.scratch == nil {
		return types.HashRow(r, k.offs), nil
	}
	for i, e := range k.keys {
		v, err := e.Eval(r)
		if err != nil {
			return 0, err
		}
		k.scratch[i] = v
	}
	return types.HashRow(k.scratch, k.offs), nil
}

// streamProbe probes the shared table with the probe input, on its own
// goroutine so results stream while the input is still being read. The
// degree of parallelism adapts to the node's current load through the
// context's parallel budget (Section I: workers reduce the degree of
// parallelism for query operators when resources are scarce); at degree 1
// that goroutine drains and probes by itself. Join results cross to the
// consumer in slabs; each worker probes through its own joinProbe, emitter
// included, so nothing but the table — read-only but for a mark join's
// marks — is shared. A mark join emits once every worker is done.
func (h *HashJoin) streamProbe(table *joinTable) error {
	degree := h.ctx.AcquireWorkers(h.Parallel)
	h.Trace.AddWorkers(int64(degree))
	h.traceInput(h.typed != nil)
	h.results = make(chan []types.Row, 16)
	h.errCh = make(chan error, 1)
	probes := make([]*joinProbe, degree)
	for w := range probes {
		probes[w] = h.newProbe(table, &joinEmitter{h: h, size: h.ctx.batchRows()})
	}
	// A closed join stops within a slab even when no row matches (an emitter
	// only notices on a flush).
	stopped := func() error {
		select {
		case <-h.stop:
			return errJoinStopped
		default:
			return nil
		}
	}
	done := func(w int) error { return probes[w].out.flush() }
	go func() {
		defer close(h.results)
		defer h.ctx.ReleaseWorkers(degree)
		var err error
		if h.typed != nil {
			err = fanOut(h.ctx, typedBatches(h.typed), degree, func(w int, b *vec.Batch) error {
				if err := stopped(); err != nil {
					return err
				}
				return probes[w].probeBatch(b)
			}, done)
		} else {
			err = fanOut(h.ctx, rowSlabs(h.Probe), degree, func(w int, slab []types.Row) error {
				if err := stopped(); err != nil {
					return err
				}
				for _, r := range slab {
					if err := probes[w].probeRow(r); err != nil {
						return err
					}
				}
				return nil
			}, done)
		}
		if err == nil && h.marks() {
			err = h.emitMarked(table, probes[0].out)
		}
		if err != nil && err != errJoinStopped {
			h.errCh <- err
		}
	}()
	return nil
}

// emitMarked is a mark join's output, once the probe has ended: the build
// rows some probe row matched (semi) or none did (anti), in arrival order.
func (h *HashJoin) emitMarked(t *joinTable, em *joinEmitter) error {
	for i, r := range t.rows {
		if h.outputs(t.marked[i].Load()) {
			if err := em.emit(r); err != nil {
				return err
			}
		}
	}
	return em.flush()
}

// traceInput records on the span which front end the probe read and, when
// the table was built from the planner's left input, that it was.
func (h *HashJoin) traceInput(typed bool) {
	h.Trace.SetInput(typed)
	if h.buildLeft {
		h.Trace.SetBuildLeft()
	}
}

// joinEmitter accumulates one worker's result rows into a slab and ships
// the slab once it holds size rows. Each worker owns its emitter, so
// emission is lock-free; the channel select costs once per slab. A slab is
// allocated at the first row after a shipment, never before: the first one
// small and grown by append, so a worker that emits a handful of rows
// allocates a handful of row headers; once a slab has filled, the next ones
// are allocated full-size.
type joinEmitter struct {
	h    *HashJoin
	slab []types.Row
	size int
	full bool // a slab has filled
}

// firstSlabRows is the capacity of a join worker's first slab.
const firstSlabRows = 8

// emit buffers one result row, flushing when the slab is full.
func (e *joinEmitter) emit(r types.Row) error {
	if e.slab == nil {
		n := min(e.size, firstSlabRows)
		if e.full {
			n = e.size
		}
		e.slab = make([]types.Row, 0, n)
	}
	e.slab = append(e.slab, r)
	if len(e.slab) >= e.size {
		e.full = true
		return e.flush()
	}
	return nil
}

// flush ships the slab unless the join has been closed, so probe workers
// cannot block forever on a stream nobody is draining. The consumer owns a
// shipped slab; the next emit allocates another.
func (e *joinEmitter) flush() error {
	if len(e.slab) == 0 {
		return nil
	}
	select {
	case e.h.results <- e.slab:
		e.slab = nil
		return nil
	case <-e.h.stop:
		return errJoinStopped
	}
}

// joinProbe is one probe worker's way into a build table. Both front ends
// find the first build row filed under the probe key's hash — the key hash
// keyHasher filed the build rows under — put the key in key and go through
// match, where the match rule lives; the rest is the typed front end's
// (bound at its first batch).
type joinProbe struct {
	h         *HashJoin
	table     *joinTable
	out       *joinEmitter
	key       types.Row // scratch: the probe key of the row in hand
	pair      types.Row // scratch: the candidate pair the residual reads
	offs      []int     // [0, len(key)), the offsets HashRow hashes
	buildCols []int     // by key: the build column it is, or -1 for an expression

	keyCols  []int     // by key: the probe column it is, or -1 for an expression
	exprKeys bool      // some key is an expression
	scratch  types.Row // the row a batch position is boxed into
}

func (h *HashJoin) newProbe(table *joinTable, out *joinEmitter) *joinProbe {
	buildCols, _ := keyColumns(h.BuildKeys, h.Build.Schema().Len())
	return &joinProbe{
		h: h, table: table, out: out,
		key: make(types.Row, len(h.ProbeKeys)), offs: allOffsets(len(h.ProbeKeys)),
		buildCols: buildCols,
	}
}

// bucket returns the first build row filed under the hash of the scratch
// key, or -1 when no build row has it.
func (p *joinProbe) bucket() int32 {
	return p.table.first(types.HashRow(p.key, p.offs))
}

// match joins probe row r, whose key is in the scratch key, with the build
// rows filed under its hash from row i on, and reports whether any matched:
// the join's one match rule. A pair matches when every key value is equal —
// NULL equals nothing, itself included, and equal hashes prove nothing — and
// the residual, if any, holds over the pair laid out in the planner's order
// (build first under BuildLeft), which it reads from the probe's scratch
// pair row. An inner join emits every matching pair, concatenated afresh;
// for a semi or anti join the first match settles the row, which the front
// end then outputs or drops. A mark join instead marks every build row that
// r matches, passing over those already marked.
func (p *joinProbe) match(r types.Row, i int32) (bool, error) {
	h, t := p.h, p.table
	mark := h.marks()
	matched := false
candidates:
	for ; i >= 0; i = t.after(i) {
		if mark && t.marked[i].Load() {
			continue
		}
		br := t.rows[i]
		for ki, c := range p.buildCols {
			var bv types.Value
			if c >= 0 {
				bv = br[c]
			} else {
				var err error
				if bv, err = h.BuildKeys[ki].Eval(br); err != nil {
					return false, err
				}
			}
			if p.key[ki].IsNull() || bv.IsNull() || types.Compare(p.key[ki], bv) != 0 {
				continue candidates
			}
		}
		left, right := r, br
		if h.buildLeft {
			left, right = br, r
		}
		if h.Residual != nil {
			p.pair = append(append(p.pair[:0], left...), right...)
			ok, err := expr.EvalBool(h.Residual, p.pair)
			if err != nil {
				return false, err
			}
			if !ok {
				continue
			}
		}
		if mark {
			t.marked[i].Store(true)
			continue
		}
		if h.Type != JoinInner {
			return true, nil
		}
		matched = true
		if err := p.out.emit(left.Concat(right)); err != nil {
			return false, err
		}
	}
	return matched, nil
}

// outputs reports whether a semi or anti join outputs a row that did or did
// not find a match.
func (h *HashJoin) outputs(matched bool) bool {
	return (h.Type == JoinSemi && matched) || (h.Type == JoinAnti && !matched)
}

// outputsProbe reports whether a semi or anti join outputs a probe row that
// did or did not find a match: never a mark join's, which outputs build rows.
func (h *HashJoin) outputsProbe(matched bool) bool {
	return !h.marks() && h.outputs(matched)
}

// probeRow is the row front end: it emits the join results of one boxed
// probe row.
func (p *joinProbe) probeRow(r types.Row) error {
	for i, k := range p.h.ProbeKeys {
		v, err := k.Eval(r)
		if err != nil {
			return err
		}
		p.key[i] = v
	}
	matched, err := p.match(r, p.bucket())
	if err != nil {
		return err
	}
	if p.h.outputsProbe(matched) {
		return p.out.emit(r)
	}
	return nil
}

// bindTyped works out, once per probe, which probe column each key is.
func (p *joinProbe) bindTyped() {
	n := p.h.Probe.Schema().Len()
	p.keyCols, p.exprKeys = keyColumns(p.h.ProbeKeys, n)
	p.scratch = make(types.Row, n)
}

// probeBatch is the typed front end: it emits the join results of the active
// rows of one batch. A key that is a plain column is hashed off the column
// (vec.HashCol, folded as types.HashRow folds), and its value and the row
// are boxed only once the table holds a row filed under that very hash — not
// merely one in the same slot — or an anti join must output the row (a mark
// join outputs no probe row): the row into scratch, since an inner join's
// results are fresh concatenations; a semi or anti join's output row is a
// fresh one. A key that is an expression is evaluated on the boxed row, so
// every row is boxed first. BoxedRows counts the rows boxed either way.
func (p *joinProbe) probeBatch(b *vec.Batch) error {
	if p.keyCols == nil {
		p.bindTyped()
	}
	h := p.h
	var boxed int64
	defer func() { h.ctx.addBoxed(boxed) }()
	for k, n := 0, b.Rows(); k < n; k++ {
		i := b.Index(k)
		var row types.Row
		if p.exprKeys {
			row = b.ReadRow(i, p.scratch)
			boxed++
		}
		var hk uint64
		for ki, c := range p.keyCols {
			if c >= 0 {
				hk = types.FoldHash(hk, vec.HashCol(&b.Cols[c], i))
				continue
			}
			v, err := h.ProbeKeys[ki].Eval(row)
			if err != nil {
				return err
			}
			p.key[ki] = v
			hk = types.FoldHash(hk, types.Hash(v))
		}
		matched := false
		if first := p.table.first(hk); first >= 0 {
			for ki, c := range p.keyCols {
				if c >= 0 {
					p.key[ki] = b.Cols[c].Value(i)
				}
			}
			if row == nil {
				row = b.ReadRow(i, p.scratch)
				boxed++
			}
			var err error
			if matched, err = p.match(row, first); err != nil {
				return err
			}
		}
		if h.outputsProbe(matched) {
			// The consumer keeps the row, so it gets one of its own.
			if row == nil {
				boxed++
			}
			if err := p.out.emit(b.ReadRow(i, make(types.Row, len(b.Cols)))); err != nil {
				return err
			}
		}
	}
	return nil
}

// allOffsets returns [0, 1, ..., n-1].
func allOffsets(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ColRefs builds plain column-reference key expressions.
func ColRefs(idx ...int) []expr.Expr {
	out := make([]expr.Expr, len(idx))
	for i, x := range idx {
		out[i] = &expr.Col{Index: x}
	}
	return out
}

// gracePart is the Grace partition of a row whose key hashes to hk, taken
// from bits 32 and up. A Shuffle routes by hk % workers and placement by the
// same rule, so on a worker the low bits are constant: partitions taken
// from them would leave all but one in every workers empty, and the rest
// that many times larger than the memory bound assumes. chainTable.slot
// reads the top bits of hk × φ, which every bit of hk moves, so the rows
// of one partition still spread over the table's slots.
func gracePart(hk uint64) int { return int((hk >> 32) % DefaultGraceFanout) }

// graceJoin partitions both sides by key hash into fanout spill partitions
// and joins each pair in memory; buildKeys is the build's key hasher. Every
// file belongs to h.spills, so a failed or abandoned join leaves its cleanup
// to Close.
func (h *HashJoin) graceJoin(buildSpill *spillWriter, buildKeys *keyHasher) error {
	const fanout = DefaultGraceFanout
	buildReader, err := buildSpill.finish()
	if err != nil {
		return err
	}
	buildParts := make([]*spillWriter, fanout)
	probeParts := make([]*spillWriter, fanout)
	for i := range buildParts {
		if buildParts[i], err = h.spills.newWriter(h.ctx, "join-bpart-*"); err != nil {
			return err
		}
		if probeParts[i], err = h.spills.newWriter(h.ctx, "join-ppart-*"); err != nil {
			return err
		}
	}
	for {
		r, ok, err := buildReader.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		hk, err := buildKeys.hash(r)
		if err != nil {
			return err
		}
		if err := buildParts[gracePart(hk)].write(r); err != nil {
			return err
		}
	}
	buildReader.close()
	h.traceInput(false)
	probeKeys := newKeyHasher(h.ProbeKeys, h.Probe.Schema().Len())
	if err := drain(h.ctx, h.Probe.NextBatch, func(b []types.Row) error {
		for _, r := range b {
			key, err := probeKeys.hash(r)
			if err != nil {
				return err
			}
			if err := probeParts[gracePart(key)].write(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	h.results = make(chan []types.Row, 16)
	h.errCh = make(chan error, 1)
	go func() {
		defer close(h.results)
		em := &joinEmitter{h: h, size: h.ctx.batchRows()}
		var err error
		for p := 0; p < fanout && err == nil; p++ {
			err = h.joinPartition(buildParts[p], probeParts[p], buildKeys, em)
		}
		if err == nil {
			err = em.flush()
		}
		if err != nil && err != errJoinStopped {
			h.errCh <- err
		}
	}()
	return nil
}

// joinPartition joins one pair of Grace partitions through the table the
// streaming probe uses, built from the partition's build rows; a mark join
// emits the partition's selected build rows once its probe rows are through.
func (h *HashJoin) joinPartition(bw, pw *spillWriter, keys *keyHasher, em *joinEmitter) error {
	br, err := bw.finish()
	if err != nil {
		return err
	}
	table := &joinTable{}
	for {
		r, ok, err := br.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		hk, err := keys.hash(r)
		if err != nil {
			return err
		}
		table.add(r, hk)
	}
	br.close()
	table.seal(h.marks())
	pr, err := pw.finish()
	if err != nil {
		return err
	}
	defer pr.close()
	probe := h.newProbe(table, em)
	for {
		r, ok, err := pr.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := probe.probeRow(r); err != nil {
			return err
		}
	}
	if h.marks() {
		return h.emitMarked(table, em)
	}
	return nil
}

// NextBatch implements Operator: receive the next result slab from
// the probe workers. Workers allocate a fresh slab per flush, so the
// received slab is the caller's to mutate.
func (h *HashJoin) NextBatch() ([]types.Row, bool, error) {
	if !h.prepared {
		if err := h.prepare(); err != nil {
			return nil, false, err
		}
		h.prepared = true
	}
	if h.err != nil {
		return nil, false, h.err
	}
	select {
	case err := <-h.errCh:
		h.err = err
		return nil, false, err
	case b, ok := <-h.results:
		if !ok {
			// Check for a late error.
			select {
			case err := <-h.errCh:
				h.err = err
				return nil, false, err
			default:
			}
			return nil, false, nil
		}
		return b, true, nil
	}
}

// Close implements Operator. Closing the stop channel unblocks workers
// parked on result emission, so an abandoned join cannot leak goroutines.
func (h *HashJoin) Close() error {
	if h.stopOnce != nil {
		h.stopOnce.Do(func() { close(h.stop) })
	}
	h.spills.discardAll()
	err1 := h.Probe.Close()
	err2 := h.Build.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// NestedLoopJoin evaluates an arbitrary join condition; used when no
// equality conjunct exists (the paper uses hash joins whenever at least one
// equality conjunct is present, so this is the fallback).
type NestedLoopJoin struct {
	Left, Right Operator
	Cond        expr.Expr // over left ++ right columns; may be nil (cross product)
	Type        JoinType
	ctx         *Ctx

	rightRows []types.Row
	out       types.Schema
	left      []types.Row // copy of the current left slab
	pair      types.Row   // scratch: the candidate pair Cond reads
	lpos      int         // left row being joined
	rpos      int         // next right row for it
	matched   bool
	prepared  bool
	slab      []types.Row
}

// NewNestedLoopJoin builds the fallback join.
func NewNestedLoopJoin(ctx *Ctx, left, right Operator, cond expr.Expr, jt JoinType) *NestedLoopJoin {
	j := &NestedLoopJoin{Left: left, Right: right, Cond: cond, Type: jt, ctx: ctx}
	if jt == JoinInner {
		j.out = left.Schema().Concat(right.Schema())
	} else {
		j.out = left.Schema()
	}
	return j
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() types.Schema { return j.out }

// Open implements Operator.
func (j *NestedLoopJoin) Open() error {
	j.rightRows, j.left, j.lpos, j.rpos, j.matched, j.prepared = nil, nil, 0, 0, false, false
	if err := j.Left.Open(); err != nil {
		return err
	}
	return j.Right.Open()
}

// NextBatch implements Operator. The right side is buffered on the first
// call; after that each call resumes the (left row, right row) scan where
// the previous one stopped and returns once a slab of results is full or
// the current left slab is used up, so an exploding cross product never
// has to fit in one slab.
func (j *NestedLoopJoin) NextBatch() ([]types.Row, bool, error) {
	if !j.prepared {
		if err := drain(j.ctx, j.Right.NextBatch, func(b []types.Row) error {
			if j.ctx != nil {
				j.ctx.RowsProcessed.Add(int64(len(b)))
			}
			j.rightRows = append(j.rightRows, b...)
			return nil
		}); err != nil {
			return nil, false, err
		}
		j.prepared = true
	}
	size := j.ctx.batchRows()
	out := j.slab[:0]
	for {
		for ; j.lpos < len(j.left); j.lpos, j.rpos, j.matched = j.lpos+1, 0, false {
			l := j.left[j.lpos]
			for j.rpos < len(j.rightRows) && !(j.matched && j.Type != JoinInner) {
				r := j.rightRows[j.rpos]
				j.rpos++
				if j.Cond != nil {
					j.pair = append(append(j.pair[:0], l...), r...)
					ok, err := expr.EvalBool(j.Cond, j.pair)
					if err != nil {
						return nil, false, err
					}
					if !ok {
						continue
					}
				}
				j.matched = true
				if j.Type == JoinInner {
					out = append(out, l.Concat(r))
					if len(out) >= size {
						j.slab = out
						return out, true, nil
					}
				}
			}
			// Semi emits a left row on its first match, anti when no right
			// row matched.
			if (j.Type == JoinSemi && j.matched) || (j.Type == JoinAnti && !j.matched) {
				out = append(out, l)
			}
		}
		if len(out) > 0 {
			j.slab = out
			return out, true, nil
		}
		b, ok, err := j.Left.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		j.left, j.lpos = append(j.left[:0], b...), 0
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
