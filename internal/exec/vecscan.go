package exec

import (
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// vecBatchSender accumulates decoded page sets into a batch and ships the
// batch once it reaches the slab size. Each shipped batch is freshly built
// with its own dictionaries and never reused, so no dictionary is ever
// shared across the goroutine boundary while still being appended to.
type vecBatchSender struct {
	feedPort[*vec.Batch]
	sch  types.Schema
	size int
	cur  *vec.Batch
}

// building returns the batch under construction, allocating a fresh one
// (fresh dictionaries) after every flush.
func (b *vecBatchSender) building() *vec.Batch {
	if b.cur == nil {
		b.cur = vec.New(b.sch)
	}
	return b.cur
}

// maybeFlush ships the batch when full; reports false when the consumer is
// gone and the scan should abort.
func (b *vecBatchSender) maybeFlush() bool {
	if b.cur == nil || b.cur.N < b.size {
		return true
	}
	return b.flush()
}

// flush ships the current batch (if non-empty).
func (b *vecBatchSender) flush() bool {
	if b.cur == nil || b.cur.N == 0 {
		return true
	}
	if !b.ship(b.cur) {
		return false
	}
	b.cur = nil
	return true
}

// VecColumnarScan is the vector-native PAX-table scan: page sets are
// decoded column-wise by the typed page decoders straight into slab
// columns while their frames stay pinned — no types.Value is ever boxed on
// the typed path (pages whose cells mismatch their declared kind fall back
// to DecodeInto per page, counted in the decode_boxed_pages counter; page
// sets whose predicate had no kernel are counted in PredRowSets).
//
// The scan reads only the columns it needs: the ones it emits (cfg.Cols)
// and the ones its predicate refers to. Storage fetches and pins just those
// pages of each set, and batches are built over the emitted columns only.
//
// A predicate is evaluated at decode time: its columns are decoded first
// into a scratch batch laid out like the table, its conjuncts' compiled
// kernels narrow a selection vector one after another (or, when one does
// not compile, the row expression over the predicate's columns builds it),
// and the emitted columns are materialized only at the selected positions
// (late materialization).
// Whether a set kept a row is handed back to storage, which records the
// absence facts and skips page sets (predicate cache and min-max) in
// ColumnarFragment.ScanPageSets; the scan thread drives as many page-set
// workers as the budget grants cfg.Parallel.
type VecColumnarScan struct {
	feed[*vec.Batch]
	vecRowShim
	fr     *storage.ColumnarFragment
	cfg    ScanConfig
	table  types.Schema // the fragment's schema under the alias; cfg.Pred is bound to it
	emit   []int        // table offsets of the output columns, ascending
	outOf  []int        // by table offset: the column's output offset, or -1
	read   []int        // emit ∪ the predicate's columns, ascending: what storage fetches
	pred   []int        // table offsets of the columns the predicate reads, ascending
	isPred []bool       // the same, by table offset
}

// NewVecColumnarScan builds a vectorized scan over a columnar fragment.
func NewVecColumnarScan(fr *storage.ColumnarFragment, alias string, cfg ScanConfig) *VecColumnarScan {
	cs := &VecColumnarScan{fr: fr, cfg: cfg}
	cs.table, cs.sch = scanSchemas(fr.Def.Schema, alias, cfg.Cols)
	cs.start = cs.run
	cs.batch = cfg.Ctx.batchRows()
	cs.cancel = cfg.Ctx.Cancel()
	cs.vecRowShim = vecRowShim{src: cs, ctx: cfg.Ctx}
	n := cs.table.Len()
	var read []bool
	cs.emit, cs.isPred, read = ScanColumns(n, cfg.Cols, cfg.Pred)
	cs.outOf = make([]int, n)
	for ci := range cs.outOf {
		cs.outOf[ci] = -1
	}
	for oi, ci := range cs.emit {
		cs.outOf[ci] = oi
	}
	for ci := 0; ci < n; ci++ {
		if cs.isPred[ci] {
			cs.pred = append(cs.pred, ci)
		}
		if read[ci] {
			cs.read = append(cs.read, ci)
		}
	}
	return cs
}

// NextVec implements the vector half of VecOperator.
func (cs *VecColumnarScan) NextVec() (*vec.Batch, bool, error) { return cs.next() }

// run is the scan thread: it takes the degree the worker budget grants (at
// least 1) and drives that many page-set workers, each with a private
// decoder and a private sender, then folds their counters into the span
// and the query counters.
func (cs *VecColumnarScan) run() error {
	opts := buildScanOptions(cs.cfg, cs.fr.Def.Schema)
	degree := cs.cfg.Ctx.AcquireWorkers(cs.cfg.Parallel)
	defer cs.cfg.Ctx.ReleaseWorkers(degree)
	senders := make([]*vecBatchSender, degree)
	decs := make([]*pageSetDecoder, degree)
	for i := range senders {
		senders[i] = &vecBatchSender{feedPort: cs.port(), sch: cs.sch, size: cs.batch}
		decs[i] = cs.newDecoder()
	}
	stats, err := cs.fr.ScanPageSets(opts, cs.read, degree, func(w int, set page.PageSet) (bool, error) {
		return decs[w].decodeSet(senders[w], set)
	})
	var typed, boxed, evaled, kernelSets, rowSets int64
	for i := range senders {
		senders[i].flush()
		typed += decs[i].typedPages
		boxed += decs[i].boxedPages
		evaled += decs[i].rowsEval
		kernelSets += decs[i].kernelSets
		rowSets += decs[i].rowSets
	}
	cs.cfg.Trace.AddScan(stats.RowsRead, stats.PagesRead, stats.PagesSkipped)
	cs.cfg.Trace.AddSets(stats.SetsRead, stats.SetsSkipped, stats.ChainPages)
	cs.cfg.Trace.SetCols(len(cs.read), cs.table.Len())
	cs.cfg.Trace.AddDecode(typed, boxed)
	cs.cfg.Trace.AddPred(kernelSets, rowSets)
	if degree > 1 {
		cs.cfg.Trace.AddWorkers(int64(degree))
	}
	if ctx := cs.cfg.Ctx; ctx != nil && ctx.Counters != nil {
		ctx.DecodeTypedPages.Add(typed)
		ctx.DecodeBoxedPages.Add(boxed)
		ctx.PredRowSets.Add(rowSets)
		// Rows the decode-time predicate evaluated are filter work, metered
		// as a Filter above the scan would meter them.
		ctx.RowsProcessed.Add(evaled)
	}
	return err
}

func (cs *VecColumnarScan) newDecoder() *pageSetDecoder {
	d := &pageSetDecoder{cs: cs}
	if cs.cfg.Pred != nil {
		// Each worker compiles its own kernels: compiled nodes carry
		// per-evaluation scratch and must not be shared across goroutines.
		// nil when a conjunct's shape has no kernel.
		d.conj = compileConjuncts(cs.cfg.Pred, cs.table)
		d.eval.Sch = cs.table
		d.eval.Cols = make([]vec.Col, cs.table.Len())
	}
	return d
}

// pageSetDecoder turns pinned page sets into typed batch columns for one
// scan worker: full typed decode without a predicate, decode-time
// evaluation plus selection-vector late materialization with one. All
// scratch is single-threaded — one decoder per worker.
type pageSetDecoder struct {
	cs       *VecColumnarScan
	conj     conjuncts // the predicate's kernels, one per conjunct; nil without them
	eval     vec.Batch // scratch, table layout: the predicate's columns of one page set
	sel      []int32
	chunkSel []int32   // one chain page's share of sel, rebased to the page
	scratch  types.Row // table-width row the uncompiled predicate reads
	// typedPages/boxedPages count per-page decode outcomes; rowsEval counts
	// rows that entered the predicate (every row of a set, however early the
	// conjuncts drop it), kernelSets/rowSets the page sets it was evaluated
	// on by the compiled kernels vs row by row through expr.EvalBool.
	typedPages, boxedPages, rowsEval int64
	kernelSets, rowSets              int64
}

// decodeSet decodes one pinned page set into the sender's building batch,
// evaluating the scan's predicate during decode when it has one. kept
// reports that a row of the set passed; storage.ErrStopScan stops the scan
// (consumer gone or query killed).
func (d *pageSetDecoder) decodeSet(snd *vecBatchSender, set page.PageSet) (kept bool, err error) {
	nrows := set.NumRows()
	if nrows == 0 {
		return false, nil
	}
	b := snd.building()
	var sel []int32 // the rows emitted; nil without a predicate: every row
	if d.cs.cfg.Pred != nil {
		if sel, err = d.filter(b, set, nrows); err != nil || len(sel) == 0 {
			return false, err
		}
		nrows = len(sel)
	}
	// Late materialization: emitted predicate columns gather their
	// survivors from the eval scratch; the other emitted columns decode only
	// the selected positions (unselected strings are never even interned).
	for oi, ci := range d.cs.emit {
		if d.cs.isPred[ci] {
			gatherAppend(&b.Cols[oi], &d.eval.Cols[ci], sel)
		} else if err := d.decodeCol(set.Chunks(ci), &b.Cols[oi], sel); err != nil {
			return false, err
		}
	}
	b.N += nrows
	if !snd.maybeFlush() {
		return true, storage.ErrStopScan
	}
	return true, nil
}

// filter decodes the predicate's columns of a page set into the eval
// scratch and returns the positions of the rows the predicate keeps.
func (d *pageSetDecoder) filter(b *vec.Batch, set page.PageSet, nrows int) ([]int32, error) {
	// An emitted string column interns into the building batch's dictionary,
	// so that surviving codes transfer without translation.
	for _, ci := range d.cs.pred {
		var dict *vec.Dict
		if oi := d.cs.outOf[ci]; oi >= 0 {
			dict = b.Cols[oi].Dict
		}
		if err := d.decodeCol(set.Chunks(ci), d.resetEvalCol(ci, dict), nil); err != nil {
			return nil, err
		}
	}
	d.eval.N = nrows
	d.rowsEval += int64(nrows)
	if d.conj != nil {
		sel, err := d.conj.filter(&d.eval, d.sel)
		d.sel = sel
		if err == nil {
			d.kernelSets++
			return sel, nil
		}
		if !errors.Is(err, errVecFallback) {
			return nil, err
		}
	}
	// No kernel for some conjunct, or a kernel met a layout it cannot handle
	// (a page demoted to boxed): evaluate the row expression, whole, which
	// reads the predicate's columns only.
	d.rowSets++
	if d.scratch == nil {
		d.scratch = make(types.Row, len(d.eval.Cols))
	}
	sel := d.sel[:0]
	for k := 0; k < nrows; k++ {
		for _, ci := range d.cs.pred {
			d.scratch[ci] = d.eval.Cols[ci].Value(k)
		}
		keep, err := expr.EvalBool(d.cs.cfg.Pred, d.scratch)
		if err != nil {
			return nil, err
		}
		if keep {
			sel = append(sel, int32(k))
		}
	}
	d.sel = sel
	return sel, nil
}

// resetEvalCol readies one eval scratch column for a page set: schema
// layout restored (a demoted previous set must not leak boxedness into
// this one), slabs truncated. A string column takes dict — the building
// batch's dictionary for that column, so gathered codes need no
// translation — or, given none (the column is not emitted, or its building
// column demoted to boxed), a dictionary of its own that lasts for this
// page set: one kept for the whole scan would grow to the column's size.
func (d *pageSetDecoder) resetEvalCol(ci int, dict *vec.Dict) *vec.Col {
	c := &d.eval.Cols[ci]
	kind := d.cs.table.Cols[ci].Kind
	c.Kind = kind
	c.Form = vec.FormFor(kind)
	c.I, c.F, c.Codes, c.Vals = c.I[:0], c.F[:0], c.Codes[:0], c.Vals[:0]
	c.Nulls = c.Nulls[:0]
	c.Dict = dict
	if c.Form == vec.FormStr && dict == nil {
		c.Dict = vec.NewDict()
	}
	return c
}

// decodeCol decodes a column's cells at the ascending set-relative
// positions in sel — every cell for a nil sel — into c. Over a chain a
// selection is split at page boundaries: each page sees its own positions,
// rebased, and a page none falls in is not touched.
func (d *pageSetDecoder) decodeCol(chunks []page.ColumnPage, c *vec.Col, sel []int32) error {
	if sel == nil || len(chunks) == 1 {
		for _, pg := range chunks {
			if err := d.decodePage(pg, c, sel); err != nil {
				return err
			}
		}
		return nil
	}
	first := 0
	for _, pg := range chunks {
		end := first + pg.NumValues()
		part := d.chunkSel[:0]
		for len(sel) > 0 && int(sel[0]) < end {
			part = append(part, sel[0]-int32(first))
			sel = sel[1:]
		}
		d.chunkSel = part
		if len(part) > 0 {
			if err := d.decodePage(pg, c, part); err != nil {
				return err
			}
		}
		first = end
	}
	if len(sel) > 0 {
		return fmt.Errorf("exec: selection position %d beyond a chain of %d values", sel[0], first)
	}
	return nil
}

// decodePage decodes a column page's cells at the page-relative positions in
// sel (nil: every cell) into c, typed when the column's layout has a typed
// decoder and the selected cells match, boxed DecodeInto (with Col.Append's
// demotion safety net) otherwise.
func (d *pageSetDecoder) decodePage(pg page.ColumnPage, c *vec.Col, sel []int32) error {
	switch c.Form {
	case vec.FormInt:
		bm := vec.Bitmap{Words: c.Nulls}
		out, err := pg.DecodeInt64sSel(c.Kind, c.I, &bm, sel)
		if err == nil {
			c.I, c.Nulls = out, bm.Words
			d.typedPages++
			return nil
		}
		if !errors.Is(err, page.ErrKindMismatch) {
			return err
		}
	case vec.FormFloat:
		bm := vec.Bitmap{Words: c.Nulls}
		out, err := pg.DecodeFloat64sSel(c.F, &bm, sel)
		if err == nil {
			c.F, c.Nulls = out, bm.Words
			d.typedPages++
			return nil
		}
		if !errors.Is(err, page.ErrKindMismatch) {
			return err
		}
	case vec.FormStr:
		bm := vec.Bitmap{Words: c.Nulls}
		out, err := pg.DecodeStringsSel(c.Dict, c.Codes, &bm, sel)
		if err == nil {
			c.Codes, c.Nulls = out, bm.Words
			d.typedPages++
			return nil
		}
		if !errors.Is(err, page.ErrKindMismatch) {
			return err
		}
	}
	d.boxedPages++
	si, pos := 0, 0
	return pg.DecodeInto(func(v types.Value) bool {
		if sel == nil || (si < len(sel) && int(sel[si]) == pos) {
			c.Append(v)
			si++
		}
		pos++
		return sel == nil || si < len(sel)
	})
}

// gatherAppend appends src's values at the selected positions to dst.
// When both columns share a layout (and, for strings, the dictionary),
// payloads copy unboxed; any mismatch boxes through Value/Append, which
// preserves the demotion semantics.
func gatherAppend(dst, src *vec.Col, sel []int32) {
	if dst.Form != src.Form || (src.Form == vec.FormStr && dst.Dict != src.Dict) {
		for _, i := range sel {
			dst.Append(src.Value(int(i)))
		}
		return
	}
	switch src.Form {
	case vec.FormInt:
		for _, i := range sel {
			if src.IsNull(int(i)) {
				dst.AppendNull()
			} else {
				dst.AppendInt(src.I[i])
			}
		}
	case vec.FormFloat:
		for _, i := range sel {
			if src.IsNull(int(i)) {
				dst.AppendNull()
			} else {
				dst.AppendFloat(src.F[i])
			}
		}
	case vec.FormStr:
		for _, i := range sel {
			if src.IsNull(int(i)) {
				dst.AppendNull()
			} else {
				dst.AppendCode(src.Codes[i])
			}
		}
	default:
		for _, i := range sel {
			dst.Append(src.Vals[i])
		}
	}
}
