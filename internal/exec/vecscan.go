package exec

import (
	"errors"

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
// to DecodeInto per page, counted in the decode_boxed_pages counter).
//
// When the predicate compiles to a vector kernel, it is evaluated at
// decode time: the predicate's columns are decoded first, the kernel
// produces a selection vector, and the remaining columns are decoded only
// at the selected positions (late materialization). A page set proven
// empty this way is recorded into the predicate cache exactly like the
// row scan's absence pass. Non-compilable predicates keep the downstream
// VecFilter (see NewVecColumnarScan). Page-set skipping (predicate cache
// and min-max) is storage's, in ColumnarFragment.ScanPageSets; the scan
// thread drives as many page-set workers as the budget grants cfg.Parallel.
type VecColumnarScan struct {
	feed[*vec.Batch]
	vecRowShim
	fr       *storage.ColumnarFragment
	cfg      ScanConfig
	pushdown bool   // predicate compiles: evaluate during decode
	predCols []bool // columns the pushed-down predicate reads
}

// NewVecColumnarScan builds a vectorized scan over a columnar fragment.
// When cfg.Pred is set and compiles to a vector kernel, the scan filters
// during decode (late materialization); otherwise it is wrapped in a
// VecFilter, so the returned operator drops non-matching rows either way.
func NewVecColumnarScan(fr *storage.ColumnarFragment, alias string, cfg ScanConfig) VecOperator {
	sch := fr.Def.Schema
	if alias != "" {
		sch = sch.Qualify(alias)
	}
	cs := &VecColumnarScan{fr: fr, cfg: cfg}
	cs.sch = sch
	cs.start = cs.run
	cs.batch = cfg.BatchRows
	cs.cancel = cfg.Ctx.Cancel()
	cs.vecRowShim.src = cs
	if cfg.Pred != nil {
		if compileBool(cfg.Pred, sch) == nil {
			return NewVecFilter(cfg.Ctx, cs, cfg.Pred)
		}
		cs.pushdown = true
		cs.predCols = predCols(cfg.Pred, sch.Len())
	}
	return cs
}

// predCols marks the column indices a compilable predicate reads. The
// walker covers exactly the node shapes compileBool/compileNum accept.
func predCols(e expr.Expr, n int) []bool {
	set := make([]bool, n)
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		switch x := e.(type) {
		case *expr.Col:
			if x.Index >= 0 && x.Index < n {
				set[x.Index] = true
			}
		case *expr.Bin:
			walk(x.L)
			walk(x.R)
		case *expr.Not:
			walk(x.E)
		case *expr.IsNull:
			walk(x.E)
		}
	}
	walk(e)
	return set
}

// NextVec implements the vector half of VecOperator.
func (cs *VecColumnarScan) NextVec() (*vec.Batch, bool, error) { return cs.next() }

// run is the scan thread: it takes the degree the worker budget grants (at
// least 1) and drives that many page-set workers, each with a private
// decoder and a private sender, then folds their counters into the span
// and the query counters.
func (cs *VecColumnarScan) run() error {
	opts := buildScanOptions(cs.cfg)
	degree := cs.cfg.Ctx.AcquireWorkers(cs.cfg.Parallel)
	defer cs.cfg.Ctx.ReleaseWorkers(degree)
	senders := make([]*vecBatchSender, degree)
	decs := make([]*pageSetDecoder, degree)
	for i := range senders {
		senders[i] = &vecBatchSender{feedPort: cs.port(), sch: cs.sch, size: cs.batch}
		decs[i] = cs.newDecoder()
	}
	stats, err := cs.fr.ScanPageSets(opts, degree, func(w int, set page.PageSet, key page.Key, sealed bool) (bool, error) {
		return decs[w].decodeSet(senders[w], set, key, sealed, opts)
	})
	var sent, typed, boxed, evaled int64
	for i := range senders {
		senders[i].flush()
		sent += senders[i].sent
		typed += decs[i].typedPages
		boxed += decs[i].boxedPages
		evaled += decs[i].rowsEval
	}
	cs.cfg.Trace.AddScan(stats.RowsRead, stats.PagesRead, stats.PagesSkipped)
	cs.cfg.Trace.AddVecBatches(sent)
	cs.cfg.Trace.AddDecode(typed, boxed)
	if degree > 1 {
		cs.cfg.Trace.AddWorkers(int64(degree))
	}
	if ctx := cs.cfg.Ctx; ctx != nil && ctx.Counters != nil {
		ctx.DecodeTypedPages.Add(typed)
		ctx.DecodeBoxedPages.Add(boxed)
		// Rows the decode-time predicate evaluated are filter work,
		// metered exactly as the downstream VecFilter would have.
		ctx.RowsProcessed.Add(evaled)
	}
	return err
}

func (cs *VecColumnarScan) newDecoder() *pageSetDecoder {
	d := &pageSetDecoder{cs: cs}
	if cs.pushdown {
		// Each worker compiles its own node: compiled nodes carry
		// per-evaluation scratch and must not be shared across goroutines.
		d.node = compileBool(cs.cfg.Pred, cs.sch)
	}
	return d
}

// pageSetDecoder turns pinned page sets into typed batch columns for one
// scan worker: full typed decode without a predicate, decode-time kernel
// evaluation plus selection-vector late materialization with one. All
// scratch is single-threaded — one decoder per worker.
type pageSetDecoder struct {
	cs      *VecColumnarScan
	node    boolNode  // nil without pushdown
	eval    vec.Batch // scratch: predicate columns decoded per page set
	sel     []int32
	scratch types.Row
	// typedPages/boxedPages count per-page decode outcomes; rowsEval counts
	// rows the pushed-down predicate evaluated.
	typedPages, boxedPages, rowsEval int64
}

// decodeSet decodes one pinned page set into the sender's building batch,
// evaluating the pushed-down predicate during decode when the scan has
// one. Returns false to stop the scan (consumer gone or query killed).
func (d *pageSetDecoder) decodeSet(snd *vecBatchSender, set page.PageSet, key page.Key, sealed bool, opts storage.ScanOptions) (bool, error) {
	nrows := set.NumRows()
	if nrows == 0 {
		return true, nil
	}
	b := snd.building()
	if d.node == nil {
		// No pushdown: every column decodes typed, straight into the
		// building batch.
		for ci := range set.Pages {
			if err := d.decodeFull(set.Pages[ci], &b.Cols[ci]); err != nil {
				return false, err
			}
		}
		b.N += nrows
		return snd.maybeFlush(), nil
	}
	// Decode-time predicate pushdown: decode the predicate's columns into
	// the eval scratch batch (string columns intern into the building
	// batch's dictionary so surviving codes transfer without translation),
	// run the kernel, then materialize only the selected positions.
	if d.eval.Cols == nil {
		d.eval.Sch = d.cs.sch
		d.eval.Cols = make([]vec.Col, len(d.cs.predCols))
	}
	for ci := range set.Pages {
		if !d.cs.predCols[ci] {
			continue
		}
		if err := d.decodeFull(set.Pages[ci], d.resetEvalCol(ci, b.Cols[ci].Dict)); err != nil {
			return false, err
		}
	}
	d.eval.N = nrows
	d.eval.Sel = nil
	d.rowsEval += int64(nrows)
	sel := d.sel[:0]
	t, null, err := d.node.evalBool(&d.eval, nrows)
	switch {
	case err == nil:
		for k := 0; k < nrows; k++ {
			if t[k] && (null == nil || !null[k]) {
				sel = append(sel, int32(k))
			}
		}
	case errors.Is(err, errVecFallback):
		// The kernel met a layout it cannot handle (e.g. a page demoted to
		// boxed): decode the remaining columns too and evaluate row-wise,
		// preserving exact expression semantics like VecFilter's fallback.
		for ci := range set.Pages {
			if d.cs.predCols[ci] {
				continue
			}
			if err := d.decodeFull(set.Pages[ci], d.resetEvalCol(ci, b.Cols[ci].Dict)); err != nil {
				return false, err
			}
		}
		if d.scratch == nil {
			d.scratch = make(types.Row, len(d.eval.Cols))
		}
		for k := 0; k < nrows; k++ {
			keep, perr := expr.EvalBool(d.cs.cfg.Pred, d.eval.ReadRow(k, d.scratch))
			if perr != nil {
				return false, perr
			}
			if keep {
				sel = append(sel, int32(k))
			}
		}
		d.sel = sel
		if len(sel) == 0 {
			d.recordAbsence(key, sealed, opts)
			return true, nil
		}
		// Everything is decoded already: gather each column through sel.
		for ci := range d.eval.Cols {
			gatherAppend(&b.Cols[ci], &d.eval.Cols[ci], sel)
		}
		b.N += len(sel)
		return snd.maybeFlush(), nil
	default:
		return false, err
	}
	d.sel = sel
	if len(sel) == 0 {
		d.recordAbsence(key, sealed, opts)
		return true, nil
	}
	// Late materialization: predicate columns gather their survivors from
	// the eval scratch; the other columns decode only the selected
	// positions (unselected strings are never even interned).
	for ci := range set.Pages {
		if d.cs.predCols[ci] {
			gatherAppend(&b.Cols[ci], &d.eval.Cols[ci], sel)
		} else if err := d.decodeSel(set.Pages[ci], &b.Cols[ci], sel); err != nil {
			return false, err
		}
	}
	b.N += len(sel)
	return snd.maybeFlush(), nil
}

// recordAbsence records a proven-empty sealed set into the predicate
// cache. Sound only because SkipComplete means the skip conjunction *is*
// the whole predicate, so "no row matched the predicate" is exactly the
// absence the cache stores — the same gate the row scan's absence pass
// uses.
func (d *pageSetDecoder) recordAbsence(key page.Key, sealed bool, opts storage.ScanOptions) {
	if sealed && opts.UseCache && opts.SkipComplete && len(opts.SkipConj) > 0 {
		d.cs.fr.PredCache.Record(key, opts.SkipConj)
	}
}

// resetEvalCol readies one eval scratch column for a page set: schema
// layout restored (a demoted previous set must not leak boxedness into
// this one), slabs truncated, dictionary shared with the building batch's
// column so gathered codes need no translation.
func (d *pageSetDecoder) resetEvalCol(ci int, dict *vec.Dict) *vec.Col {
	c := &d.eval.Cols[ci]
	kind := d.cs.sch.Cols[ci].Kind
	c.Kind = kind
	c.Form = vec.FormFor(kind)
	c.I, c.F, c.Codes, c.Vals = c.I[:0], c.F[:0], c.Codes[:0], c.Vals[:0]
	c.Nulls = c.Nulls[:0]
	if c.Form == vec.FormStr && dict == nil {
		// The building column demoted to boxed earlier in the stream; keep
		// a private dictionary for kernel evaluation (the gather boxes).
		if c.Dict == nil {
			c.Dict = vec.NewDict()
		}
	} else {
		c.Dict = dict
	}
	return c
}

// decodeFull decodes a whole column page into c, typed when the column's
// layout has a typed decoder and the page's cells match, boxed DecodeInto
// (with Col.Append's demotion safety net) otherwise.
func (d *pageSetDecoder) decodeFull(pg page.ColumnPage, c *vec.Col) error {
	switch c.Form {
	case vec.FormInt:
		bm := vec.Bitmap{Words: c.Nulls}
		out, err := pg.DecodeInt64s(c.Kind, c.I, &bm)
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
		out, err := pg.DecodeFloat64s(c.F, &bm)
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
		out, err := pg.DecodeStrings(c.Dict, c.Codes, &bm)
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
	return pg.DecodeInto(func(v types.Value) bool {
		c.Append(v)
		return true
	})
}

// decodeSel decodes only the selected page-relative positions into c.
func (d *pageSetDecoder) decodeSel(pg page.ColumnPage, c *vec.Col, sel []int32) error {
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
		if si < len(sel) && int(sel[si]) == pos {
			c.Append(v)
			si++
		}
		pos++
		return si < len(sel)
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
