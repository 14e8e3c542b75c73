package exec

import (
	"errors"
	"fmt"
	"slices"

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
	sch   types.Schema
	size  int
	boxed []bool // by output offset: a string column shipped boxed, not dictionary-coded
	cur   *vec.Batch
}

// building returns the batch under construction, allocating a fresh one
// (fresh dictionaries) after every flush.
func (b *vecBatchSender) building() *vec.Batch {
	if b.cur == nil {
		b.cur = vec.New(b.sch)
		for oi, boxed := range b.boxed {
			if boxed {
				b.cur.Cols[oi].Form, b.cur.Cols[oi].Dict = vec.FormBoxed, nil
			}
		}
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
// columns while their frames stay pinned — no types.Value is ever boxed, as
// a column holds only its own kind (storage refuses another, so a cell of
// one is a corrupt page and the scan's error); page sets whose predicate had
// no kernel are counted in PredRowSets.
//
// The scan reads only the columns it needs: the ones it emits (cfg.Cols)
// and the ones its predicate refers to. Storage fetches and pins just those
// pages of each set, and batches are built over the emitted columns only.
//
// A predicate is evaluated at decode time: its conjuncts' compiled kernels
// narrow a selection vector one after another, each pulling its columns
// from the page set as it runs — tested once per entry of a dictionary page
// without decoding it, or decoded into a scratch batch laid out like the
// table at the rows still kept — or, when one does not compile or falls
// back, the row expression over the predicate's columns builds it; the
// emitted columns are materialized only at the selected positions (late
// materialization).
// Whether a set kept a row is handed back to storage, which records the
// absence facts and skips page sets (predicate cache and min-max) in
// ColumnarFragment.ScanPageSets; the scan thread drives as many page-set
// workers as the budget grants cfg.Parallel.
type VecColumnarScan struct {
	feed[*vec.Batch]
	vecRowShim
	scanCols
	fr  *storage.ColumnarFragment
	cfg ScanConfig
}

// NewVecColumnarScan builds a vectorized scan over a columnar fragment.
func NewVecColumnarScan(fr *storage.ColumnarFragment, alias string, cfg ScanConfig) *VecColumnarScan {
	cs := &VecColumnarScan{fr: fr, cfg: cfg}
	var table types.Schema
	table, cs.sch = scanSchemas(fr.Def.Schema, alias, cfg.Cols)
	cs.start = cs.run
	cs.batch = cfg.Ctx.batchRows()
	cs.cancel = cfg.Ctx.Cancel()
	cs.vecRowShim = vecRowShim{src: cs, ctx: cfg.Ctx}
	cs.layOut(table, cfg.Cols, cfg.Pred)
	return cs
}

// scanCols is where a typed scan's columns are: in the table it reads, in
// its output, and in its predicate.
type scanCols struct {
	table  types.Schema // the fragment's schema under the alias; the predicate is bound to it
	emit   []int        // table offsets of the output columns, ascending
	outOf  []int        // by table offset: the column's output offset, or -1
	read   []int        // emit ∪ the predicate's columns, ascending: what the scan decodes
	pred   []int        // table offsets of the columns the predicate reads, ascending
	isPred []bool       // the same, by table offset
}

// layOut sets the column lists of a scan of table that emits cols (nil:
// all) under predicate pred.
func (sc *scanCols) layOut(table types.Schema, cols []int, pred expr.Expr) {
	sc.table = table
	n := table.Len()
	var read []bool
	sc.emit, sc.isPred, read = ScanColumns(n, cols, pred)
	sc.outOf = make([]int, n)
	for ci := range sc.outOf {
		sc.outOf[ci] = -1
	}
	for oi, ci := range sc.emit {
		sc.outOf[ci] = oi
	}
	for ci := 0; ci < n; ci++ {
		if sc.isPred[ci] {
			sc.pred = append(sc.pred, ci)
		}
		if read[ci] {
			sc.read = append(sc.read, ci)
		}
	}
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
	var counts scanCounts
	for i := range senders {
		senders[i].flush()
		counts.add(&decs[i].scanCounts)
	}
	cs.cfg.Trace.AddSets(stats.SetsRead, stats.SetsSkipped, stats.ChainPages)
	counts.report(cs.cfg, stats, &cs.scanCols, degree)
	return err
}

// scanCounts is what a typed scan's worker counts: pages decoded; rows that
// entered the predicate (the columnar scan's: they are filter work,
// metered as a Filter above the scan would meter them); and
// the units — page sets, or a row table's pages — whose predicate the
// compiled kernels decided, and those it was evaluated on row by row
// through expr.EvalBool.
type scanCounts struct {
	typedPages, rowsEval  int64
	kernelUnits, rowUnits int64
}

func (c *scanCounts) add(o *scanCounts) {
	c.typedPages += o.typedPages
	c.rowsEval += o.rowsEval
	c.kernelUnits += o.kernelUnits
	c.rowUnits += o.rowUnits
}

// report folds a finished scan's counts and storage's into the scan's span
// and the query counters.
func (c *scanCounts) report(cfg ScanConfig, stats storage.ScanStats, cols *scanCols, degree int) {
	cfg.Trace.AddScan(stats.RowsRead, stats.PagesRead, stats.PagesSkipped)
	cfg.Trace.SetCols(len(cols.read), cols.table.Len())
	cfg.Trace.AddDecode(c.typedPages)
	cfg.Trace.AddPred(c.kernelUnits, c.rowUnits)
	if degree > 1 {
		cfg.Trace.AddWorkers(int64(degree))
	}
	if ctx := cfg.Ctx; ctx != nil && ctx.Counters != nil {
		ctx.DecodeTypedPages.Add(c.typedPages)
		ctx.PredRowSets.Add(c.rowUnits)
		ctx.RowsProcessed.Add(c.rowsEval)
	}
}

// evalRows is the typed scans' row fallback: it evaluates pred on each of
// the first n rows of eval, boxing the columns cols into row (table width),
// and appends the positions it keeps to sel.
func evalRows(pred expr.Expr, eval *vec.Batch, cols []int, n int, row types.Row, sel []int32) ([]int32, error) {
	for k := 0; k < n; k++ {
		for _, ci := range cols {
			row[ci] = eval.Cols[ci].Value(k)
		}
		keep, err := expr.EvalBool(pred, row)
		if err != nil {
			return nil, err
		}
		if keep {
			sel = append(sel, int32(k))
		}
	}
	return sel, nil
}

func (cs *VecColumnarScan) newDecoder() *pageSetDecoder {
	d := &pageSetDecoder{cs: cs}
	if cs.cfg.Pred != nil {
		// Each worker compiles its own kernels: compiled nodes carry
		// per-evaluation scratch and must not be shared across goroutines.
		// nil when a conjunct's shape has no kernel.
		d.conj = compileConjuncts(cs.cfg.Pred, cs.table)
		n := cs.table.Len()
		d.eval.Sch = cs.table
		d.eval.Cols = make([]vec.Col, n)
		d.entries.Sch = cs.table
		d.entries.Cols = make([]vec.Col, n)
		d.entryDict = vec.NewDict()
		d.state = make([]colState, n)
		d.counted = make([]uint32, n)
		d.dicts = make([]*vec.Dict, n)
	}
	return d
}

// pageSetDecoder turns pinned page sets into typed batch columns for one
// scan worker: full typed decode without a predicate, decode-time
// evaluation plus selection-vector late materialization with one. All
// scratch is single-threaded — one decoder per worker.
type pageSetDecoder struct {
	cs   *VecColumnarScan
	conj conjuncts // the predicate's kernels, one per conjunct; nil without them
	// The page set being filtered, and the batch it is decoded into; both
	// valid during one decodeSet.
	set      page.PageSet
	building *vec.Batch
	eval     vec.Batch // scratch, table layout: the predicate's columns of one page set
	// entries is scratch in table layout: one dictionary page's entries, a
	// row each, for a conjunct tested in code space. Their strings go to
	// entryDict, never a batch's.
	entries   vec.Batch
	entryDict *vec.Dict
	narrow    vec.Col // scratch: a column decoded at the kept positions, for spreadCol
	// By table offset, for the predicate's columns in the set being
	// filtered: how far eval holds the column, the set's pages of it already
	// counted (bit k: chunk k; a chain has at most page.MaxChainPages), and
	// the dictionary a string column not emitted interns into, reset per set.
	state    []colState
	counted  []uint32
	dicts    []*vec.Dict
	sel      []int32
	chunkSel []int32   // one chain page's share of sel, rebased to the page
	scratch  types.Row // table-width row the uncompiled predicate reads
	// Each page of a set is counted at most once (a page tested in code
	// space counts as decoded); rowsEval is every row of a set, however early
	// the conjuncts drop it.
	scanCounts
}

// colState is how much of a predicate column the eval scratch holds.
type colState uint8

const (
	colNone   colState = iota // nothing: not read yet, or only tested in code space
	colNarrow                 // the positions kept when its first conjunct ran
	colFull                   // every position
)

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
	var sel, at []int32 // the rows emitted, and the positions to decode them at; nil without a predicate: every row
	if d.cs.cfg.Pred != nil {
		if sel, err = d.filter(b, set, nrows); err != nil || len(sel) == 0 {
			return false, err
		}
		if at = sel; len(sel) == nrows {
			at = nil
		}
		nrows = len(sel)
	}
	// Late materialization: emitted predicate columns the eval scratch holds
	// gather their survivors from it; the other emitted columns — those a
	// predicate only tested in code space included — decode only the
	// selected positions (unselected strings are never even interned).
	for oi, ci := range d.cs.emit {
		if d.cs.isPred[ci] && d.state[ci] != colNone {
			gatherAppend(&b.Cols[oi], &d.eval.Cols[ci], sel)
		} else if err := d.decodeCol(set.Chunks(ci), &b.Cols[oi], at, d.seen(ci)); err != nil {
			return false, err
		}
	}
	b.N += nrows
	if !snd.maybeFlush() {
		return true, storage.ErrStopScan
	}
	return true, nil
}

// seen returns where column ci's counted pages of the set are recorded: nil
// for a column that is not the predicate's, which is decoded once.
func (d *pageSetDecoder) seen(ci int) *uint32 {
	if d.cs.isPred[ci] {
		return &d.counted[ci]
	}
	return nil
}

// filter returns the positions of the rows of a page set the predicate
// keeps. The conjunct kernels pull their columns as they reach them (test,
// load); when one falls back, or a conjunct has no kernel, every predicate
// column is decoded in full and the row expression decides.
func (d *pageSetDecoder) filter(b *vec.Batch, set page.PageSet, nrows int) ([]int32, error) {
	d.set, d.building = set, b
	for _, ci := range d.cs.pred {
		d.state[ci], d.counted[ci] = colNone, 0
	}
	d.eval.N = nrows
	d.rowsEval += int64(nrows)
	if d.conj != nil {
		sel, err := d.conj.filter(&d.eval, d.sel, d)
		d.sel = sel
		if err == nil {
			d.kernelUnits++
			return sel, nil
		}
		if !errors.Is(err, errVecFallback) {
			return nil, err
		}
	}
	// No kernel for some conjunct, or one fell back: evaluate the row
	// expression, whole, over every predicate column in full — a narrowed
	// one holds only some rows.
	for _, ci := range d.cs.pred {
		if d.state[ci] != colFull {
			if err := d.decodePred(ci, nil); err != nil {
				return nil, err
			}
		}
	}
	d.rowUnits++
	if d.scratch == nil {
		d.scratch = make(types.Row, len(d.eval.Cols))
	}
	sel, err := evalRows(d.cs.cfg.Pred, &d.eval, d.cs.pred, nrows, d.scratch, d.sel[:0])
	if err != nil {
		return nil, err
	}
	d.sel = sel
	return sel, nil
}

// test is columnSource.test: a conjunct that reads one column, whose page in
// the set has the dictionary layout, runs its kernel once over the page's
// entries — a row each — and keeps the positions whose code names an entry
// it holds on. A NULL entry, like a NULL row, is kept only where the kernel
// says TRUE. The column is not decoded.
func (d *pageSetDecoder) test(j int, pos []int32) (int, bool, error) {
	c := d.conj[j]
	if len(c.cols) != 1 {
		return 0, false, nil
	}
	ci := c.cols[0]
	chunks := d.set.Chunks(ci)
	if len(chunks) != 1 {
		return 0, false, nil // a chain's pages are tagged
	}
	e := &d.entries.Cols[ci]
	d.entryDict.Reset()
	resetCol(e, d.cs.table.Cols[ci].Kind, d.entryDict)
	codes, err := chunks[0].DictEntries(e)
	switch {
	case err != nil:
		return 0, false, err
	case codes == nil:
		return 0, false, nil // not a dictionary page
	case len(codes) != d.eval.N:
		return 0, false, fmt.Errorf("exec: a page of %d values in a set of %d rows", len(codes), d.eval.N)
	}
	d.countPage(&d.counted[ci], 0)
	n := e.Len()
	d.entries.N = n
	t, null, err := c.node.evalBool(&d.entries, n)
	if err != nil {
		return 0, false, err
	}
	// By code: 1 keeps its rows, 2 names no entry (a corrupt page, found
	// by the pass that reads the code).
	var verdict [256]uint8
	for k := range t {
		if t[k] && (null == nil || !null[k]) {
			verdict[k] = 1
		}
	}
	for k := n; k < len(verdict); k++ {
		verdict[k] = 2
	}
	m, bad := 0, uint8(0)
	for _, p := range pos {
		v := verdict[codes[p]]
		pos[m] = p
		m += int(v & 1)
		bad |= v
	}
	if bad&2 != 0 {
		i := slices.IndexFunc(codes, func(c byte) bool { return int(c) >= n })
		return 0, false, fmt.Errorf("exec: column value %d: code %d of a %d-entry dictionary", i, codes[i], n)
	}
	return m, true, nil
}

// load is columnSource.load: conjunct j's columns that eval does not hold
// yet decode at the active rows.
func (d *pageSetDecoder) load(j int, sel []int32) error {
	for _, ci := range d.conj[j].cols {
		if d.state[ci] == colNone {
			if err := d.decodePred(ci, sel); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodePred decodes predicate column ci of the set into the eval scratch
// at the positions sel — every one for nil, densely. Under a selection the
// cells decode into a scratch column and spreadCol moves them to their
// positions of the full-length eval column, so the kernels read them
// through b.Sel as ever.
func (d *pageSetDecoder) decodePred(ci int, sel []int32) error {
	c := d.resetEvalCol(ci)
	if sel == nil {
		d.state[ci] = colFull
		return d.decodeCol(d.set.Chunks(ci), c, nil, &d.counted[ci])
	}
	tmp := &d.narrow
	resetCol(tmp, c.Kind, c.Dict)
	if err := d.decodeCol(d.set.Chunks(ci), tmp, sel, &d.counted[ci]); err != nil {
		return err
	}
	spreadCol(c, tmp, sel, d.eval.N)
	d.state[ci] = colNarrow
	return nil
}

// resetEvalCol readies eval column ci for a decode in this page set (see
// resetCol). A string column takes the building batch's dictionary for that
// column, so gathered codes need no translation, or, given none (the
// column is not emitted), the decoder's own for the column, emptied: it
// lasts for this page set, as one kept for the whole scan would grow to the
// column's size.
func (d *pageSetDecoder) resetEvalCol(ci int) *vec.Col {
	var dict *vec.Dict
	if oi := d.cs.outOf[ci]; oi >= 0 {
		dict = d.building.Cols[oi].Dict
	}
	kind := d.cs.table.Cols[ci].Kind
	if dict == nil && vec.FormFor(kind) == vec.FormStr {
		if d.dicts[ci] == nil {
			d.dicts[ci] = vec.NewDict()
		}
		dict = d.dicts[ci]
		dict.Reset()
	}
	c := &d.eval.Cols[ci]
	resetCol(c, kind, dict)
	return c
}

// resetCol empties c into the layout of a column of kind, its slabs
// truncated and a string column interning into dict.
func resetCol(c *vec.Col, kind types.Kind, dict *vec.Dict) {
	c.Kind = kind
	c.Form = vec.FormFor(kind)
	c.I, c.F, c.Codes, c.Vals = c.I[:0], c.F[:0], c.Codes[:0], c.Vals[:0]
	c.Nulls = c.Nulls[:0]
	c.Dict = dict
}

// spreadCol writes the k-th cell of src, decoded at the positions sel, to
// position sel[k] of c, sized to n rows; c's other positions hold anything.
func spreadCol(c, src *vec.Col, sel []int32, n int) {
	if len(src.Nulls) > 0 {
		words := (n + 63) >> 6
		c.Nulls = slices.Grow(c.Nulls[:0], words)[:words]
		clear(c.Nulls)
		for k, i := range sel {
			if vec.GetBit(src.Nulls, k) {
				c.Nulls[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	switch c.Form {
	case vec.FormInt:
		c.I = scatter(c.I, src.I, sel, n)
	case vec.FormFloat:
		c.F = scatter(c.F, src.F, sel, n)
	case vec.FormStr:
		c.Codes = scatter(c.Codes, src.Codes, sel, n)
	}
}

func scatter[T int64 | float64 | int32](dst, src []T, sel []int32, n int) []T {
	dst = grow(dst, n)
	for k, i := range sel {
		dst[i] = src[k]
	}
	return dst
}

// countPage counts a decode of chunk k of a column's pages in the set,
// unless counted records the chunk counted already; nil counted is a column
// decoded once per set.
func (d *pageSetDecoder) countPage(counted *uint32, k int) {
	if counted != nil {
		if *counted&(1<<k) != 0 {
			return
		}
		*counted |= 1 << k
	}
	d.typedPages++
}

// decodeCol decodes a column's cells at the ascending set-relative
// positions in sel — every cell for a nil sel — into c, counting each page
// it reads (see countPage). Over a chain a selection is split at page
// boundaries: each page sees its own positions, rebased, and a page none
// falls in is not touched.
func (d *pageSetDecoder) decodeCol(chunks []page.ColumnPage, c *vec.Col, sel []int32, counted *uint32) error {
	if sel == nil || len(chunks) == 1 {
		for k, pg := range chunks {
			if err := decodePage(pg, c, sel); err != nil {
				return err
			}
			d.countPage(counted, k)
		}
		return nil
	}
	first := 0
	for k, pg := range chunks {
		end := first + pg.NumValues()
		part := d.chunkSel[:0]
		for len(sel) > 0 && int(sel[0]) < end {
			part = append(part, sel[0]-int32(first))
			sel = sel[1:]
		}
		d.chunkSel = part
		if len(part) > 0 {
			if err := decodePage(pg, c, part); err != nil {
				return err
			}
			d.countPage(counted, k)
		}
		first = end
	}
	if len(sel) > 0 {
		return fmt.Errorf("exec: selection position %d beyond a chain of %d values", sel[0], first)
	}
	return nil
}

// decodePage decodes a column page's cells at the page-relative positions in
// sel (nil: every cell) into c with the typed decoder of c's layout.
func decodePage(pg page.ColumnPage, c *vec.Col, sel []int32) error {
	bm := vec.Bitmap{Words: c.Nulls}
	var err error
	switch c.Form {
	case vec.FormInt:
		c.I, err = pg.DecodeInt64sSel(c.Kind, c.I, &bm, sel)
	case vec.FormFloat:
		c.F, err = pg.DecodeFloat64sSel(c.F, &bm, sel)
	case vec.FormStr:
		c.Codes, err = pg.DecodeStringsSel(c.Dict, c.Codes, &bm, sel)
	default:
		return fmt.Errorf("exec: no typed decoder for a %v column", c.Kind)
	}
	c.Nulls = bm.Words
	return err
}

// gatherAppend appends src's values at the selected positions to dst, which
// has src's layout and, for strings, its dictionary: payloads copy unboxed.
func gatherAppend(dst, src *vec.Col, sel []int32) {
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
