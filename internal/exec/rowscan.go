package exec

import (
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// FragmentScan is the row-table scan operator, a typed producer like the
// columnar scan. Storage hands a worker one page's live rows at a time.
// With a predicate, the worker decodes the predicate's columns of every row,
// and the emitted numeric ones, which cost no more to decode than to skip,
// into a batch laid out like the table, and narrows a selection with the
// predicate's conjunct kernels — the row expression decides only a page
// whose predicate has no kernel, or meets a layout its kernels cannot read
// — then appends the emitted columns of the rows kept to the batch it
// ships: those decoded are gathered, and the emitted strings the predicate
// does not read are parsed from the kept rows alone. Without a predicate,
// every row's emitted columns are decoded straight into that batch. INT,
// DATE and BOOLEAN cells decode to int64s, FLOATs to float64s, and strings
// to codes of a dictionary, but for the columns cfg.Boxed marks, which stay
// boxed. Whether a page kept a row is handed back to storage, which records
// the absence facts.
type FragmentScan struct {
	feed[*vec.Batch]
	vecRowShim
	scanCols
	fr      *storage.Fragment
	cfg     ScanConfig
	form    []vec.Form // by table offset: the layout a read column decodes into
	early   []int      // with a predicate, the columns decoded for every row, ascending
	isEarly []bool     // the same, by table offset
	rest    []bool     // by table offset: emitted, and parsed from the kept rows
	restOut []int      // the output offsets of those columns, ascending
	boxed   []bool     // by output offset: a string column shipped boxed
}

// NewRowScan builds a scan over a row fragment.
func NewRowScan(fr *storage.Fragment, alias string, cfg ScanConfig) *FragmentScan {
	fs := &FragmentScan{fr: fr, cfg: cfg}
	var table types.Schema
	table, fs.sch = scanSchemas(fr.Def.Schema, alias, cfg.Cols)
	fs.start = fs.run
	fs.batch = cfg.Ctx.batchRows()
	fs.cancel = cfg.Ctx.Cancel()
	// A row table's rows are boxed at rest: handing them to a row consumer
	// is not counted in BoxedRows, which watches the columnar scans.
	fs.vecRowShim = vecRowShim{src: fs}
	fs.layOutRows(table)
	return fs
}

// layOutRows sets the scan's column lists and layouts from its table
// schema and cfg.
func (fs *FragmentScan) layOutRows(table types.Schema) {
	cfg := fs.cfg
	fs.layOut(table, cfg.Cols, cfg.Pred)
	n := table.Len()
	fs.form = make([]vec.Form, n)
	fs.isEarly = make([]bool, n)
	fs.rest = make([]bool, n)
	for ci, c := range table.Cols {
		fs.form[ci] = vec.FormFor(c.Kind)
		if ci < len(cfg.Boxed) && cfg.Boxed[ci] && c.Kind == types.KindString {
			fs.form[ci] = vec.FormBoxed
		}
		numeric := fs.form[ci] == vec.FormInt || fs.form[ci] == vec.FormFloat
		if cfg.Pred != nil && (fs.isPred[ci] || numeric && fs.outOf[ci] >= 0) {
			fs.isEarly[ci] = true
			fs.early = append(fs.early, ci)
		}
	}
	fs.boxed = make([]bool, len(fs.emit))
	for oi, ci := range fs.emit {
		if fs.rest[ci] = !fs.isEarly[ci]; fs.rest[ci] {
			fs.restOut = append(fs.restOut, oi)
		}
		fs.boxed[oi] = fs.form[ci] == vec.FormBoxed
	}
}

// NextVec implements the vector half of VecOperator.
func (fs *FragmentScan) NextVec() (*vec.Batch, bool, error) { return fs.next() }

// run is the scan thread: it takes the degree the worker budget grants (at
// least 1) and drives that many page workers, each with a private decoder
// and a private sender, then folds their counters into the span and the
// query counters.
func (fs *FragmentScan) run() error {
	opts := buildScanOptions(fs.cfg, fs.fr.Def.Schema)
	degree := fs.cfg.Ctx.AcquireWorkers(fs.cfg.Parallel)
	defer fs.cfg.Ctx.ReleaseWorkers(degree)
	senders := make([]*vecBatchSender, degree)
	decs := make([]*rowPageDecoder, degree)
	for i := range senders {
		senders[i] = &vecBatchSender{feedPort: fs.port(), sch: fs.sch, size: fs.batch, boxed: fs.boxed}
		decs[i] = fs.newDecoder()
	}
	stats, err := fs.fr.ScanPages(opts, degree, func(w int, rows [][]byte) (bool, error) {
		return decs[w].decodePage(senders[w], rows)
	})
	var counts scanCounts
	for i := range senders {
		senders[i].flush()
		counts.add(&decs[i].scanCounts)
	}
	counts.report(fs.cfg, stats, &fs.scanCols, degree)
	return err
}

func (fs *FragmentScan) newDecoder() *rowPageDecoder {
	d := &rowPageDecoder{fs: fs}
	if fs.cfg.Pred != nil {
		// Compiled nodes carry per-evaluation scratch: one set per worker.
		d.conj = compileConjuncts(fs.cfg.Pred, fs.table)
		n := fs.table.Len()
		d.eval.Sch = fs.table
		d.eval.Cols = make([]vec.Col, n)
		d.dicts = make([]*vec.Dict, n)
	}
	return d
}

// rowPageDecoder turns the live rows of one row page at a time into typed
// batch columns for one scan worker. All scratch is single-threaded.
type rowPageDecoder struct {
	fs    *FragmentScan
	conj  conjuncts    // the predicate's kernels, one per conjunct; nil without them
	eval  vec.Batch    // scratch, table layout: the early columns of one page's rows
	dicts []*vec.Dict  // by table offset: the dictionary a string column only the predicate reads interns into
	cells []types.Cell // scratch: one row's cells
	sel   []int32
	row   types.Row // table-width row the uncompiled predicate reads
	// No row is counted into rowsEval: a row table's predicate is not
	// metered as filter work.
	scanCounts
}

// decodePage appends the kept rows of one page's live rows to the sender's
// building batch. kept reports that a row passed; storage.ErrStopScan stops
// the scan (consumer gone or query killed).
func (d *rowPageDecoder) decodePage(snd *vecBatchSender, rows [][]byte) (kept bool, err error) {
	if len(rows) == 0 {
		return false, nil
	}
	d.typedPages++
	b := snd.building()
	var sel []int32 // the rows kept; nil without a predicate: every row
	if d.fs.cfg.Pred != nil {
		if sel, err = d.filter(b, rows); err != nil || len(sel) == 0 {
			return false, err
		}
		for oi, ci := range d.fs.emit {
			if d.fs.isEarly[ci] {
				gatherAppend(&b.Cols[oi], &d.eval.Cols[ci], sel)
			}
		}
	}
	n := len(rows)
	if sel != nil {
		n = len(sel)
	}
	if len(d.fs.restOut) > 0 {
		for k := 0; k < n; k++ {
			r := rows[k]
			if sel != nil {
				r = rows[sel[k]]
			}
			cells, err := d.decodeRow(r, d.fs.rest)
			if err != nil {
				return false, err
			}
			for _, oi := range d.fs.restOut {
				if err := appendCell(&b.Cols[oi], &cells[d.fs.emit[oi]]); err != nil {
					return false, err
				}
			}
		}
	}
	b.N += n
	if !snd.maybeFlush() {
		return true, storage.ErrStopScan
	}
	return true, nil
}

// decodeRow decodes the columns mask marks of one encoded row into the
// decoder's cells.
func (d *rowPageDecoder) decodeRow(r []byte, mask []bool) ([]types.Cell, error) {
	cells, _, err := types.DecodeRowCells(r, mask, d.cells)
	if err != nil {
		return nil, err
	}
	d.cells = cells
	if n := d.fs.table.Len(); len(cells) < n {
		return nil, fmt.Errorf("exec: a row of %d columns in a table of %d", len(cells), n)
	}
	return cells, nil
}

// filter decodes the early columns of every row into eval and returns the
// positions of the rows the predicate keeps.
func (d *rowPageDecoder) filter(b *vec.Batch, rows [][]byte) ([]int32, error) {
	for _, ci := range d.fs.early {
		d.resetEvalCol(ci, b)
	}
	for _, r := range rows {
		cells, err := d.decodeRow(r, d.fs.isEarly)
		if err != nil {
			return nil, err
		}
		for _, ci := range d.fs.early {
			if err := appendCell(&d.eval.Cols[ci], &cells[ci]); err != nil {
				return nil, err
			}
		}
	}
	d.eval.N = len(rows)
	if d.conj != nil {
		sel, err := d.conj.filter(&d.eval, d.sel, nil)
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
	// expression, whole.
	d.rowUnits++
	if d.row == nil {
		d.row = make(types.Row, len(d.eval.Cols))
	}
	sel, err := evalRows(d.fs.cfg.Pred, &d.eval, d.fs.pred, len(rows), d.row, d.sel[:0])
	if err != nil {
		return nil, err
	}
	d.sel = sel
	return sel, nil
}

// resetEvalCol empties eval column ci into the layout the scan decodes it
// in. A dictionary column interns into the building batch's dictionary for
// the column when it is emitted, so gathered codes need no translation, and
// otherwise into the decoder's own, which lasts across pages until it holds
// more entries than a batch has rows.
func (d *rowPageDecoder) resetEvalCol(ci int, b *vec.Batch) {
	c := &d.eval.Cols[ci]
	form := d.fs.form[ci]
	var dict *vec.Dict
	if oi := d.fs.outOf[ci]; oi >= 0 {
		dict = b.Cols[oi].Dict
	}
	if dict == nil && form == vec.FormStr {
		if d.dicts[ci] == nil || d.dicts[ci].Len() > d.fs.batch {
			d.dicts[ci] = vec.NewDict()
		}
		dict = d.dicts[ci]
	}
	resetCol(c, d.fs.table.Cols[ci].Kind, dict)
	if form == vec.FormBoxed {
		c.Form, c.Dict = vec.FormBoxed, nil
	}
}

// appendCell appends a decoded cell to c, in c's layout. A cell of another
// kind than its column's is one storage never writes: the page is corrupt.
func appendCell(c *vec.Col, x *types.Cell) error {
	switch {
	case x.K == types.KindNull:
		c.AppendNull()
	case x.K != c.Kind:
		return fmt.Errorf("exec: a row page holds %v in a column of %v", x.K, c.Kind)
	case c.Form == vec.FormInt:
		c.I = append(c.I, x.I)
	case c.Form == vec.FormFloat:
		c.F = append(c.F, x.F)
	case c.Form == vec.FormStr:
		c.Codes = append(c.Codes, c.Dict.CodeBytes(x.S))
	default:
		c.Vals = append(c.Vals, x.Value())
	}
	return nil
}
