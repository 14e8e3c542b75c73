package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/page"
	"repro/internal/skipcache"
	"repro/internal/types"
)

// ColumnarFragment stores a table fragment PAX-style (Section III): all
// columns in one file per disk as a sequence of page sets; a set for an
// n-column table is n consecutive pages, each holding the values of one
// column for the same run of rows. Rows are appended to an elastic in-memory
// open set (page.OpenSet) that closes when its *sealed* pages are full: each
// column's page is written in its smallest layout (fixed-width or
// dictionary-coded when its cells share one kind, else the appended stream,
// Huffman-packed when that shrinks it), and a column with no typed layout — a
// high-cardinality string — does not cap the others: what of its stream does
// not fit one page goes to a chain of pages in the disk's overflow file, and
// its page of the set is the chain's head. Page-level LZ4 (in page.File) plus
// sparse-file holes absorb what is left unused — together these implement the
// paper's fix for page-set underutilization.
//
// Inserts are append-only into the open sets, one per disk, filled round
// robin; deletes are not supported on columnar fragments (reload or
// reorganize instead), matching their OLAP role. An open set outlives the
// Load that started it: the next Load fills it, and a set reaches disk only
// when the admission rule closes it or Flush writes the partial tails (at
// cluster shutdown), so a stream of small Loads writes the pages one large
// Load would. Scans read an open set from memory, under mu: a Load may run
// beside them. A Load that fills a set writes it through the buffer pool
// with mu held.
//
//lint:lockorder-before storage.colfrag buffer.stripe
type ColumnarFragment struct {
	Node  *NodeStore
	Def   *catalog.TableDef
	Files []page.FileID
	Ovf   []page.FileID // per disk: the chain pages of the sets in Files[disk]

	PredCache *skipcache.Cache
	MinMax    *skipcache.MinMax

	// mu guards open and nextRR, and makes a set's flush — its pages
	// allocated and written, its rows gone from the open set — one step to
	// a scan.
	mu     sync.Mutex      //lint:lockorder storage.colfrag
	open   []*page.OpenSet // one per disk
	nextRR int
}

// OpenColumnarFragment creates the fragment's per-disk files.
func OpenColumnarFragment(ns *NodeStore, def *catalog.TableDef) (*ColumnarFragment, error) {
	fr := &ColumnarFragment{
		Node:      ns,
		Def:       def,
		PredCache: skipcache.NewCache(64),
		MinMax:    skipcache.NewMinMax(),
	}
	for d := range ns.Disks {
		for _, ext := range []string{"col", "ovf"} {
			id, err := ns.OpenFile(d, fmt.Sprintf("%s.d%d.%s", def.Name, d, ext), true)
			if err != nil {
				return nil, err
			}
			if ext == "col" {
				fr.Files = append(fr.Files, id)
			} else {
				fr.Ovf = append(fr.Ovf, id)
			}
		}
		fr.open = append(fr.open, page.NewOpenSet(def.Schema.Len(), ns.PageSize()))
	}
	return fr, nil
}

// appendRow adds one row to the open set of the next disk, flushing the set
// to disk when full. A row checkRow refuses, or with a value that no page can
// hold, is an error naming the column, and the row is not appended. The
// caller holds fr.mu.
func (fr *ColumnarFragment) appendRow(r types.Row) error {
	if err := checkRow(fr.Def, r); err != nil {
		return err
	}
	disk := fr.nextRR % len(fr.Files)
	ok, err := fr.open[disk].Append(r)
	if err == nil && !ok {
		if err = fr.flushOpen(disk); err == nil {
			ok, err = fr.open[disk].Append(r)
		}
	}
	var big *page.CellTooLargeError
	switch {
	case errors.As(err, &big):
		return fmt.Errorf("storage: %s.%s, page size %d: %w", fr.Def.Name, fr.Def.Schema.Cols[big.Col].Name, fr.Node.PageSize(), err)
	case err != nil:
		return err
	case !ok:
		return fmt.Errorf("storage: columnar row does not fit an empty page set of page size %d", fr.Node.PageSize())
	}
	fr.nextRR++
	return nil
}

// flushOpen records the open set of a disk in the min-max index and writes
// it: n consecutive pages, plus the chain pages of its chained columns.
// Layouts and min-max both come from the open set's running state. The
// caller holds fr.mu.
func (fr *ColumnarFragment) flushOpen(disk int) error {
	set := fr.open[disk]
	if set.NumRows() == 0 {
		return nil
	}
	fileID, ovf := fr.Files[disk], fr.Ovf[disk]
	n := fr.Def.Schema.Len()
	base := fr.Node.Allocate(fileID)
	for i := 1; i < n; i++ {
		fr.Node.Allocate(fileID)
	}
	key := page.Key{File: fileID, Page: base}
	for ci, col := range fr.Def.Schema.Cols {
		lo, hi := set.MinMax(ci)
		fr.MinMax.Record(key, col.Name, lo)
		fr.MinMax.Record(key, col.Name, hi)
		var chainStart uint32
		for k, chain := 0, set.ChainPages(ci); k < chain; k++ {
			p := fr.Node.Allocate(ovf)
			if k == 0 {
				chainStart = p
			}
			if err := fr.writePage(page.Key{File: ovf, Page: p}, func(buf []byte) { set.WriteChunk(ci, k, buf) }); err != nil {
				return err
			}
		}
		if err := fr.writePage(page.Key{File: fileID, Page: base + uint32(ci)}, func(buf []byte) { set.WritePage(ci, buf, chainStart) }); err != nil {
			return err
		}
	}
	set.Reset()
	return nil
}

// writePage writes a new page at k through the buffer pool: fill formats
// the zeroed frame.
func (fr *ColumnarFragment) writePage(k page.Key, fill func(buf []byte)) error {
	f, err := fr.Node.Buf.NewPage(k)
	if err != nil {
		return err
	}
	fill(f.Buf)
	fr.Node.Buf.Unpin(f, true)
	return nil
}

// Flush writes every disk's open set to disk, partial ones too, and leaves
// them empty. The cluster calls it once, at shutdown, before the node's
// buffers are written back: it is what makes the files hold every row.
func (fr *ColumnarFragment) Flush() error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for d := range fr.Files {
		if err := fr.flushOpen(d); err != nil {
			return err
		}
	}
	return nil
}

// Load appends rows (a batch sorted by the clustering columns first) to the
// open sets. It writes only the sets the rows fill; the partial tail of
// each disk stays open for the next Load, and scans see it from memory
// meanwhile. Load then Flush writes the pages one Load always did.
func (fr *ColumnarFragment) Load(rows []types.Row) (int, error) {
	if len(fr.Def.ClusterCols) > 0 {
		offs, err := fr.Def.ColOffsets(fr.Def.ClusterCols)
		if err != nil {
			return 0, err
		}
		sorted := make([]types.Row, len(rows))
		copy(sorted, rows)
		sortRowsBy(sorted, offs)
		rows = sorted
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for i, r := range rows {
		if err := fr.appendRow(r); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

func sortRowsBy(rows []types.Row, offs []int) {
	if len(offs) == 0 {
		return
	}
	lessFn := func(i, j int) bool {
		for _, o := range offs {
			if c := types.Compare(rows[i][o], rows[j][o]); c != 0 {
				return c < 0
			}
		}
		return false
	}
	sort.SliceStable(rows, lessFn)
}

// setMorsel is the unit of work a columnar scan worker claims: a contiguous
// run of one disk file's sealed page sets, or that disk's open set.
type setMorsel struct {
	disk  int
	start int // first sealed set index
	end   int // exclusive
	open  bool
}

// defaultMorselSets is the sealed-set run a worker claims at a time: a page
// set is already one page per column, so one set is a morsel.
const defaultMorselSets = 1

// ScanPageSets is the one scan of a columnar fragment. It iterates page-set
// wise: fn receives each surviving set while its frames are pinned, so it
// can decode column pages straight into typed vector slabs. read lists,
// ascending, the columns the caller will decode (nil: all of them): only
// their pages — a chained column's chain pages with its head — are fetched
// and pinned, and only they are populated in the set fn receives; the other
// columns' pages are never read from disk or decompressed. An empty read set
// still fetches one page per set, for the row count. fn reports whether it
// kept a row of the set, as PageFunc does for a row page: a sealed set on
// which it kept none is recorded as absence (recordAbsence). Page-set
// skipping (predicate cache, then min-max) is applied here.
// Workers claim sets from a shared counter (Fragment.ScanPages' morsel
// scheme) and fn runs concurrently from all of them (worker tells them
// apart); a disk's open (unflushed) set is claimed after its sealed sets and
// skipped by its running min-max only. An error from fn stops every worker
// after its current set (ErrStopScan without failing the scan). workers <= 1
// runs on the caller's goroutine, in file order. A scan beside a Load returns
// a sub-multiset of the rows loaded by its end (openSnapshot); with no Load
// beside it, every row loaded.
func (fr *ColumnarFragment) ScanPageSets(opts ScanOptions, read []int, workers int, fn SetFunc) (ScanStats, error) {
	return fr.scanPageSets(opts, read, workers, defaultMorselSets, fn)
}

// SetFunc is a columnar scan's callback: PageFunc for a whole page set.
type SetFunc func(worker int, set page.PageSet) (kept bool, err error)

func (fr *ColumnarFragment) scanPageSets(opts ScanOptions, read []int, workers, morselSets int, fn SetFunc) (ScanStats, error) {
	n := fr.Def.Schema.Len()
	switch {
	case read == nil:
		read = make([]int, n)
		for i := range read {
			read[i] = i
		}
	case len(read) == 0:
		read = []int{0} // any one page carries the set's row count
	}
	// Under mu, a set is either counted among a file's sealed sets, all its
	// pages written, or its rows are still in the open set.
	var morsels []setMorsel
	fr.mu.Lock()
	for disk, fileID := range fr.Files {
		numSets := int(fr.Node.NumPages(fileID)) / n
		for start := 0; start < numSets; start += morselSets {
			end := start + morselSets
			if end > numSets {
				end = numSets
			}
			morsels = append(morsels, setMorsel{disk: disk, start: start, end: end})
		}
		if fr.open[disk].NumRows() > 0 {
			morsels = append(morsels, setMorsel{disk: disk, open: true})
		}
	}
	fr.mu.Unlock()
	stats, err := runMorsels(len(morsels), workers, func(run *morselRun, w, i int) (stats ScanStats, err error) {
		m := morsels[i]
		if m.open {
			set, skipped := fr.openSnapshot(opts, read, m.disk)
			switch {
			case skipped:
				stats.PagesSkipped, stats.SetsSkipped = int64(len(read)), 1
				return stats, nil
			case set.NumRows() == 0:
				return stats, nil
			}
			if _, err = fn(w, set); err == nil || errors.Is(err, ErrStopScan) {
				stats.RowsRead = int64(set.NumRows())
			}
			return stats, err
		}
		for s := m.start; s < m.end && err == nil && !run.stopped(); s++ {
			err = fr.scanOneSet(&opts, read, m.disk, s, w, &stats, fn)
		}
		return stats, err
	})
	fr.Node.RowsScanned.Add(stats.RowsRead)
	return stats, err
}

// openSnapshot returns a disk's open set as a scan reads it: in memory, so
// nothing is fetched, but what the scan would see of a written set — the
// read columns only, sealed (the snapshot the open set keeps until its next
// change). skipped reports instead that the set's running min-max excludes
// the skip conjunction; the predicate cache is neither consulted nor fed (an
// open set has no page key, and it changes). The set is taken as it is now:
// rows a Load flushed since the scan listed its morsels are in a sealed set
// the scan did not list, and an emptied set has no rows.
func (fr *ColumnarFragment) openSnapshot(opts ScanOptions, read []int, disk int) (set page.PageSet, skipped bool) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	open := fr.open[disk]
	if open.NumRows() == 0 {
		return set, false
	}
	if opts.UseMinMax && len(opts.SkipConj) > 0 && fr.MinMax.CanSkipRange(opts.SkipConj, func(col string) (lo, hi types.Value) {
		if ci := fr.Def.Schema.Find(col); ci >= 0 {
			return open.MinMax(ci)
		}
		return types.Null, types.Null
	}) {
		return set, true
	}
	return open.Snapshot(read), false
}

// scanOneSet is the per-set body of every columnar scan: the skip checks,
// then the frames of the read columns — for a chained column its head and
// its chain pages — are pinned, fn runs on the pinned set, and the frames are
// unpinned. ScanStats counts the pages fetched, or the fetches a skip
// avoided. A set with a page that is allocated but not yet written
// (TypeFree) is passed over, as the row scan passes over such a page; any
// other non-column page is an error.
func (fr *ColumnarFragment) scanOneSet(opts *ScanOptions, read []int, disk, s, w int, stats *ScanStats, fn SetFunc) error {
	n := fr.Def.Schema.Len()
	fileID := fr.Files[disk]
	base := uint32(s * n)
	key := page.Key{File: fileID, Page: base}
	if len(opts.SkipConj) > 0 {
		if (opts.UseCache && fr.PredCache.CanSkip(key, opts.SkipConj)) ||
			(opts.UseMinMax && fr.MinMax.CanSkip(key, opts.SkipConj)) {
			stats.PagesSkipped += int64(len(read))
			stats.SetsSkipped++
			return nil
		}
	}
	frames := make([]*buffer.Frame, 0, len(read))
	defer func() {
		for _, pf := range frames {
			fr.Node.Buf.Unpin(pf, false)
		}
	}()
	// pin fetches one page of the set; ok is false for a page allocated but
	// not yet written.
	pin := func(k page.Key, ci int) (cp page.ColumnPage, ok bool, err error) {
		f, err := fr.Node.Buf.Fetch(k)
		if err != nil {
			return cp, false, err
		}
		frames = append(frames, f)
		if page.TypeOf(f.Buf) == page.TypeFree {
			return cp, false, nil
		}
		if cp, err = page.AsColumnPage(f.Buf); err != nil {
			return cp, false, fmt.Errorf("storage: %s page set at %v, column %d (%v): %w", fr.Def.Name, key, ci, k, err)
		}
		return cp, true, nil
	}
	set := page.PageSet{Pages: make([]page.ColumnPage, n)}
	for _, ci := range read {
		cp, ok, err := pin(page.Key{File: fileID, Page: base + uint32(ci)}, ci)
		if err != nil || !ok {
			return err
		}
		set.Pages[ci] = cp
		if !cp.ChainHead() {
			continue
		}
		ovf := fr.Ovf[disk]
		start, count, err := cp.Chain(fr.Node.NumPages(ovf))
		if err != nil {
			return fmt.Errorf("storage: %s page set at %v, column %d: %w", fr.Def.Name, key, ci, err)
		}
		if set.Chains == nil {
			set.Chains = make([][]page.ColumnPage, n)
		}
		cells := 0
		for p := start; p < start+count; p++ {
			chunk, ok, err := pin(page.Key{File: ovf, Page: p}, ci)
			if err != nil {
				return err
			}
			if !ok || chunk.ChainHead() {
				return fmt.Errorf("storage: %s page set at %v, column %d: chain page %d is not a column page of cells", fr.Def.Name, key, ci, p)
			}
			cells += chunk.NumValues()
			set.Chains[ci] = append(set.Chains[ci], chunk)
		}
		if cells != cp.NumValues() {
			return fmt.Errorf("storage: %s page set at %v, column %d: chain holds %d values, set has %d rows", fr.Def.Name, key, ci, cells, cp.NumValues())
		}
	}
	kept, err := fn(w, set)
	if err != nil && !errors.Is(err, ErrStopScan) {
		return err
	}
	stats.PagesRead += int64(len(frames))
	stats.ChainPages += int64(len(frames) - len(read))
	stats.SetsRead++
	stats.RowsRead += int64(set.NumRows())
	if err == nil {
		recordAbsence(fr.PredCache, opts, key, true, kept)
	}
	return err
}
