package storage

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/page"
	"repro/internal/skipcache"
	"repro/internal/types"
)

// ColumnarFragment stores a table fragment PAX-style (Section III): all
// columns in one file per disk as a sequence of page sets; a set for an
// n-column table is n consecutive pages, each holding the values of one
// column for the same run of rows. When a set is sealed each page is
// rewritten into its smallest layout (page.ColumnPage.Seal: fixed-width or
// dictionary-coded when its cells share one kind, else the appended stream,
// Huffman-packed when that shrinks it — high-cardinality strings), and
// page-level LZ4 (in page.File) plus sparse-file holes absorb the unused
// space — together these implement the paper's fix for page-set
// underutilization.
//
// Inserts are append-only into the open (in-memory) set of one disk;
// deletes are not supported on columnar fragments (reload or reorganize
// instead), matching their OLAP role.
type ColumnarFragment struct {
	Node  *NodeStore
	Def   *catalog.TableDef
	Files []page.FileID

	PredCache *skipcache.Cache
	MinMax    *skipcache.MinMax

	open    []page.PageSet // one open set per disk
	openBuf [][][]byte     // backing buffers for the open sets
	nextRR  int
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
		name := fmt.Sprintf("%s.d%d.col", strings.ToLower(def.Name), d)
		id, err := ns.OpenFile(d, name, true)
		if err != nil {
			return nil, err
		}
		fr.Files = append(fr.Files, id)
	}
	fr.open = make([]page.PageSet, len(fr.Files))
	fr.openBuf = make([][][]byte, len(fr.Files))
	for d := range fr.Files {
		fr.resetOpen(d)
	}
	return fr, nil
}

func (fr *ColumnarFragment) resetOpen(disk int) {
	n := fr.Def.Schema.Len()
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, fr.Node.PageSize())
	}
	fr.openBuf[disk] = bufs
	fr.open[disk] = page.NewPageSet(bufs)
}

// Append adds one row to the open set of the next disk, flushing the set
// to disk when full.
func (fr *ColumnarFragment) Append(r types.Row) error {
	if len(r) != fr.Def.Schema.Len() {
		return fmt.Errorf("storage: columnar row arity %d != schema %d", len(r), fr.Def.Schema.Len())
	}
	disk := fr.nextRR % len(fr.Files)
	fr.nextRR++
	if fr.open[disk].AppendRow(r) {
		return nil
	}
	if err := fr.flushOpen(disk); err != nil {
		return err
	}
	if !fr.open[disk].AppendRow(r) {
		return fmt.Errorf("storage: columnar row too large for page size %d", fr.Node.PageSize())
	}
	return nil
}

// flushOpen records the open set of a disk in the min-max index, seals it and
// writes it as n consecutive pages.
func (fr *ColumnarFragment) flushOpen(disk int) error {
	set := fr.open[disk]
	if set.NumRows() == 0 {
		return nil
	}
	fileID := fr.Files[disk]
	n := fr.Def.Schema.Len()
	base := fr.Node.Allocate(fileID)
	for i := 1; i < n; i++ {
		fr.Node.Allocate(fileID)
	}
	// Min-max for the set (keyed by its first page) comes from the pages
	// while they are still the plain appended streams; after Seal every value
	// would have to be unpacked again.
	key := page.Key{File: fileID, Page: base}
	for ci, col := range fr.Def.Schema.Cols {
		var lo, hi types.Value
		err := set.Pages[ci].DecodeInto(func(v types.Value) bool {
			switch {
			case v.IsNull():
			case lo.IsNull():
				lo, hi = v, v
			case types.Compare(v, lo) < 0:
				lo = v
			case types.Compare(v, hi) > 0:
				hi = v
			}
			return true
		})
		if err != nil {
			return err
		}
		name := strings.ToLower(col.Name)
		fr.MinMax.Record(key, name, lo)
		fr.MinMax.Record(key, name, hi)
	}
	set.Seal()
	for i := 0; i < n; i++ {
		f, err := fr.Node.Buf.NewPage(page.Key{File: fileID, Page: base + uint32(i)})
		if err != nil {
			return err
		}
		copy(f.Buf, fr.openBuf[disk][i])
		fr.Node.Buf.Unpin(f, true)
	}
	fr.resetOpen(disk)
	return nil
}

// Flush writes all open sets to disk (call after bulk loading).
func (fr *ColumnarFragment) Flush() error {
	for d := range fr.Files {
		if err := fr.flushOpen(d); err != nil {
			return err
		}
	}
	return nil
}

// Load bulk-loads rows (sorting by clustering columns) and flushes.
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
	for i, r := range rows {
		if err := fr.Append(r); err != nil {
			return i, err
		}
	}
	return len(rows), fr.Flush()
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
	file  page.FileID
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
// their pages are fetched and pinned, and only they are populated in the
// set fn receives — the other columns' pages are never read from disk or
// decompressed. An empty read set still fetches one page per set, for the
// row count. fn also receives the set's base page key and whether the set
// is sealed (immutable on disk), so a caller that evaluates the full
// predicate during decode can record proven absence into the predicate
// cache itself — sealed sets only. Page-set skipping (predicate cache, then
// min-max) is applied here.
// Workers claim sets from a shared counter (Fragment.ParallelScan's morsel
// scheme) and fn runs concurrently from all of them (worker tells them
// apart); a disk's open (unflushed) set is claimed after its sealed sets,
// never skipped. fn returning false stops every worker after its current
// set. workers <= 1 runs on the caller's goroutine, in file order.
func (fr *ColumnarFragment) ScanPageSets(opts ScanOptions, read []int, workers int, fn func(worker int, set page.PageSet, key page.Key, sealed bool) (bool, error)) (ScanStats, error) {
	return fr.scanPageSets(opts, read, workers, defaultMorselSets, fn)
}

func (fr *ColumnarFragment) scanPageSets(opts ScanOptions, read []int, workers, morselSets int, fn func(worker int, set page.PageSet, key page.Key, sealed bool) (bool, error)) (ScanStats, error) {
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
	var morsels []setMorsel
	for disk, fileID := range fr.Files {
		numSets := int(fr.Node.NumPages(fileID)) / n
		for start := 0; start < numSets; start += morselSets {
			end := start + morselSets
			if end > numSets {
				end = numSets
			}
			morsels = append(morsels, setMorsel{disk: disk, file: fileID, start: start, end: end})
		}
		if fr.open[disk].NumRows() > 0 {
			morsels = append(morsels, setMorsel{disk: disk, open: true})
		}
	}
	stats, err := runMorsels(len(morsels), workers, func(run *morselRun, w, i int) (stats ScanStats, cont bool, err error) {
		m := morsels[i]
		if m.open {
			// In memory, so nothing to fetch, but fn sees what it would see
			// of a sealed set: the read columns only.
			set := page.PageSet{Pages: make([]page.ColumnPage, n)}
			for _, ci := range read {
				set.Pages[ci] = fr.open[m.disk].Pages[ci]
			}
			if cont, err = fn(w, set, page.Key{}, false); err == nil {
				stats.RowsRead = int64(set.NumRows())
			}
			return stats, cont, err
		}
		for s := m.start; s < m.end && !run.stopped(); s++ {
			if cont, err = fr.scanOneSet(opts, read, m.file, s, w, &stats, fn); err != nil || !cont {
				return stats, false, err
			}
		}
		return stats, true, nil
	})
	fr.Node.RowsScanned.Add(stats.RowsRead)
	return stats, err
}

// scanOneSet is the per-set body of every columnar scan: the skip checks,
// then the frames of the read columns are pinned, fn runs on the pinned
// set, and the frames are unpinned. ScanStats counts the pages fetched, or
// the fetches a skip avoided. A set with a page that is allocated but not
// yet written (TypeFree) is passed over, as the row scan passes over such a
// page; any other non-column page is an error.
func (fr *ColumnarFragment) scanOneSet(opts ScanOptions, read []int, fileID page.FileID, s, w int, stats *ScanStats, fn func(worker int, set page.PageSet, key page.Key, sealed bool) (bool, error)) (bool, error) {
	n := fr.Def.Schema.Len()
	base := uint32(s * n)
	key := page.Key{File: fileID, Page: base}
	if len(opts.SkipConj) > 0 {
		if opts.UseCache && fr.PredCache.CanSkip(key, opts.SkipConj) {
			stats.PagesSkipped += int64(len(read))
			return true, nil
		}
		if opts.UseMinMax && fr.MinMax.CanSkip(key, opts.SkipConj) {
			stats.PagesSkipped += int64(len(read))
			return true, nil
		}
	}
	frames := make([]*buffer.Frame, 0, len(read))
	defer func() {
		for _, pf := range frames {
			fr.Node.Buf.Unpin(pf, false)
		}
	}()
	set := page.PageSet{Pages: make([]page.ColumnPage, n)}
	for _, ci := range read {
		k := page.Key{File: fileID, Page: base + uint32(ci)}
		f, err := fr.Node.Buf.Fetch(k)
		if err != nil {
			return false, err
		}
		frames = append(frames, f)
		if page.TypeOf(f.Buf) == page.TypeFree {
			return true, nil
		}
		cp, err := page.AsColumnPage(f.Buf)
		if err != nil {
			return false, fmt.Errorf("storage: %s page set at %v, column %d (%v): %w", fr.Def.Name, key, ci, k, err)
		}
		set.Pages[ci] = cp
	}
	cont, err := fn(w, set, key, true)
	if err != nil {
		return false, err
	}
	stats.PagesRead += int64(len(read))
	stats.RowsRead += int64(set.NumRows())
	return cont, nil
}
