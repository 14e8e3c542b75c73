package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/page"
	"repro/internal/skipcache"
	"repro/internal/types"
)

// TxHook lets the transaction layer intercept storage mutations: page
// locking plus WAL logging. A nil TxHook means an untracked bulk operation
// (loading), which the paper also performs outside transactions.
type TxHook interface {
	// LockPage acquires a page lock (exclusive for mutations). Returns an
	// error on deadlock/timeout, which aborts the statement.
	LockPage(k page.Key, exclusive bool) error
	// LogInsert/LogDelete append WAL records and return the new record's
	// LSN to stamp into the page.
	LogInsert(k page.Key, slot uint16, encRow []byte) uint64
	LogDelete(k page.Key, slot uint16, encRow []byte) uint64
}

// ScanStats reports what one table scan did, feeding both the predicate
// cache experiments and the performance model.
type ScanStats struct {
	PagesRead    int64
	PagesSkipped int64
	RowsRead     int64
	// Columnar scans only: page sets read and skipped whole, and how many of
	// PagesRead were chain pages of the overflow file.
	SetsRead    int64
	SetsSkipped int64
	ChainPages  int64
}

// Fragment is the part of one table stored on one node: one page file per
// disk. Rows are routed to disks by round-robin at load/insert time.
type Fragment struct {
	Node  *NodeStore
	Def   *catalog.TableDef
	Files []page.FileID // one per disk

	// Skipping state shared across scans of this fragment.
	PredCache *skipcache.Cache
	MinMax    *skipcache.MinMax

	insertSeq atomic.Int64 // round-robin disk pointer
}

// OpenFragment creates (or reopens) the fragment's per-disk page files and
// reloads any persisted predicate cache (Section III: caches are persisted
// periodically and loaded at database restart).
func OpenFragment(ns *NodeStore, def *catalog.TableDef) (*Fragment, error) {
	fr := &Fragment{
		Node:      ns,
		Def:       def,
		PredCache: skipcache.NewCache(64),
		MinMax:    skipcache.NewMinMax(),
	}
	for d := range ns.Disks {
		name := fmt.Sprintf("%s.d%d.tbl", def.Name, d)
		id, err := ns.OpenFile(d, name, true)
		if err != nil {
			return nil, err
		}
		fr.Files = append(fr.Files, id)
	}
	if cached, err := skipcache.Load(fr.predCachePath(), 64); err == nil {
		fr.PredCache = cached
	}
	return fr, nil
}

// predCachePath is the fragment's persisted predicate-cache location.
func (fr *Fragment) predCachePath() string {
	return filepath.Join(fr.Node.Disks[0], fr.Def.Name+".predcache")
}

// PersistPredCache writes the predicate cache to disk for reload at the
// next restart.
func (fr *Fragment) PersistPredCache() error {
	return fr.PredCache.Persist(fr.predCachePath())
}

// Insert appends a row to the fragment, choosing a disk round-robin, and
// returns the row's RID. Append-only: the row goes on the last page of the
// disk's file or a fresh page (the paper's append-only insert rule that
// keeps predicate caches valid for full pages).
func (fr *Fragment) Insert(tx TxHook, r types.Row) (page.RID, error) {
	if len(r) != fr.Def.Schema.Len() {
		return page.RID{}, fmt.Errorf("storage: row arity %d != schema %d for %s", len(r), fr.Def.Schema.Len(), fr.Def.Name)
	}
	disk := int(fr.insertSeq.Add(1)-1) % len(fr.Files)
	fileID := fr.Files[disk]
	enc := types.AppendRow(nil, r)

	// Try the last allocated page first.
	numPages := fr.Node.NumPages(fileID)
	tryPage := func(pageNum uint32) (page.RID, bool, error) {
		k := page.Key{File: fileID, Page: pageNum}
		if tx != nil {
			if err := tx.LockPage(k, true); err != nil {
				return page.RID{}, false, err
			}
		}
		f, err := fr.Node.Buf.Fetch(k)
		if err != nil {
			return page.RID{}, false, err
		}
		f.Latch.Lock()
		if page.TypeOf(f.Buf) == page.TypeFree {
			page.InitRowPage(f.Buf)
		}
		rp, err := page.AsRowPage(f.Buf)
		if err != nil {
			f.Latch.Unlock()
			fr.Node.Buf.Unpin(f, false)
			return page.RID{}, false, err
		}
		slot, ok := rp.InsertEncoded(enc)
		if !ok {
			f.Latch.Unlock()
			fr.Node.Buf.Unpin(f, false)
			return page.RID{}, false, nil
		}
		if tx != nil {
			lsn := tx.LogInsert(k, uint16(slot), enc)
			page.SetLSN(f.Buf, lsn)
		}
		f.Latch.Unlock()
		fr.Node.Buf.Unpin(f, true)
		// Maintain min-max SMA for the page.
		for ci, col := range fr.Def.Schema.Cols {
			fr.MinMax.Record(k, col.Name, r[ci])
		}
		return page.RID{Node: uint16(fr.Node.NodeID), Disk: uint16(disk), Page: pageNum, Slot: uint16(slot)}, true, nil
	}
	if numPages > 0 {
		rid, ok, err := tryPage(numPages - 1)
		if err != nil {
			return page.RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	newPage := fr.Node.Allocate(fileID)
	rid, ok, err := tryPage(newPage)
	if err != nil {
		return page.RID{}, err
	}
	if !ok {
		return page.RID{}, fmt.Errorf("storage: row of %d bytes does not fit an empty page", len(enc))
	}
	return rid, nil
}

// Get fetches a row by RID the way a scan with ScanOptions.Mask set to mask
// reads it: a nil mask returns a whole row the caller owns; otherwise only
// the marked columns are decoded, into dst.
func (fr *Fragment) Get(rid page.RID, mask []bool, dst types.Row) (types.Row, bool, error) {
	if int(rid.Disk) >= len(fr.Files) {
		return nil, false, fmt.Errorf("storage: rid disk %d out of range", rid.Disk)
	}
	k := page.Key{File: fr.Files[rid.Disk], Page: rid.Page}
	f, err := fr.Node.Buf.Fetch(k)
	if err != nil {
		return nil, false, err
	}
	defer fr.Node.Buf.Unpin(f, false)
	f.Latch.RLock()
	defer f.Latch.RUnlock()
	rp, err := page.AsRowPage(f.Buf)
	if err != nil {
		return nil, false, err
	}
	return rp.Get(int(rid.Slot), mask, dst)
}

// Delete tombstones a row (out-of-place, as in the paper).
func (fr *Fragment) Delete(tx TxHook, rid page.RID) (bool, error) {
	if int(rid.Disk) >= len(fr.Files) {
		return false, fmt.Errorf("storage: rid disk %d out of range", rid.Disk)
	}
	k := page.Key{File: fr.Files[rid.Disk], Page: rid.Page}
	if tx != nil {
		if err := tx.LockPage(k, true); err != nil {
			return false, err
		}
	}
	f, err := fr.Node.Buf.Fetch(k)
	if err != nil {
		return false, err
	}
	f.Latch.Lock()
	rp, err := page.AsRowPage(f.Buf)
	if err != nil {
		f.Latch.Unlock()
		fr.Node.Buf.Unpin(f, false)
		return false, err
	}
	var before []byte
	if enc := rp.GetEncoded(int(rid.Slot)); enc != nil {
		before = append([]byte(nil), enc...)
	}
	ok := rp.Delete(int(rid.Slot))
	if ok && tx != nil {
		lsn := tx.LogDelete(k, rid.Slot, before)
		page.SetLSN(f.Buf, lsn)
	}
	f.Latch.Unlock()
	fr.Node.Buf.Unpin(f, ok)
	// A delete invalidates cached absence proofs? No — deletes only remove
	// rows, so "no rows match θ" stays true. Min-max also stays sound
	// (ranges may only be wider than reality). Nothing to invalidate.
	return ok, nil
}

// ScanOptions configures a fragment scan.
type ScanOptions struct {
	// SkipConj is the skippable form of the scan predicate; empty disables
	// predicate-based skipping for this scan.
	SkipConj skipcache.Conj
	// SkipComplete reports whether SkipConj is the COMPLETE predicate (all
	// conjuncts convertible); only then does the scan record new absence
	// facts into the predicate cache, from its callback's verdicts.
	SkipComplete bool
	// UseCache enables consulting/updating the predicate cache.
	UseCache bool
	// UseMinMax enables min-max SMA skipping (the baseline scheme).
	UseMinMax bool
	// Predeclare pre-declares upcoming pages to the buffer manager.
	Predeclare bool
	// Tx, when set, takes page locks for serializable reads (shared by
	// default; exclusive when LockExclusive is set — the write-intent mode
	// UPDATE/DELETE scans use so concurrent writers serialize without
	// upgrade deadlocks).
	Tx            TxHook
	LockExclusive bool
	// Mask, when set, marks by column offset the columns a row scan decodes.
	// Each worker then decodes every live row into one scratch row of its
	// own, which fn borrows until it returns: only the marked columns hold
	// the row's values. Without a mask fn gets whole rows it owns.
	Mask []bool
}

// ErrStopScan, returned by a scan callback, ends the scan without an error:
// every worker stops after its current unit and the scan returns nil, the
// way filepath.SkipAll ends a walk. A callback whose consumer has gone away
// returns it.
var ErrStopScan = errors.New("storage: scan stopped by its consumer")

// RowFunc is a row scan's callback. kept reports that it handed over a row
// the caller's predicate passed; storage records absence from that verdict
// (recordAbsence). An error ends the scan and, unless it is ErrStopScan, is
// the scan's error.
type RowFunc func(worker int, rid page.RID, r types.Row) (kept bool, err error)

// Scan is ParallelScan at degree 1: the whole scan runs on the caller's
// goroutine. DML and index builds scan this way, with Tx set.
func (fr *Fragment) Scan(opts ScanOptions, fn func(rid page.RID, r types.Row) (bool, error)) (ScanStats, error) {
	return fr.ParallelScan(opts, 1, func(_ int, rid page.RID, r types.Row) (bool, error) { return fn(rid, r) })
}

// ScanMatching is Scan for a writer that selects rows on a few columns and
// changes whole ones. keep reads the columns opts.Mask marks (all of them,
// without a mask) from the row the scan decoded; a row it passes is decoded
// whole from the scan's own copy of its page, under the page lock the scan
// took, and handed to fn, which owns it.
func (fr *Fragment) ScanMatching(opts ScanOptions, keep func(r types.Row) (bool, error), fn func(rid page.RID, r types.Row) error) (ScanStats, error) {
	sc := newRowScan(opts, 1)
	return fr.scanMorsels(sc, DefaultMorselPages, func(w int, rid page.RID, r types.Row) (bool, error) {
		if ok, err := keep(r); !ok || err != nil {
			return false, err
		}
		if opts.Mask != nil {
			var err error
			if r, _, err = (page.RowPage{Buf: *sc.workers[w].page}).Get(int(rid.Slot), nil, nil); err != nil {
				return false, err
			}
		}
		return true, fn(rid, r)
	})
}

// DefaultMorselPages is the page-range granularity a row scan hands to a
// worker at a time. Small enough that a skipping-heavy scan rebalances, large
// enough that the shared claim counter is off the per-page path.
const DefaultMorselPages = 16

// morsel is one contiguous page range of one disk's file, the unit of work a
// scan worker claims. numPages is the file's page count when the scan
// started, for the full-page-only absence-recording rule. The last morsel of
// a file is its tail: it follows the file to whatever length it has when the
// worker gets there. A locking scan depends on that — while it waited for a
// page lock, the transaction holding it may have appended the new version of
// a row to a page (or a file) that was not there when the scan started.
type morsel struct {
	disk     int
	file     page.FileID
	start    uint32
	end      uint32 // exclusive
	numPages uint32
	tail     bool
}

// ParallelScan iterates the live rows of every full and partial page of the
// fragment with N workers: the pages are split into morsels (contiguous page
// ranges) that workers claim from a shared counter, so a worker that skips
// its pages moves on to the next range instead of idling. Every page goes
// through scanMorsel — predicate cache, then min-max, then fetch, with
// absence recorded for full pages on which fn kept no row — so skipping
// behavior and the summed ScanStats do not depend on the degree. fn runs
// concurrently from all workers (worker tells them apart); an error from it
// stops every worker after its current page, and records nothing for the
// interrupted page. workers <= 1 runs on the caller's goroutine.
func (fr *Fragment) ParallelScan(opts ScanOptions, workers int, fn RowFunc) (ScanStats, error) {
	return fr.scanMorsels(newRowScan(opts, workers), DefaultMorselPages, fn)
}

func (fr *Fragment) scanMorsels(sc *rowScan, morselPages int, fn RowFunc) (ScanStats, error) {
	opts := sc.opts
	var morsels []morsel
	for disk, fileID := range fr.Files {
		numPages := fr.Node.NumPages(fileID)
		// Scan pre-declaration: tell the buffer manager which pages we
		// will request so the clock protects them (Section III).
		if opts.Predeclare && numPages > 0 {
			keys := make([]page.Key, 0, numPages)
			for p := uint32(0); p < numPages; p++ {
				keys = append(keys, page.Key{File: fileID, Page: p})
			}
			fr.Node.Buf.Predeclare(keys)
		}
		for start, tail := uint32(0), false; !tail; start += uint32(morselPages) {
			end := start + uint32(morselPages)
			if tail = end >= numPages; tail {
				end = numPages
			}
			morsels = append(morsels, morsel{disk: disk, file: fileID, start: start, end: end, numPages: numPages, tail: tail})
		}
	}
	stats, err := runMorsels(len(morsels), len(sc.workers), func(run *morselRun, w, i int) (ScanStats, error) {
		return fr.scanMorsel(sc, morsels[i], w, run, fn)
	})
	for _, sw := range sc.workers {
		if sw.page != nil {
			pageCopies.Put(sw.page)
		}
	}
	fr.Node.RowsScanned.Add(stats.RowsRead)
	return stats, err
}

// rowScan is what the workers of one row scan share.
type rowScan struct {
	opts    ScanOptions
	workers []rowScanWorker
}

func newRowScan(opts ScanOptions, workers int) *rowScan {
	return &rowScan{opts: opts, workers: make([]rowScanWorker, max(workers, 1))}
}

// rowScanWorker is one worker's scratch: the copy of the page it reads and,
// for a masked scan, the row it decodes into.
type rowScanWorker struct {
	page *[]byte
	row  types.Row
}

// pageCopies recycles the buffers row scans copy a page into, so that a
// scan of a one-page table allocates no page.
var pageCopies sync.Pool

// copyPage copies rp into the worker's page buffer. Called under the page's
// read latch.
func (sw *rowScanWorker) copyPage(rp page.RowPage) page.RowPage {
	if sw.page == nil {
		sw.page, _ = pageCopies.Get().(*[]byte)
	}
	if sw.page == nil || len(*sw.page) != len(rp.Buf) {
		buf := make([]byte, len(rp.Buf))
		sw.page = &buf
	}
	return rp.CopyTo(*sw.page)
}

// scanMorsel is the per-page body of every row scan. It reads each page
// from a copy taken under the page's read latch, so fn — which may ship a
// slab and wait for its consumer — never runs with the latch held. It
// returns fn's error, ErrStopScan included; run.stopped is checked between
// pages so a stop raised by another worker ends this one promptly.
func (fr *Fragment) scanMorsel(sc *rowScan, m morsel, w int, run *morselRun, fn RowFunc) (ScanStats, error) {
	var stats ScanStats
	opts, sw := &sc.opts, &sc.workers[w]
	if opts.Mask != nil && sw.row == nil {
		sw.row = make(types.Row, fr.Def.Schema.Len())
	}
	end, numPages := m.end, m.numPages
	for p := m.start; ; p++ {
		if p >= end {
			if !m.tail {
				break
			}
			numPages = fr.Node.NumPages(m.file)
			if end = numPages; p >= end {
				break
			}
		}
		if run.stopped() {
			return stats, nil
		}
		k := page.Key{File: m.file, Page: p}
		if len(opts.SkipConj) > 0 {
			if opts.UseCache && fr.PredCache.CanSkip(k, opts.SkipConj) {
				stats.PagesSkipped++
				continue
			}
			if opts.UseMinMax && fr.MinMax.CanSkip(k, opts.SkipConj) {
				stats.PagesSkipped++
				continue
			}
		}
		if opts.Tx != nil {
			if err := opts.Tx.LockPage(k, opts.LockExclusive); err != nil {
				return stats, err
			}
		}
		f, err := fr.Node.Buf.Fetch(k)
		if err != nil {
			return stats, err
		}
		f.Latch.RLock()
		free := page.TypeOf(f.Buf) == page.TypeFree
		rp, err := page.AsRowPage(f.Buf)
		if !free && err == nil {
			rp = sw.copyPage(rp)
		}
		f.Latch.RUnlock()
		fr.Node.Buf.Unpin(f, false)
		if free {
			continue
		}
		if err != nil {
			return stats, err
		}
		stats.PagesRead++
		kept := false
		var ferr error
		err = rp.Scan(opts.Mask, sw.row, func(slot int, r types.Row) bool {
			stats.RowsRead++
			rid := page.RID{Node: uint16(fr.Node.NodeID), Disk: uint16(m.disk), Page: p, Slot: uint16(slot)}
			var passed bool
			passed, ferr = fn(w, rid, r)
			kept = kept || passed
			return ferr == nil
		})
		if err == nil {
			err = ferr
		}
		if err != nil {
			return stats, err
		}
		// The last page of a file may still receive inserts.
		recordAbsence(fr.PredCache, opts, k, p < numPages-1, kept)
	}
	return stats, nil
}

// recordAbsence is the one absence rule of both table formats (the paper's
// predicate cache, Section III): a unit — a row page or a page set — that
// can no longer change, and on which the scan's callback kept no row, is
// recorded as holding no row that matches the skip conjunction. Sound only
// under SkipComplete: the conjunction then is the caller's whole predicate,
// so the caller's verdict is the conjunction's.
func recordAbsence(cache *skipcache.Cache, opts *ScanOptions, k page.Key, immutable, kept bool) {
	if immutable && !kept && opts.UseCache && opts.SkipComplete && len(opts.SkipConj) > 0 {
		cache.Record(k, opts.SkipConj)
	}
}

// Load bulk-loads rows into the fragment, sorting by the table's clustering
// columns first (Section III: data is sorted during loading to enforce
// clustering). Returns the number of rows loaded.
func (fr *Fragment) Load(rows []types.Row) (int, error) {
	if len(fr.Def.ClusterCols) > 0 {
		offs, err := fr.Def.ColOffsets(fr.Def.ClusterCols)
		if err != nil {
			return 0, err
		}
		sorted := make([]types.Row, len(rows))
		copy(sorted, rows)
		sort.SliceStable(sorted, func(i, j int) bool {
			for _, o := range offs {
				if c := types.Compare(sorted[i][o], sorted[j][o]); c != 0 {
					return c < 0
				}
			}
			return false
		})
		rows = sorted
	}
	for i, r := range rows {
		if _, err := fr.Insert(nil, r); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// Reorganize rewrites the fragment compacting tombstones and restoring
// clustering order, and invalidates all skipping state (the paper's table
// reorganization, which is what makes DML-disturbed clustering recoverable).
func (fr *Fragment) Reorganize() error {
	var live []types.Row
	if _, err := fr.Scan(ScanOptions{}, func(rid page.RID, r types.Row) (bool, error) {
		live = append(live, r.Clone())
		return true, nil
	}); err != nil {
		return err
	}
	// Reset files: truncate by reopening allocation at zero and zeroing
	// pages through the buffer manager.
	for _, fileID := range fr.Files {
		numPages := fr.Node.NumPages(fileID)
		for p := uint32(0); p < numPages; p++ {
			k := page.Key{File: fileID, Page: p}
			f, err := fr.Node.Buf.Fetch(k)
			if err != nil {
				return err
			}
			f.Latch.Lock()
			clear(f.Buf)
			page.InitRowPage(f.Buf)
			f.Latch.Unlock()
			fr.Node.Buf.Unpin(f, true)
		}
		fr.PredCache.InvalidateFile(fileID)
		fr.Node.mu.Lock()
		fr.Node.nextAlloc[fileID] = 0
		fr.Node.mu.Unlock()
	}
	fr.MinMax = skipcache.NewMinMax()
	fr.insertSeq.Store(0)
	_, err := fr.Load(live)
	return err
}
