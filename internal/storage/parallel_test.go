package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/page"
	"repro/internal/skipcache"
	"repro/internal/types"
)

// colScanRows reads a columnar fragment row-wise for tests: page sets come
// from the one storage entry point (scanPageSets, so the morsel size can be
// swept) and are decoded with the boxed PageSet.Rows reference decoder. fn
// reports kept per row, as a row scan's callback does; the set is kept when
// one of its rows is.
func colScanRows(fr *ColumnarFragment, opts ScanOptions, workers, morselSets int, fn func(worker int, r types.Row) (bool, error)) (ScanStats, error) {
	return fr.scanPageSets(opts, nil, workers, morselSets, func(w int, set page.PageSet) (bool, error) {
		rows, err := set.Rows()
		if err != nil {
			return false, err
		}
		kept := false
		for _, r := range rows {
			passed, err := fn(w, r)
			if kept = kept || passed; err != nil {
				return kept, err
			}
		}
		return kept, nil
	})
}

// colScan is colScanRows at degree 1 with the production morsel size.
func colScan(fr *ColumnarFragment, opts ScanOptions, fn func(r types.Row) (bool, error)) (ScanStats, error) {
	return colScanRows(fr, opts, 1, defaultMorselSets, func(_ int, r types.Row) (bool, error) { return fn(r) })
}

// scanSweep is the workers × morsel-size grid every parity test runs through
// the one driver; morsel 0 stands for the format's production constant.
var scanSweep = func() (out []struct{ workers, morsel int }) {
	for _, w := range []int{1, 2, 4} {
		for _, m := range []int{1, 2, 0} {
			out = append(out, struct{ workers, morsel int }{w, m})
		}
	}
	return out
}()

func loadLineitem(t *testing.T, load func([]types.Row) (int, error), n int64) {
	t.Helper()
	rows := make([]types.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, liRow(i))
	}
	if _, err := load(rows); err != nil {
		t.Fatal(err)
	}
}

// checkParity runs scan over the sweep and requires the row multiset, the
// ScanStats and the node's RowsScanned delta to equal the degree-1,
// production-morsel reference at every point of the grid.
func checkParity(t *testing.T, ns *NodeStore, defMorsel int, scan func(workers, morsel int, fn func(r types.Row) bool) (ScanStats, error)) {
	t.Helper()
	run := func(workers, morsel int) (map[int64]int, ScanStats, int64) {
		var mu sync.Mutex
		seen := map[int64]int{}
		before := ns.RowsScanned.Load()
		stats, err := scan(workers, morsel, func(r types.Row) bool {
			mu.Lock()
			seen[r[0].Int()]++
			mu.Unlock()
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen, stats, ns.RowsScanned.Load() - before
	}
	want, wantStats, wantScanned := run(1, defMorsel)
	if wantScanned != wantStats.RowsRead {
		t.Fatalf("reference RowsScanned moved %d, stats.RowsRead %d", wantScanned, wantStats.RowsRead)
	}
	for _, tc := range scanSweep {
		morsel := tc.morsel
		if morsel == 0 {
			morsel = defMorsel
		}
		t.Run(fmt.Sprintf("w%d_m%d", tc.workers, morsel), func(t *testing.T) {
			got, stats, scanned := run(tc.workers, morsel)
			if stats != wantStats {
				t.Errorf("stats = %+v, reference %+v", stats, wantStats)
			}
			if scanned != wantScanned {
				t.Errorf("RowsScanned moved %d, reference %d", scanned, wantScanned)
			}
			if len(got) != len(want) {
				t.Fatalf("saw %d distinct keys, reference %d", len(got), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("key %d seen %d times, reference %d", k, got[k], c)
				}
			}
		})
	}
}

// TestParallelScanParity: the row scan must see exactly the same rows (as a
// multiset) and report identical page statistics at every degree and morsel
// granularity, degenerate ones included.
func TestParallelScanParity(t *testing.T) {
	ns := newNode(t, 2048)
	fr, err := OpenFragment(ns, lineitemDef(false))
	if err != nil {
		t.Fatal(err)
	}
	loadLineitem(t, fr.Load, 5000)
	checkParity(t, ns, DefaultMorselPages, func(workers, morsel int, fn func(r types.Row) bool) (ScanStats, error) {
		return fr.scanMorsels(newRowScan(ScanOptions{}, workers), morsel, func(_ int, _ page.RID, r types.Row) (bool, error) { return fn(r), nil })
	})
}

// TestParallelScanSkipParity: min-max skipping must skip the same pages at
// every degree, and the surviving rows must match.
func TestParallelScanSkipParity(t *testing.T) {
	ns := newNode(t, 2048)
	fr, err := OpenFragment(ns, lineitemDef(false))
	if err != nil {
		t.Fatal(err)
	}
	loadLineitem(t, fr.Load, 4000)
	// l_orderkey > 3500 skips most pages via min-max.
	opts := ScanOptions{
		SkipConj: skipcache.Conj{{
			Col: "l_orderkey", Op: skipcache.OpGt, Val: types.NewInt(3500),
		}},
		SkipComplete: true,
		UseMinMax:    true,
	}
	stats, err := fr.Scan(opts, passes(opts.SkipConj))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesSkipped == 0 {
		t.Fatal("test premise broken: serial scan skipped nothing")
	}
	checkParity(t, ns, DefaultMorselPages, func(workers, morsel int, fn func(r types.Row) bool) (ScanStats, error) {
		return fr.scanMorsels(newRowScan(opts, workers), morsel, func(_ int, _ page.RID, r types.Row) (bool, error) { return fn(r), nil })
	})
}

// TestColumnarParallelScanParity mirrors the row-store parity check for
// columnar fragments: sealed-set morsels plus one open-set morsel per disk.
func TestColumnarParallelScanParity(t *testing.T) {
	ns := newNode(t, 2048)
	fr, err := OpenColumnarFragment(ns, lineitemDef(true))
	if err != nil {
		t.Fatal(err)
	}
	loadLineitem(t, fr.Load, 5000)
	for i := int64(5000); i < 5007; i++ { // unflushed rows in both disks' open sets
		if err := fr.appendRow(liRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkParity(t, ns, defaultMorselSets, func(workers, morsel int, fn func(r types.Row) bool) (ScanStats, error) {
		return colScanRows(fr, ScanOptions{}, workers, morsel, func(_ int, r types.Row) (bool, error) { return fn(r), nil })
	})
}

// TestColumnarLoadBesideScans: one goroutine Loads 200 batches of 1–40 rows
// into a fragment whose body column chains, while two others scan it at two
// workers each, over and over. The open sets, the round-robin pointer and
// the chain sealer that snapshots of the body column share are the
// fragment's to guard (run it under -race). Every scan returns a
// sub-multiset of the rows loaded so far, each row exact, and the scan after
// the last Load returns every row.
func TestColumnarLoadBesideScans(t *testing.T) {
	_, fr := chainedFragment(t, 1024, 256, 0)
	row := func(i int64) types.Row {
		return types.Row{types.NewFloat(float64(i)), types.NewString(fmt.Sprintf("body of note %d, like no other", i))}
	}
	var issued atomic.Int64 // rows handed to Load so far: a scan may see any of them
	// scan checks one scan's rows against the rows issued by its end.
	scan := func() (int, error) {
		var mu sync.Mutex
		seen := map[int64]bool{}
		_, err := fr.ScanPageSets(ScanOptions{}, nil, 2, func(_ int, set page.PageSet) (bool, error) {
			rows, err := set.Rows()
			if err != nil {
				return false, err
			}
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rows {
				i := int64(r[0].Float())
				if seen[i] || !reflect.DeepEqual(r, row(i)) {
					return false, fmt.Errorf("row %v: a duplicate, or not a row loaded", r)
				}
				seen[i] = true
			}
			return true, nil
		})
		if err != nil {
			return 0, err
		}
		bound := issued.Load()
		for i := range seen {
			if i < 0 || i >= bound {
				return 0, fmt.Errorf("row %d scanned, only %d issued", i, bound)
			}
		}
		return len(seen), nil
	}

	// The Loads pause halfway until each scanner has finished a scan that
	// began after the first Load, so the scans run beside the Loads however
	// the goroutines are scheduled.
	done, ran := make(chan struct{}), make(chan struct{}, 2)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			signal := func() { once.Do(func() { ran <- struct{}{} }) }
			defer signal() // a failed scan must not leave the Loads waiting
			for {
				select {
				case <-done:
					return
				default:
				}
				loading := issued.Load() > 0
				if _, err := scan(); err != nil {
					t.Error(err)
					return
				}
				if loading {
					signal()
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(7))
	var next int64
	for b := 0; b < 200; b++ {
		if b == 100 {
			<-ran
			<-ran
		}
		batch := make([]types.Row, 1+r.Intn(40))
		for k := range batch {
			batch[k] = row(next)
			next++
		}
		issued.Store(next)
		if _, err := fr.Load(batch); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if n, err := scan(); err != nil || int64(n) != next {
		t.Fatalf("after the last Load: %d of %d rows scanned, %v", n, next, err)
	}
}

// TestRowScanBesideWriters: one goroutine inserts rows into a row fragment
// and tombstones every fifth, while two others scan it at two workers each —
// one whole rows, one masked to l_orderkey and l_shipmode with a skip
// conjunction on l_price, which the scan must decode too — and fetch rows by
// RID, over and over. A page's slot directory and rows are the frame
// latch's to guard (run it under -race). Every row a scan returns is a row
// inserted, exact in the columns it decoded.
func TestRowScanBesideWriters(t *testing.T) {
	ns := newNode(t, 2048)
	fr, err := OpenFragment(ns, lineitemDef(false))
	if err != nil {
		t.Fatal(err)
	}
	mask := []bool{true, false, true, false}
	check := func(r types.Row, cols []int) error {
		want := liRow(r[0].Int())
		for _, c := range cols {
			if types.Compare(r[c], want[c]) != 0 {
				return fmt.Errorf("row %v: column %d is not the inserted %v", r, c, want[c])
			}
		}
		return nil
	}
	var rids sync.Map // l_orderkey → RID, for the fetches
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, masked := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts, cols := ScanOptions{}, []int{0, 1, 2, 3}
			if masked {
				opts, cols = ScanOptions{Mask: mask}, []int{0, 2}
			}
			scratch := make(types.Row, 4)
			for {
				select {
				case <-done:
					return
				default:
				}
				_, err := fr.ParallelScan(opts, 2, func(_ int, _ page.RID, r types.Row) (bool, error) {
					return true, check(r, cols)
				})
				rids.Range(func(_, v any) bool {
					var r types.Row
					var ok bool
					if r, ok, err = fr.Get(v.(page.RID), opts.Mask, scratch); ok && err == nil {
						err = check(r, []int{0, 2})
					}
					return err == nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := int64(0); i < 2000; i++ {
		rid, err := fr.Insert(nil, liRow(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := fr.Delete(nil, rid); err != nil {
				t.Fatal(err)
			}
		} else if i%50 == 1 {
			rids.Store(i, rid)
		}
	}
	close(done)
	wg.Wait()
	if n, err := rowCount(fr); err != nil || n != 1600 {
		t.Fatalf("%d live rows after the writes, want 1600 (%v)", n, err)
	}
}

// TestParallelScanEarlyStop: a consumer returning ErrStopScan must stop the scan
// promptly without error at every degree, and the rows the scan did read
// must reach the node's RowsScanned counter all the same.
func TestParallelScanEarlyStop(t *testing.T) {
	ns := newNode(t, 2048)
	rowFr, err := OpenFragment(ns, lineitemDef(false))
	if err != nil {
		t.Fatal(err)
	}
	loadLineitem(t, rowFr.Load, 2000)
	colDef := lineitemDef(true)
	colDef.Name = "lineitem_col"
	colFr, err := OpenColumnarFragment(ns, colDef)
	if err != nil {
		t.Fatal(err)
	}
	loadLineitem(t, colFr.Load, 2000)
	stopAt := func(cont bool) error {
		if cont {
			return nil
		}
		return ErrStopScan
	}

	formats := []struct {
		name      string
		defMorsel int
		scan      func(workers, morsel int, fn func() bool) (ScanStats, error)
	}{
		{"row", DefaultMorselPages, func(workers, morsel int, fn func() bool) (ScanStats, error) {
			return rowFr.scanMorsels(newRowScan(ScanOptions{}, workers), morsel, func(int, page.RID, types.Row) (bool, error) { return true, stopAt(fn()) })
		}},
		{"columnar", defaultMorselSets, func(workers, morsel int, fn func() bool) (ScanStats, error) {
			return colScanRows(colFr, ScanOptions{}, workers, morsel, func(int, types.Row) (bool, error) { return true, stopAt(fn()) })
		}},
	}
	for _, f := range formats {
		for _, tc := range scanSweep {
			morsel := tc.morsel
			if morsel == 0 {
				morsel = f.defMorsel
			}
			t.Run(fmt.Sprintf("%s_w%d_m%d", f.name, tc.workers, morsel), func(t *testing.T) {
				var mu sync.Mutex
				n := 0
				before := ns.RowsScanned.Load()
				stats, err := f.scan(tc.workers, morsel, func() bool {
					mu.Lock()
					defer mu.Unlock()
					n++
					return n < 100
				})
				if err != nil {
					t.Fatal(err)
				}
				if n < 100 || n >= 2000 {
					t.Errorf("early stop saw %d rows", n)
				}
				if tc.workers == 1 && n != 100 {
					t.Errorf("degree 1 saw %d rows after the stop, want exactly 100", n)
				}
				if stats.RowsRead < 100 || stats.RowsRead >= 2000 {
					t.Errorf("stats.RowsRead = %d after an early stop", stats.RowsRead)
				}
				if d := ns.RowsScanned.Load() - before; d != stats.RowsRead {
					t.Errorf("RowsScanned moved %d, stats.RowsRead %d", d, stats.RowsRead)
				}
			})
		}
	}
}

// TestColumnarNonColumnPage: a sealed page set holding a page of another type
// is corruption and must fail the scan with an error naming the page — at the
// parent commit the whole set was dropped silently. A set whose pages are
// allocated but not yet written (TypeFree) is still passed over without error.
func TestColumnarNonColumnPage(t *testing.T) {
	ns := newNode(t, 2048)
	fr, err := OpenColumnarFragment(ns, lineitemDef(true))
	if err != nil {
		t.Fatal(err)
	}
	loadLineitem(t, fr.Load, 1000)
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	count := func() (int, error) {
		n := 0
		_, err := colScan(fr, ScanOptions{}, func(types.Row) (bool, error) { n++; return true, nil })
		return n, err
	}
	if n, err := count(); err != nil || n != 1000 {
		t.Fatalf("clean scan: rows=%d err=%v", n, err)
	}
	ncols := uint32(fr.Def.Schema.Len())
	const typeOff = 8 // the page header's type byte
	if probe := make([]byte, 16); true {
		probe[typeOff] = page.TypeRow
		if page.TypeOf(probe) != page.TypeRow {
			t.Fatal("test premise broken: the page type byte moved")
		}
	}
	setType := func(k page.Key, typ byte) byte {
		t.Helper()
		f, err := ns.Buf.Fetch(k)
		if err != nil {
			t.Fatal(err)
		}
		old := f.Buf[typeOff]
		f.Buf[typeOff] = typ
		ns.Buf.Unpin(f, true)
		return old
	}

	// Second set of disk 0, its third column page: flip the type byte.
	bad := page.Key{File: fr.Files[0], Page: ncols + 2}
	old := setType(bad, page.TypeRow)
	for _, workers := range []int{1, 4} {
		stats, err := colScanRows(fr, ScanOptions{}, workers, defaultMorselSets, func(int, types.Row) (bool, error) { return true, nil })
		if err == nil {
			t.Fatalf("workers=%d: scan over a non-column page returned rows=%d err=<nil>", workers, stats.RowsRead)
		}
		if !strings.Contains(err.Error(), bad.String()) {
			t.Errorf("workers=%d: error does not name page %v: %v", workers, bad, err)
		}
	}
	setType(bad, old)

	// The whole set allocated but unwritten: skipped silently, rows of the
	// other sets still arrive.
	first := page.Key{File: fr.Files[0], Page: ncols}
	f, err := ns.Buf.Fetch(first)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := page.AsColumnPage(f.Buf)
	if err != nil {
		t.Fatal(err)
	}
	lost := cp.NumValues()
	ns.Buf.Unpin(f, false)
	for i := uint32(0); i < ncols; i++ {
		setType(page.Key{File: fr.Files[0], Page: ncols + i}, page.TypeFree)
	}
	if n, err := count(); err != nil || n != 1000-lost {
		t.Fatalf("free set: rows=%d err=%v, want %d rows and no error", n, err, 1000-lost)
	}
}

// lockHook is a TxHook whose only behavior is to run a callback on the first
// page lock: the moment a locking scan would have been blocked behind another
// transaction.
type lockHook struct{ onFirstLock func() }

func (h *lockHook) LockPage(page.Key, bool) error {
	if f := h.onFirstLock; f != nil {
		h.onFirstLock = nil
		f()
	}
	return nil
}
func (h *lockHook) LogInsert(page.Key, uint16, []byte) uint64 { return 0 }
func (h *lockHook) LogDelete(page.Key, uint16, []byte) uint64 { return 0 }

// TestLockingScanSeesRowsAppendedWhileItWaited: an UPDATE's scan takes page
// locks in file order; when it gets a lock another transaction held, that
// transaction has committed, and the new row versions it appended — to a later
// page of the same file, or to a disk file that was still empty when the scan
// started — must be visible to the scan, or the second UPDATE silently
// matches nothing. The morsel list is built before the first lock, so the
// tail morsel of every file has to follow the file.
func TestLockingScanSeesRowsAppendedWhileItWaited(t *testing.T) {
	for _, appended := range []int64{1, 300} {
		t.Run(fmt.Sprintf("appended-%d", appended), func(t *testing.T) {
			ns := newNode(t, 2048)
			fr, err := OpenFragment(ns, lineitemDef(false))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fr.Insert(nil, liRow(0)); err != nil { // disk 0; disk 1 stays empty
				t.Fatal(err)
			}
			hook := &lockHook{onFirstLock: func() {
				for i := int64(1); i <= appended; i++ {
					if _, err := fr.Insert(nil, liRow(i)); err != nil {
						t.Error(err)
					}
				}
			}}
			seen := map[int64]bool{}
			_, err = fr.Scan(ScanOptions{Tx: hook, LockExclusive: true}, func(_ page.RID, r types.Row) (bool, error) {
				seen[r[0].Int()] = true
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(seen)) != 1+appended {
				t.Fatalf("locking scan saw %d rows, want %d", len(seen), 1+appended)
			}
		})
	}
}

// TestColumnarScanFetchesOnlyReadSet: a scan given a read set of k columns
// asks the buffer manager for exactly k pages per sealed set — at degree 1
// and 4, and when it is stopped early — and hands its callback sets that
// hold those k pages and no others, the in-memory open set included (which
// costs no fetch). Every read set, the empty one too, sees every row.
func TestColumnarScanFetchesOnlyReadSet(t *testing.T) {
	ns := newNode(t, 2048)
	fr, err := OpenColumnarFragment(ns, lineitemDef(true))
	if err != nil {
		t.Fatal(err)
	}
	const loaded, appended = 3000, 5
	loadLineitem(t, fr.Load, loaded)
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := int64(loaded); i < loaded+appended; i++ {
		if err := fr.appendRow(liRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	ncols := fr.Def.Schema.Len()
	sealedSets := 0
	for _, id := range fr.Files {
		sealedSets += int(ns.NumPages(id)) / ncols
	}
	if sealedSets < 8 {
		t.Fatalf("only %d sealed sets: the test needs several per worker", sealedSets)
	}
	fetches := func() int64 { s := ns.Buf.Stats(); return s.Hits + s.Misses }

	for _, read := range [][]int{nil, {0, 1, 2, 3}, {1}, {0, 3}, {2, 3}, {}} {
		populated := make([]bool, ncols)
		k := len(read)
		switch {
		case read == nil:
			k = ncols
			for i := range populated {
				populated[i] = true
			}
		case k == 0:
			k, populated[0] = 1, true // one page, for the row count
		default:
			for _, ci := range read {
				populated[ci] = true
			}
		}
		for _, workers := range []int{1, 4} {
			for _, stopAfter := range []int{0, 1} { // 0: run to the end
				name := fmt.Sprintf("read=%v/w%d/stop=%d", read, workers, stopAfter)
				var mu sync.Mutex
				rows, calls := 0, 0
				before := fetches()
				stats, err := fr.ScanPageSets(ScanOptions{}, read, workers, func(_ int, set page.PageSet) (bool, error) {
					mu.Lock()
					defer mu.Unlock()
					for ci, p := range set.Pages {
						if (p.Buf != nil) != populated[ci] {
							t.Errorf("%s: a set has column %d populated=%v, want %v", name, ci, p.Buf != nil, populated[ci])
						}
					}
					rows += set.NumRows()
					if calls++; stopAfter > 0 && calls >= stopAfter {
						return true, ErrStopScan
					}
					return true, nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Storage counts the sealed sets it handed over; the others
				// were open sets, which cost no fetch.
				sealedCalls := int(stats.SetsRead)
				got := fetches() - before
				if want := int64(sealedCalls * k); got != want || stats.PagesRead != want {
					t.Errorf("%s: %d buffer fetches, stats.PagesRead %d, want %d (%d sealed sets × %d columns)",
						name, got, stats.PagesRead, want, sealedCalls, k)
				}
				switch {
				case stopAfter == 0 && (sealedCalls != sealedSets || rows != loaded+appended):
					t.Errorf("%s: saw %d of %d sealed sets and %d of %d rows", name, sealedCalls, sealedSets, rows, loaded+appended)
				case stopAfter == 1 && workers == 1 && calls != 1:
					t.Errorf("%s: %d sets after a stop at the first", name, calls)
				case stopAfter == 1 && calls > workers:
					t.Errorf("%s: %d sets after a stop at the first, more than one per worker", name, calls)
				}
			}
		}
	}

	// Skipped sets: the fetches a skip saves are the read set's, not the
	// table's width; an open set, skipped by its running min-max, saves none.
	openSets := len(fr.Files) // the appended rows reach every disk
	opts := ScanOptions{SkipConj: skipcache.Conj{{Col: "l_orderkey", Op: skipcache.OpGt, Val: types.NewInt(1 << 40)}}, UseMinMax: true}
	before := fetches()
	stats, err := fr.ScanPageSets(opts, []int{0, 3}, 1, func(_ int, set page.PageSet) (bool, error) {
		t.Errorf("a set of %d rows survived a predicate above every key", set.NumRows())
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, sets := fetches()-before, sealedSets+openSets; got != 0 || stats.PagesRead != 0 || stats.SetsSkipped != int64(sets) || stats.PagesSkipped != int64(2*sets) {
		t.Errorf("all-skipping scan: %d fetches, stats %+v, want 0 fetches, %d sets and %d pages skipped", got, stats, sets, 2*sets)
	}
}
