package storage

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/page"
	"repro/internal/skipcache"
	"repro/internal/types"
)

func lineitemDef(columnar bool) *catalog.TableDef {
	return &catalog.TableDef{
		Name: "lineitem",
		Schema: types.NewSchema(
			types.Column{Name: "l_orderkey", Kind: types.KindInt},
			types.Column{Name: "l_quantity", Kind: types.KindInt},
			types.Column{Name: "l_shipmode", Kind: types.KindString},
			types.Column{Name: "l_price", Kind: types.KindFloat},
		),
		Part:     catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"l_orderkey"}},
		Columnar: columnar,
	}
}

func newNode(t *testing.T, pageSize int) *NodeStore {
	t.Helper()
	ns, err := NewNodeStore(NodeConfig{
		NodeID: 0, BaseDir: t.TempDir(), NumDisks: 2,
		PageSize: pageSize, BufFrames: 256, BufStripes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return ns
}

func liRow(i int64) types.Row {
	modes := []string{"AIR", "MAIL", "SHIP", "TRUCK"}
	return types.Row{
		types.NewInt(i),
		types.NewInt(i % 50),
		types.NewString(modes[i%4]),
		types.NewFloat(float64(i) * 1.01),
	}
}

// rowPasses evaluates theta on a row of schema s the way a caller whose whole
// predicate is theta does (SkipComplete): its verdict is what a scan callback
// reports as kept.
func rowPasses(s types.Schema, theta skipcache.Conj) func(types.Row) (bool, error) {
	return func(r types.Row) (bool, error) {
		for _, p := range theta {
			if ci := s.Find(p.Col); ci < 0 || !p.Matches(r[ci]) {
				return false, nil
			}
		}
		return true, nil
	}
}

// passes is rowPasses for a row scan of lineitemDef's schema.
func passes(theta skipcache.Conj) func(page.RID, types.Row) (bool, error) {
	keep := rowPasses(lineitemDef(false).Schema, theta)
	return func(_ page.RID, r types.Row) (bool, error) { return keep(r) }
}

// rowCount scans the fragment and counts its live rows.
func rowCount(fr *Fragment) (int64, error) {
	var n int64
	_, err := fr.Scan(ScanOptions{}, func(page.RID, types.Row) (bool, error) { n++; return true, nil })
	return n, err
}

func TestFragmentInsertScanGet(t *testing.T) {
	ns := newNode(t, 2048)
	fr, err := OpenFragment(ns, lineitemDef(false))
	if err != nil {
		t.Fatal(err)
	}
	var rids []page.RID
	for i := int64(0); i < 200; i++ {
		rid, err := fr.Insert(nil, liRow(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Get by RID.
	r, ok, err := fr.Get(rids[57], nil, nil)
	if err != nil || !ok || r[0].Int() != 57 {
		t.Fatalf("Get = %v ok=%v err=%v", r, ok, err)
	}
	// Scan sees everything exactly once.
	seen := map[int64]int{}
	stats, err := fr.Scan(ScanOptions{}, func(rid page.RID, r types.Row) (bool, error) {
		seen[r[0].Int()]++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 200 || stats.RowsRead != 200 {
		t.Fatalf("scan saw %d distinct, %d rows", len(seen), stats.RowsRead)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("row %d seen %d times", k, c)
		}
	}
	// Rows should spread over both disks.
	disks := map[uint16]bool{}
	for _, rid := range rids {
		disks[rid.Disk] = true
	}
	if len(disks) != 2 {
		t.Errorf("rows on %d disks, want 2", len(disks))
	}
}

func TestFragmentDelete(t *testing.T) {
	ns := newNode(t, 2048)
	fr, _ := OpenFragment(ns, lineitemDef(false))
	var rids []page.RID
	for i := int64(0); i < 20; i++ {
		rid, _ := fr.Insert(nil, liRow(i))
		rids = append(rids, rid)
	}
	ok, err := fr.Delete(nil, rids[5])
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, _ := fr.Delete(nil, rids[5]); ok {
		t.Error("double delete")
	}
	if _, ok, _ := fr.Get(rids[5], nil, nil); ok {
		t.Error("deleted row still visible")
	}
	n, _ := rowCount(fr)
	if n != 19 {
		t.Errorf("count = %d", n)
	}
}

func TestFragmentPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := NodeConfig{NodeID: 0, BaseDir: dir, NumDisks: 2, PageSize: 2048, BufFrames: 64, BufStripes: 2}
	ns, err := NewNodeStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr, _ := OpenFragment(ns, lineitemDef(false))
	for i := int64(0); i < 100; i++ {
		fr.Insert(nil, liRow(i))
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen the same directories.
	ns2, err := NewNodeStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	fr2, err := OpenFragment(ns2, lineitemDef(false))
	if err != nil {
		t.Fatal(err)
	}
	n, err := rowCount(fr2)
	if err != nil || n != 100 {
		t.Fatalf("reopened count = %d err=%v", n, err)
	}
}

func TestScanPredicateSkipping(t *testing.T) {
	ns := newNode(t, 1024)
	fr, _ := OpenFragment(ns, lineitemDef(false))
	for i := int64(0); i < 500; i++ {
		fr.Insert(nil, liRow(i))
	}
	theta := skipcache.Conj{{Col: "l_quantity", Op: skipcache.OpGt, Val: types.NewInt(100)}}
	opts := ScanOptions{SkipConj: theta, SkipComplete: true, UseCache: true}

	// First scan: nothing matches (quantity < 50 always); populates cache.
	matches := 0
	stats1, err := fr.Scan(opts, func(rid page.RID, r types.Row) (bool, error) {
		if r[1].Int() > 100 {
			matches++
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if matches != 0 || stats1.PagesSkipped != 0 {
		t.Fatalf("first scan: matches=%d skipped=%d", matches, stats1.PagesSkipped)
	}
	// Second scan with the same predicate: all full pages skipped.
	stats2, err := fr.Scan(opts, passes(theta))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.PagesSkipped == 0 {
		t.Fatal("second scan skipped nothing")
	}
	if stats2.PagesSkipped < stats1.PagesRead-2 {
		t.Errorf("skipped %d of %d full pages", stats2.PagesSkipped, stats1.PagesRead)
	}
	// A STRONGER predicate also skips (implication).
	stronger := skipcache.Conj{{Col: "l_quantity", Op: skipcache.OpGt, Val: types.NewInt(200)}}
	stats3, _ := fr.Scan(ScanOptions{SkipConj: stronger, SkipComplete: true, UseCache: true}, passes(stronger))
	if stats3.PagesSkipped == 0 {
		t.Error("implied predicate skipped nothing")
	}
	// A WEAKER predicate must re-read pages.
	weaker := skipcache.Conj{{Col: "l_quantity", Op: skipcache.OpGt, Val: types.NewInt(10)}}
	stats4, _ := fr.Scan(ScanOptions{SkipConj: weaker, SkipComplete: true, UseCache: true}, passes(weaker))
	if stats4.PagesSkipped != 0 {
		t.Error("weaker predicate must not skip")
	}
}

func TestScanMinMaxSkipping(t *testing.T) {
	ns := newNode(t, 1024)
	def := lineitemDef(false)
	def.ClusterCols = []string{"l_orderkey"} // clustering gives tight per-page ranges
	fr, _ := OpenFragment(ns, def)
	rows := make([]types.Row, 0, 500)
	for i := int64(0); i < 500; i++ {
		rows = append(rows, liRow(i))
	}
	if _, err := fr.Load(rows); err != nil {
		t.Fatal(err)
	}
	theta := skipcache.Conj{{Col: "l_orderkey", Op: skipcache.OpGt, Val: types.NewInt(450)}}
	stats, err := fr.Scan(ScanOptions{SkipConj: theta, UseMinMax: true}, passes(theta))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesSkipped == 0 {
		t.Error("min-max on clustered data should skip pages for a selective range")
	}
}

func TestScanPartialPredicateNotRecorded(t *testing.T) {
	ns := newNode(t, 1024)
	fr, _ := OpenFragment(ns, lineitemDef(false))
	for i := int64(0); i < 300; i++ {
		fr.Insert(nil, liRow(i))
	}
	// SkipComplete=false simulates a predicate with a non-convertible part
	// (e.g. LIKE): skipping may consult the cache but must not record.
	theta := skipcache.Conj{{Col: "l_quantity", Op: skipcache.OpGt, Val: types.NewInt(100)}}
	fr.Scan(ScanOptions{SkipConj: theta, SkipComplete: false, UseCache: true}, passes(theta))
	stats, _ := fr.Scan(ScanOptions{SkipConj: theta, SkipComplete: false, UseCache: true}, passes(theta))
	if stats.PagesSkipped != 0 {
		t.Error("partial predicate must not have been recorded")
	}
}

func TestScanEarlyStop(t *testing.T) {
	ns := newNode(t, 2048)
	fr, _ := OpenFragment(ns, lineitemDef(false))
	for i := int64(0); i < 100; i++ {
		fr.Insert(nil, liRow(i))
	}
	count := 0
	_, err := fr.Scan(ScanOptions{}, func(rid page.RID, r types.Row) (bool, error) {
		if count++; count == 10 {
			return true, ErrStopScan
		}
		return true, nil
	})
	if err != nil || count != 10 {
		t.Fatalf("early stop count = %d err=%v", count, err)
	}
}

func TestLoadClustering(t *testing.T) {
	ns := newNode(t, 4096)
	def := lineitemDef(false)
	def.ClusterCols = []string{"l_quantity"}
	fr, _ := OpenFragment(ns, def)
	rows := []types.Row{liRow(3), liRow(1), liRow(2), liRow(9), liRow(7)}
	if _, err := fr.Load(rows); err != nil {
		t.Fatal(err)
	}
	// Within each disk's pages, rows must be in l_quantity order. Collect
	// per-disk sequences.
	perDisk := map[uint16][]int64{}
	fr.Scan(ScanOptions{}, func(rid page.RID, r types.Row) (bool, error) {
		perDisk[rid.Disk] = append(perDisk[rid.Disk], r[1].Int())
		return true, nil
	})
	for d, seq := range perDisk {
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Errorf("disk %d out of order: %v", d, seq)
			}
		}
	}
}

func TestReorganize(t *testing.T) {
	ns := newNode(t, 1024)
	def := lineitemDef(false)
	def.ClusterCols = []string{"l_orderkey"}
	fr, _ := OpenFragment(ns, def)
	var rids []page.RID
	for i := int64(0); i < 200; i++ {
		rid, _ := fr.Insert(nil, liRow(i))
		rids = append(rids, rid)
	}
	for i := 0; i < 100; i += 2 {
		fr.Delete(nil, rids[i])
	}
	// Populate the predicate cache, which reorganize must invalidate.
	theta := skipcache.Conj{{Col: "l_quantity", Op: skipcache.OpGt, Val: types.NewInt(100)}}
	fr.Scan(ScanOptions{SkipConj: theta, SkipComplete: true, UseCache: true}, passes(theta))
	if err := fr.Reorganize(); err != nil {
		t.Fatal(err)
	}
	n, _ := rowCount(fr)
	if n != 150 {
		t.Fatalf("rows after reorganize = %d, want 150", n)
	}
	// Cache must have been invalidated: no skipping now.
	stats, _ := fr.Scan(ScanOptions{SkipConj: theta, SkipComplete: true, UseCache: true}, passes(theta))
	if stats.PagesSkipped != 0 {
		t.Error("predicate cache survived reorganize")
	}
}

func TestColumnarLoadScan(t *testing.T) {
	ns := newNode(t, 2048)
	fr, err := OpenColumnarFragment(ns, lineitemDef(true))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 300)
	for i := int64(0); i < 300; i++ {
		rows = append(rows, liRow(i))
	}
	if _, err := fr.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	stats, err := colScan(fr, ScanOptions{}, func(r types.Row) (bool, error) {
		if len(r) != 4 {
			t.Fatalf("reconstructed row arity %d", len(r))
		}
		seen[r[0].Int()] = true
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 300 {
		t.Fatalf("columnar scan saw %d rows", len(seen))
	}
	if stats.PagesRead == 0 {
		t.Error("no pages read — sets never flushed?")
	}
}

func TestColumnarOpenSetVisible(t *testing.T) {
	ns := newNode(t, 4096)
	fr, _ := OpenColumnarFragment(ns, lineitemDef(true))
	// Append a few rows without flushing: they sit in the open sets.
	for i := int64(0); i < 5; i++ {
		if err := fr.appendRow(liRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	colScan(fr, ScanOptions{}, func(r types.Row) (bool, error) { count++; return true, nil })
	if count != 5 {
		t.Errorf("open-set rows visible = %d, want 5", count)
	}
}

func TestColumnarSkipping(t *testing.T) {
	ns := newNode(t, 1024)
	fr, _ := OpenColumnarFragment(ns, lineitemDef(true))
	rows := make([]types.Row, 0, 400)
	for i := int64(0); i < 400; i++ {
		rows = append(rows, liRow(i))
	}
	fr.Load(rows)
	theta := skipcache.Conj{{Col: "l_quantity", Op: skipcache.OpGt, Val: types.NewInt(100)}}
	opts := ScanOptions{SkipConj: theta, SkipComplete: true, UseCache: true}
	s1, err := colScan(fr, opts, rowPasses(fr.Def.Schema, theta))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := colScan(fr, opts, rowPasses(fr.Def.Schema, theta))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped == 0 {
		t.Fatalf("columnar repeat scan skipped nothing (first read %d pages)", s1.PagesRead)
	}
}

// TestColumnarHuffmanStrings: string columns round-trip through both forms a
// sealed string page takes — a page dictionary when few values repeat, the
// Huffman-packed appended stream when every value on the page is distinct.
func TestColumnarHuffmanStrings(t *testing.T) {
	for _, distinct := range []int64{7, 1 << 30} {
		ns := newNode(t, 1024)
		def := &catalog.TableDef{
			Name: "comments",
			Schema: types.NewSchema(
				types.Column{Name: "id", Kind: types.KindInt},
				types.Column{Name: "body", Kind: types.KindString},
			),
			Part:     catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"id"}},
			Columnar: true,
		}
		fr, _ := OpenColumnarFragment(ns, def)
		body := func(i int64) string {
			return fmt.Sprintf("final deposits wake quickly among the %d foxes", i%distinct)
		}
		var rows []types.Row
		for i := int64(0); i < 200; i++ {
			rows = append(rows, types.Row{types.NewInt(i), types.NewString(body(i))})
		}
		fr.Load(rows)
		count := 0
		_, err := colScan(fr, ScanOptions{}, func(r types.Row) (bool, error) {
			if r[1].Str() != body(r[0].Int()) {
				t.Fatalf("row %d: body %q, want %q", r[0].Int(), r[1].Str(), body(r[0].Int()))
			}
			count++
			return true, nil
		})
		if err != nil || count != 200 {
			t.Fatalf("%d distinct: count=%d err=%v", distinct, count, err)
		}
	}
}

// TestColumnarLoadGoldenPages: a page set closes when a typed column's sealed
// page is full, so the per-file counts below are what the admission rule and
// the layouts together allocate for these rows, Loaded and Flushed (and what
// the benchmark's space_amp follows). The mixed-kind l_note column has no
// typed layout and spills to the overflow file instead of capping the other
// four. The loaded rows come back exactly, NULLs and the mixed-kind column
// included.
func TestColumnarLoadGoldenPages(t *testing.T) {
	ns := newNode(t, 2048)
	def := lineitemDef(true)
	def.Schema.Cols = append(def.Schema.Cols, types.Column{Name: "l_note", Kind: types.KindString})
	fr, err := OpenColumnarFragment(ns, def)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]types.Row{}
	rows := make([]types.Row, 0, 3000)
	for i := int64(0); i < 3000; i++ {
		r := append(liRow(i), types.NewString(fmt.Sprintf("note %d of its kind", i*7919%1013)))
		switch {
		case i%17 == 4:
			r[3] = types.Null
		case i%29 == 11:
			r[4] = types.NewInt(i) // a STRING column holding an INT: the page stays tagged
		}
		rows = append(rows, r)
		want[i] = r
	}
	if _, err := fr.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	var pages []uint32
	for _, f := range append(append([]page.FileID{}, fr.Files...), fr.Ovf...) {
		pages = append(pages, ns.NumPages(f))
	}
	if golden := []uint32{35, 35, 18, 18}; !reflect.DeepEqual(pages, golden) {
		t.Fatalf("pages per set file and per overflow file %v, want %v", pages, golden)
	}
	_, err = fr.ScanPageSets(ScanOptions{}, nil, 1, func(_ int, set page.PageSet) (bool, error) {
		got, err := set.Rows()
		if err != nil {
			return false, err
		}
		for _, r := range got {
			if !reflect.DeepEqual(r, want[r[0].Int()]) {
				t.Fatalf("row %d: scanned %v, loaded %v", r[0].Int(), r, want[r[0].Int()])
			}
			delete(want, r[0].Int())
		}
		return true, nil
	})
	if err != nil || len(want) != 0 {
		t.Fatalf("scan: %v; %d loaded rows never came back", err, len(want))
	}
}

func TestDiskStoreMetering(t *testing.T) {
	ns := newNode(t, 2048)
	fr, _ := OpenFragment(ns, lineitemDef(false))
	for i := int64(0); i < 50; i++ {
		fr.Insert(nil, liRow(i))
	}
	ns.Buf.FlushAll()
	if ns.Store.PagesWritten.Load() == 0 {
		t.Error("no page writes metered")
	}
}
