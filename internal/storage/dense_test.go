package storage

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/page"
	"repro/internal/types"
)

// denseColumns are the column shapes TestDenseSetsProperty draws schemas
// from. gen receives the page size so that one shape can put strings next to
// it.
var denseColumns = []struct {
	name string
	kind types.Kind
	gen  func(r *rand.Rand, i, pageSize int) types.Value
}{
	{"key", types.KindInt, func(r *rand.Rand, i, _ int) types.Value { return types.NewInt(int64(i)) }},
	{"wide", types.KindInt, func(r *rand.Rand, i, _ int) types.Value { return types.NewInt(r.Int63() - 1<<62) }},
	{"price", types.KindFloat, func(r *rand.Rand, i, _ int) types.Value { return types.NewFloat(r.Float64() * 1e5) }},
	{"day", types.KindDate, func(r *rand.Rand, i, _ int) types.Value { return types.NewDate(8000 + int64(r.Intn(2500))) }},
	{"flag", types.KindBool, func(r *rand.Rand, i, _ int) types.Value { return types.NewBool(r.Intn(2) == 0) }},
	{"nullheavy", types.KindFloat, func(r *rand.Rand, i, _ int) types.Value {
		if r.Intn(10) < 7 {
			return types.Null
		}
		return types.NewFloat(float64(r.Intn(100)))
	}},
	{"allnull", types.KindInt, func(r *rand.Rand, i, _ int) types.Value { return types.Null }},
	{"mode", types.KindString, func(r *rand.Rand, i, _ int) types.Value { // duplicate-heavy
		return types.NewString([]string{"AIR", "MAIL", "SHIP", "TRUCK", "REG AIR"}[r.Intn(5)])
	}},
	{"comment", types.KindString, func(r *rand.Rand, i, _ int) types.Value { // > 256 distinct
		return types.NewString(fmt.Sprintf("carefully final request %d sleeps %d", i, r.Intn(1000)))
	}},
	{"mixed", types.KindString, func(r *rand.Rand, i, _ int) types.Value { // a STRING column holding INTs
		if r.Intn(4) == 0 {
			return types.NewInt(int64(r.Intn(50)))
		}
		return types.NewString(fmt.Sprintf("m%d", r.Intn(20)))
	}},
	{"blob", types.KindString, func(r *rand.Rand, i, pageSize int) types.Value { // some strings near the page size
		if r.Intn(40) != 0 {
			return types.NewString(fmt.Sprintf("b%d", r.Intn(300)))
		}
		max := pageSize - 64 // a cell of this many bytes still fits a page alone
		return types.NewString(strings.Repeat(string(rune('a'+r.Intn(26))), max-r.Intn(max/8)))
	}},
}

// rowKey is a row compared exactly: float bits, not float values.
func rowKey(r types.Row) string {
	var sb strings.Builder
	for _, v := range r {
		fmt.Fprintf(&sb, "%d:%d:%x:%q|", v.K, v.I, math.Float64bits(v.F), v.S)
	}
	return sb.String()
}

// TestDenseSetsProperty: over seeded random schemas × page sizes × disks,
// Load and Flush then ScanPageSets returns the loaded multiset; no page's
// payload passes the page size; all pages of a set — and the pages of a
// chain, summed — agree on the set's row count; a chain has at most
// page.MaxChainPages pages; and every set but a file's last is dense: the row
// that opened the next set would not have been admitted to it. The same rows
// loaded as a stream of 1–50-row Loads and flushed once hold the same: every
// set and overflow file has the page count of the single Load's.
func TestDenseSetsProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, pageSize := range []int{512, 2048, 16384} {
			for _, disks := range []int{1, 2} {
				t.Run(fmt.Sprintf("seed%d/page%d/disks%d", seed, pageSize, disks), func(t *testing.T) {
					r := rand.New(rand.NewSource(seed*1000 + int64(pageSize) + int64(disks)))
					ns, err := NewNodeStore(NodeConfig{BaseDir: t.TempDir(), NumDisks: disks, PageSize: pageSize, BufFrames: 256, BufStripes: 2})
					if err != nil {
						t.Fatal(err)
					}
					defer ns.Close()
					def := &catalog.TableDef{Name: "dense", Part: catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"c0"}}, Columnar: true}
					var gens []func(r *rand.Rand, i, pageSize int) types.Value
					for _, pick := range r.Perm(len(denseColumns))[:3+r.Intn(4)] {
						c := denseColumns[pick]
						def.Schema.Cols = append(def.Schema.Cols, types.Column{Name: fmt.Sprintf("c%d_%s", len(gens), c.name), Kind: c.kind})
						gens = append(gens, c.gen)
					}
					ncols := len(gens)
					nrows := disks * (pageSize/2 + r.Intn(pageSize/2))
					rows := make([]types.Row, nrows)
					for i := range rows {
						rows[i] = make(types.Row, ncols)
						for ci, gen := range gens {
							rows[i][ci] = gen(r, i, pageSize)
						}
					}
					whole := checkDenseSets(t, ns, def, [][]types.Row{rows})
					var batches [][]types.Row
					for i := 0; i < nrows; {
						n := min(1+r.Intn(50), nrows-i)
						batches = append(batches, rows[i:i+n])
						i += n
					}
					batched := *def
					batched.Name = "dense_batched"
					streamed := checkDenseSets(t, ns, &batched, batches)
					for f := range whole.Files {
						for _, pair := range [][2]page.FileID{{whole.Files[f], streamed.Files[f]}, {whole.Ovf[f], streamed.Ovf[f]}} {
							if a, b := ns.NumPages(pair[0]), ns.NumPages(pair[1]); a != b {
								t.Errorf("disk %d: %d Loads wrote %d pages to a file one Load wrote %d pages to", f, len(batches), b, a)
							}
						}
					}
				})
			}
		}
	}
}

// checkDenseSets makes a fragment of def on ns, Loads each batch into it,
// Flushes it, and checks TestDenseSetsProperty's properties of what it wrote.
func checkDenseSets(t *testing.T, ns *NodeStore, def *catalog.TableDef, batches [][]types.Row) *ColumnarFragment {
	t.Helper()
	fr, err := OpenColumnarFragment(ns, def)
	if err != nil {
		t.Fatal(err)
	}
	pageSize, ncols, disks := ns.PageSize(), def.Schema.Len(), len(ns.Disks)
	want := map[string]int{}
	for _, b := range batches {
		for _, row := range b {
			want[rowKey(row)]++
		}
		if n, err := fr.Load(b); err != nil || n != len(b) {
			t.Fatalf("Load: %d of %d rows, %v", n, len(b), err)
		}
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}

	// At degree 1 the scan hands over disk 0's sets first, in file order;
	// d is the disk of set key, the set's index in the scan.
	sets := make([][][]types.Row, disks) // by disk, in file order
	key, d := -1, 0
	stats, err := fr.ScanPageSets(ScanOptions{}, nil, 1, func(_ int, set page.PageSet) (bool, error) {
		key++
		for d < disks-1 && len(sets[d]) == int(ns.NumPages(fr.Files[d]))/ncols {
			d++
		}
		n := set.NumRows()
		for ci := range set.Pages {
			if set.Pages[ci].NumValues() != n {
				t.Fatalf("set %v: column %d has %d values, column 0 has %d", key, ci, set.Pages[ci].NumValues(), n)
			}
			chunks, cells := set.Chunks(ci), 0
			if len(chunks) > page.MaxChainPages {
				t.Fatalf("set %v: column %d chains %d pages", key, ci, len(chunks))
			}
			for _, p := range append(chunks, set.Pages[ci]) {
				if len(p.Buf) != pageSize || p.FreeSpace() < 0 {
					t.Fatalf("set %v: column %d: a page of %d bytes with %d free", key, ci, len(p.Buf), p.FreeSpace())
				}
			}
			for _, p := range chunks {
				cells += p.NumValues()
			}
			if cells != n {
				t.Fatalf("set %v: column %d holds %d cells in a set of %d rows", key, ci, cells, n)
			}
		}
		got, err := set.Rows()
		if err != nil {
			return false, err
		}
		for _, row := range got {
			want[rowKey(row)]--
		}
		sets[d] = append(sets[d], got)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SetsRead != int64(key+1) {
		t.Fatalf("Flush left an open set: %d sets scanned, %d of them sealed", key+1, stats.SetsRead)
	}
	for k, n := range want {
		if n != 0 {
			t.Fatalf("row %s: loaded %+d times more than scanned", k, n)
		}
	}

	replay := page.NewOpenSet(ncols, pageSize)
	for d := range sets {
		if len(sets[d]) < 2 {
			t.Fatalf("disk %d holds %d sets: the density check needs a closed one", d, len(sets[d]))
		}
		for s := 0; s+1 < len(sets[d]); s++ {
			replay.Reset()
			for _, row := range sets[d][s] {
				if ok, err := replay.Append(row); !ok || err != nil {
					t.Fatalf("disk %d set %d: a row it holds is not admitted on replay (%v)", d, s, err)
				}
			}
			if ok, err := replay.Append(sets[d][s+1][0]); ok || err != nil {
				t.Fatalf("disk %d set %d closed at %d rows, yet admits the next row (%v)", d, s, len(sets[d][s]), err)
			}
		}
	}
	return fr
}

// TestColumnarAppendOversizeValue: a value whose encoding no page can hold
// is refused with an error naming the column and the sizes — in a column that
// seals typed and in one that chains, at a small and a large page size — and
// the refusal changes nothing: the open set, the files and the round-robin
// pointer are as before, and the next row lands where it would have.
func TestColumnarAppendOversizeValue(t *testing.T) {
	def := &catalog.TableDef{
		Name: "notes",
		Schema: types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt},
			types.Column{Name: "tag", Kind: types.KindString},  // few distinct: a dictionary page
			types.Column{Name: "body", Kind: types.KindString}, // all distinct: a chain
		),
		Part:     catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"id"}},
		Columnar: true,
	}
	row := func(i int64) types.Row {
		return types.Row{types.NewInt(i), types.NewString(fmt.Sprintf("tag-%d", i%4)), types.NewString(fmt.Sprintf("body of note %d, like no other", i))}
	}
	for _, pageSize := range []int{512, 16384} {
		ns := newNode(t, pageSize)
		fr, err := OpenColumnarFragment(ns, def)
		if err != nil {
			t.Fatal(err)
		}
		scan := func() []string {
			var got []string
			if _, err := colScan(fr, ScanOptions{}, func(r types.Row) (bool, error) { got = append(got, rowKey(r)); return true, nil }); err != nil {
				t.Fatal(err)
			}
			sort.Strings(got)
			return got
		}
		huge := types.NewString(strings.Repeat("x", pageSize))
		for _, n := range []int64{0, 31} { // into empty open sets, then into ones holding rows
			for i := int64(0); i < n; i++ {
				if err := fr.appendRow(row(i)); err != nil {
					t.Fatal(err)
				}
			}
			before := scan()
			for ci, col := range []string{"", "tag", "body"} {
				if ci == 0 {
					continue
				}
				bad := row(n)
				bad[ci] = huge
				err := fr.appendRow(bad)
				if err == nil {
					t.Fatalf("page %d: a %d-byte value in %s was appended", pageSize, pageSize, col)
				}
				for _, part := range []string{"notes." + col, fmt.Sprint(types.EncodedSize(huge)), fmt.Sprint(pageSize)} {
					if !strings.Contains(err.Error(), part) {
						t.Errorf("page %d: error %q does not mention %q", pageSize, err, part)
					}
				}
				if after := scan(); fmt.Sprint(after) != fmt.Sprint(before) {
					t.Fatalf("page %d: a refused value in %s changed the fragment: %d rows before, %d after", pageSize, col, len(before), len(after))
				}
				for _, f := range append(append([]page.FileID{}, fr.Files...), fr.Ovf...) {
					if ns.NumPages(f) != 0 {
						t.Fatalf("page %d: a refused value in %s flushed a set", pageSize, col)
					}
				}
			}
			if err := fr.appendRow(row(n)); err != nil {
				t.Fatal(err)
			}
			if got := len(scan()); got != int(n)+1 {
				t.Fatalf("page %d: %d rows after the next good append, want %d", pageSize, got, n+1)
			}
			// Round robin: rows 0..n went to disks 0,1,0,1,… with no slot lost
			// to a refusal.
			for d, want := range []int{int(n+2) / 2, int(n+1) / 2} {
				if got := fr.open[d].NumRows(); got != want {
					t.Fatalf("page %d: disk %d holds %d open rows, want %d", pageSize, d, got, want)
				}
			}
			if n == 0 {
				// Start the second round from empty open sets again.
				for d := range fr.open {
					fr.open[d].Reset()
				}
				fr.nextRR = 0
			}
		}
	}
}

// chainedFragment loads a two-column table whose body column chains, on a
// node of two disks and frames buffer frames, and flushes it: every set is
// on disk.
func chainedFragment(t *testing.T, pageSize, frames int, rows int64) (*NodeStore, *ColumnarFragment) {
	t.Helper()
	ns, err := NewNodeStore(NodeConfig{BaseDir: t.TempDir(), NumDisks: 2, PageSize: pageSize, BufFrames: frames, BufStripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	def := &catalog.TableDef{
		Name: "notes",
		Schema: types.NewSchema(
			types.Column{Name: "id", Kind: types.KindFloat},
			types.Column{Name: "body", Kind: types.KindString},
		),
		Part:     catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"id"}},
		Columnar: true,
	}
	fr, err := OpenColumnarFragment(ns, def)
	if err != nil {
		t.Fatal(err)
	}
	var load []types.Row
	for i := int64(0); i < rows; i++ {
		load = append(load, types.Row{types.NewFloat(float64(i)), types.NewString(fmt.Sprintf("body of note %d, like no other", i))})
	}
	if _, err := fr.Load(load); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	return ns, fr
}

// TestColumnarReadSetCoversChain: a scan that reads a chained column fetches
// its head and its chain pages, pins them together, and counts them in
// PagesRead and ChainPages; a scan that does not read it fetches neither.
func TestColumnarReadSetCoversChain(t *testing.T) {
	ns, fr := chainedFragment(t, 1024, 256, 1000)
	var sets, chain int64
	for d := range fr.Files {
		sets += int64(ns.NumPages(fr.Files[d])) / 2
		chain += int64(ns.NumPages(fr.Ovf[d]))
	}
	if sets < 4 || chain < 2*sets {
		t.Fatalf("%d sets, %d chain pages: the body column should chain in every set", sets, chain)
	}
	fetches := func() int64 { s := ns.Buf.Stats(); return s.Hits + s.Misses }
	for _, tc := range []struct {
		read  []int
		pages int64
		chain int64
	}{{[]int{0}, sets, 0}, {[]int{1}, sets + chain, chain}, {nil, 2*sets + chain, chain}} {
		before := fetches()
		stats, err := fr.ScanPageSets(ScanOptions{}, tc.read, 2, func(_ int, set page.PageSet) (bool, error) {
			if pinned := ns.Buf.PinnedFrames(); pinned == 0 {
				t.Error("no frame pinned while the set is being read")
			}
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := fetches() - before; got != tc.pages || stats.PagesRead != tc.pages || stats.ChainPages != tc.chain || stats.SetsRead != sets || stats.RowsRead != 1000 {
			t.Errorf("read %v: %d fetches, stats %+v; want %d pages, %d of them chain pages, %d sets", tc.read, got, stats, tc.pages, tc.chain, sets)
		}
		if pinned := ns.Buf.PinnedFrames(); pinned != 0 {
			t.Errorf("read %v: %d frames still pinned after the scan", tc.read, pinned)
		}
	}
}

// TestColumnarScanRecyclesFrames: a fragment five times the size of the pool
// is scanned through recycled buffers — every miss refills a buffer some
// earlier page of the scan was decoded from — and every row still comes back
// exact, at one worker and at two, pass after pass. Under -tags invariants
// the recycled buffers are poisoned in between, so a decoder that kept a
// slice of a frame past its Unpin would return garbage here.
func TestColumnarScanRecyclesFrames(t *testing.T) {
	const rows = 3000
	ns, fr := chainedFragment(t, 1024, 32, rows)
	var pages uint32
	for d := range fr.Files {
		pages += ns.NumPages(fr.Files[d]) + ns.NumPages(fr.Ovf[d])
	}
	if pages < 5*32 {
		t.Fatalf("%d pages: the test needs several pools' worth", pages)
	}
	for pass := 0; pass < 3; pass++ {
		for _, workers := range []int{1, 2} {
			var mu sync.Mutex
			seen := make([]bool, rows)
			before := ns.Buf.Stats()
			_, err := colScanRows(fr, ScanOptions{}, workers, defaultMorselSets, func(_ int, r types.Row) (bool, error) {
				i := int64(r[0].Float())
				mu.Lock()
				defer mu.Unlock()
				if i < 0 || i >= rows || seen[i] || r[1].Str() != fmt.Sprintf("body of note %d, like no other", i) {
					t.Errorf("pass %d, %d workers: row %v", pass, workers, r)
					return false, ErrStopScan
				}
				seen[i] = true
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("pass %d, %d workers: row %d never came back", pass, workers, i)
				}
			}
			if after := ns.Buf.Stats(); after.Evictions-before.Evictions < int64(pages)/2 {
				t.Fatalf("pass %d, %d workers: %d evictions over %d pages: the scan did not recycle", pass, workers, after.Evictions-before.Evictions, pages)
			}
		}
	}
}

// TestChainHeadCorruption: a chain head whose (start, count) names pages the
// overflow file does not have, more pages than a chain may have, or pages
// that do not hold the set's rows fails the scan with an error — no panic, no
// fetch past the file.
func TestChainHeadCorruption(t *testing.T) {
	ns, fr := chainedFragment(t, 1024, 256, 300)
	head := page.Key{File: fr.Files[0], Page: 1} // first set of disk 0, the body column
	const chainAt = 17 + 5                       // the chain head's payload: start, count (uint32 each)
	poke := func(off int, v byte) byte {
		t.Helper()
		f, err := ns.Buf.Fetch(head)
		if err != nil {
			t.Fatal(err)
		}
		old := f.Buf[off]
		f.Buf[off] = v
		ns.Buf.Unpin(f, true)
		return old
	}
	scan := func() error {
		_, err := colScan(fr, ScanOptions{}, func(types.Row) (bool, error) { return true, nil })
		return err
	}
	if err := scan(); err != nil {
		t.Fatal(err)
	}
	reads := ns.Store.PagesRead.Load()
	for _, tc := range []struct {
		name string
		off  int
		v    byte
	}{
		{"start beyond the file", chainAt + 3, 0x7f},
		{"count beyond the file", chainAt + 5, 0x01},
		{"count over the chain bound", chainAt + 4, page.MaxChainPages + 1},
		{"count zero", chainAt + 4, 0},
		{"start on another set's chain", chainAt, 1},
	} {
		old := poke(tc.off, tc.v)
		if err := scan(); err == nil {
			t.Errorf("%s: the scan succeeded", tc.name)
		} else if !strings.Contains(err.Error(), "chain") {
			t.Errorf("%s: error does not speak of the chain: %v", tc.name, err)
		}
		poke(tc.off, old)
	}
	if err := scan(); err != nil {
		t.Fatalf("restored head: %v", err)
	}
	if got := ns.Store.PagesRead.Load(); got != reads {
		t.Errorf("corrupt heads cost %d page reads from disk", got-reads)
	}
}

// fixtureRow is row i of the fragment under testdata/parent_pr22.
func fixtureRow(i int64) types.Row {
	r := append(liRow(i), types.NewString(fmt.Sprintf("note %d of its kind", i*7919%1013)))
	switch {
	case i%17 == 4:
		r[3] = types.Null
	case i%29 == 11:
		r[4] = types.NewInt(i)
	}
	return r
}

// TestParentWrittenFragmentStillScans: testdata/parent_pr22/lineitem.d0.col is
// the page file the commit before dense sets wrote for 120 fixtureRows at page
// size 512 on one disk: 441-style sets closed by the appended stream, no
// chain, no overflow file. It scans unchanged, and rows appended now go into
// dense sets after it.
func TestParentWrittenFragmentStillScans(t *testing.T) {
	base := t.TempDir()
	ns, err := NewNodeStore(NodeConfig{BaseDir: base, NumDisks: 1, PageSize: 512, BufFrames: 64, BufStripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_pr22", "lineitem.d0.col"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ns.Disks[0], "lineitem.d0.col"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	def := lineitemDef(true)
	def.Schema.Cols = append(def.Schema.Cols, types.Column{Name: "l_note", Kind: types.KindString})
	fr, err := OpenColumnarFragment(ns, def)
	if err != nil {
		t.Fatal(err)
	}
	if got := ns.NumPages(fr.Files[0]); got != 30 {
		t.Fatalf("fixture has %d pages, the parent wrote 30", got)
	}
	for i := int64(120); i < 400; i++ {
		if err := fr.appendRow(fixtureRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := colScan(fr, ScanOptions{}, func(r types.Row) (bool, error) { got = append(got, rowKey(r)); return true, nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("scanned %d rows, want 400", len(got))
	}
	for i, k := range got { // one disk, one worker: file order is load order
		if want := rowKey(fixtureRow(int64(i))); k != want {
			t.Fatalf("row %d: scanned %s, want %s", i, k, want)
		}
	}
}
