package page

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func testRow(i int) types.Row {
	return types.Row{
		types.NewInt(int64(i)),
		types.NewString(fmt.Sprintf("customer-%04d", i)),
		types.NewFloat(float64(i) * 1.5),
	}
}

// insertRow encodes the row and appends it to the page.
func insertRow(p RowPage, r types.Row) (slot int, ok bool) {
	return p.InsertEncoded(types.AppendRow(nil, r))
}

func TestRowPageInsertGet(t *testing.T) {
	buf := make([]byte, 4096)
	p := InitRowPage(buf)
	if p.NumSlots() != 0 {
		t.Fatalf("fresh page has %d slots", p.NumSlots())
	}
	var slots []int
	for i := 0; i < 10; i++ {
		s, ok := insertRow(p, testRow(i))
		if !ok {
			t.Fatalf("insert %d failed with %d free", i, p.FreeSpace())
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		r, ok, err := p.Get(s, nil, nil)
		if err != nil || !ok {
			t.Fatalf("get slot %d: ok=%v err=%v", s, ok, err)
		}
		if r[0].Int() != int64(i) {
			t.Errorf("slot %d row = %v", s, r)
		}
	}
}

func TestRowPageFull(t *testing.T) {
	buf := make([]byte, 256)
	p := InitRowPage(buf)
	n := 0
	for {
		if _, ok := insertRow(p, testRow(n)); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("page fit zero rows")
	}
	// All inserted rows still readable after fill.
	live := 0
	if err := p.Scan(nil, nil, func(slot int, r types.Row) bool { live++; return true }); err != nil {
		t.Fatal(err)
	}
	if live != n {
		t.Errorf("scan found %d rows, inserted %d", live, n)
	}
}

func TestRowPageDelete(t *testing.T) {
	buf := make([]byte, 4096)
	p := InitRowPage(buf)
	for i := 0; i < 5; i++ {
		insertRow(p, testRow(i))
	}
	if !p.Delete(2) {
		t.Fatal("delete live slot failed")
	}
	if p.Delete(2) {
		t.Fatal("double delete should report false")
	}
	if p.Delete(99) {
		t.Fatal("delete out of range should report false")
	}
	if _, ok, _ := p.Get(2, nil, nil); ok {
		t.Fatal("tombstoned slot should not return a row")
	}
	if p.LiveRows() != 4 {
		t.Errorf("LiveRows = %d, want 4", p.LiveRows())
	}
	seen := map[int64]bool{}
	p.Scan(nil, nil, func(slot int, r types.Row) bool { seen[r[0].Int()] = true; return true })
	if seen[2] || len(seen) != 4 {
		t.Errorf("scan after delete saw %v", seen)
	}
}

func TestRowPageRoundTripAfterReload(t *testing.T) {
	buf := make([]byte, 4096)
	p := InitRowPage(buf)
	insertRow(p, testRow(1))
	insertRow(p, testRow(2))
	p2, err := AsRowPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumSlots() != 2 {
		t.Errorf("reloaded page slots = %d", p2.NumSlots())
	}
	if _, err := AsColumnPage(buf); err == nil {
		t.Error("row page should not open as column page")
	}
}

func TestRowPageLSN(t *testing.T) {
	buf := make([]byte, 1024)
	InitRowPage(buf)
	SetLSN(buf, 12345)
	if LSN(buf) != 12345 {
		t.Errorf("LSN = %d", LSN(buf))
	}
}

func TestColumnPageAppendValues(t *testing.T) {
	buf := make([]byte, 2048)
	p := InitColumnPage(buf)
	want := []types.Value{
		types.NewInt(5), types.NewString("hello"), types.Null, types.NewFloat(2.5),
	}
	for _, v := range want {
		if !p.Append(v) {
			t.Fatalf("append %v failed", v)
		}
	}
	got, err := p.Values()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d values", len(got))
	}
	for i := range want {
		if types.Compare(got[i], want[i]) != 0 {
			t.Errorf("value %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestColumnPageSeal(t *testing.T) {
	buf := make([]byte, 1<<16)
	p := InitColumnPage(buf)
	n := 0
	for p.Append(types.NewString("REGIONAL SHIPPING PRIORITY HIGH")) {
		n++
		if n >= 1000 {
			break
		}
	}
	if n < 100 {
		t.Fatalf("only %d strings fit", n)
	}
	plain := p.payloadLen()
	if !p.Seal() || p.payloadLen() >= plain {
		t.Fatalf("seal on redundant strings should shrink the page (%d → %d bytes)", plain, p.payloadLen())
	}
	if p.Append(types.NewInt(1)) {
		t.Error("sealed page must refuse appends")
	}
	vals, err := p.Values()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n {
		t.Fatalf("after seal: %d values, want %d", len(vals), n)
	}
	for _, v := range vals {
		if v.Str() != "REGIONAL SHIPPING PRIORITY HIGH" {
			t.Fatalf("bad value after seal: %v", v)
		}
	}
}

func TestPageSet(t *testing.T) {
	os := NewOpenSet(3, 1024)
	var want []types.Row
	for i := 0; ; i++ {
		r := testRow(i)
		ok, err := os.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		want = append(want, r)
	}
	if len(want) == 0 {
		t.Fatal("page set fit zero rows")
	}
	if os.NumRows() != len(want) {
		t.Fatalf("NumRows = %d, want %d", os.NumRows(), len(want))
	}
	ps := os.Snapshot([]int{0, 1, 2})
	// All pages hold the same count — the invariant simplifying row
	// reconstruction.
	for i, p := range ps.Pages {
		if p.NumValues() != len(want) {
			t.Errorf("page %d has %d values, want %d", i, p.NumValues(), len(want))
		}
	}
	rows, err := ps.Rows()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for c := range want[i] {
			if types.Compare(rows[i][c], want[i][c]) != 0 {
				t.Fatalf("row %d col %d: %v != %v", i, c, rows[i][c], want[i][c])
			}
		}
	}
}

func TestPageSetArityMismatch(t *testing.T) {
	os := NewOpenSet(1, 256)
	if ok, err := os.Append(types.Row{types.NewInt(1), types.NewInt(2)}); ok || err == nil {
		t.Error("arity mismatch must fail")
	}
}

// readPage reads one page of pf into a fresh buffer.
func readPage(pf *File, n uint32) ([]byte, error) {
	buf := make([]byte, pf.pageSize)
	return buf, pf.ReadPage(n, buf)
}

func TestPageFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pf, err := OpenFile(filepath.Join(dir, "t.dat"), 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()

	var pages []uint32
	for i := 0; i < 5; i++ {
		buf := make([]byte, 4096)
		p := InitRowPage(buf)
		for j := 0; j < 20; j++ {
			insertRow(p, testRow(i*100+j))
		}
		n := pf.NumPages()
		if err := pf.WritePage(n, buf); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, n)
	}
	for i, n := range pages {
		buf, err := readPage(pf, n)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := AsRowPage(buf)
		if err != nil {
			t.Fatal(err)
		}
		r, ok, err := rp.Get(0, nil, nil)
		if err != nil || !ok || r[0].Int() != int64(i*100) {
			t.Fatalf("page %d first row = %v ok=%v err=%v", n, r, ok, err)
		}
	}
}

func TestPageFileReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.dat")
	pf, err := OpenFile(path, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	p := InitRowPage(buf)
	insertRow(p, testRow(7))
	n := pf.NumPages()
	pf.WritePage(n, buf)
	pf.Sync()
	pf.Close()

	pf2, err := OpenFile(path, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	if pf2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d", pf2.NumPages())
	}
	got, err := readPage(pf2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := AsRowPage(got)
	r, ok, _ := rp.Get(0, nil, nil)
	if !ok || r[0].Int() != 7 {
		t.Fatalf("reopened row = %v", r)
	}
}

func TestPageFileUnwrittenPage(t *testing.T) {
	dir := t.TempDir()
	pf, err := OpenFile(filepath.Join(dir, "t.dat"), 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	a, b := uint32(0), uint32(1)
	// Write only the second page; the first stays a hole.
	buf := make([]byte, 1024)
	InitRowPage(buf)
	if err := pf.WritePage(b, buf); err != nil {
		t.Fatal(err)
	}
	got, err := readPage(pf, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, by := range got {
		if by != 0 {
			t.Fatal("hole page should read as zeros")
		}
	}
	if _, err := readPage(pf, 99); err == nil {
		t.Error("read past end should fail")
	}
}

func TestPageFileBadSizes(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "x"), 4, false); err == nil {
		t.Error("tiny page size should fail")
	}
	pf, err := OpenFile(filepath.Join(dir, "y"), 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if err := pf.WritePage(0, make([]byte, 100)); err == nil {
		t.Error("wrong buffer size should fail")
	}
}

func TestRowPageQuickProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		buf := make([]byte, 8192)
		p := InitRowPage(buf)
		var inserted []types.Row
		for i := 0; i < len(ints) && i < len(strs); i++ {
			r := types.Row{types.NewInt(ints[i]), types.NewString(strs[i])}
			if _, ok := insertRow(p, r); !ok {
				break
			}
			inserted = append(inserted, r)
		}
		for s, want := range inserted {
			got, ok, err := p.Get(s, nil, nil)
			if err != nil || !ok {
				return false
			}
			if types.Compare(got[0], want[0]) != 0 || types.Compare(got[1], want[1]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPageFileCompressedSparseness(t *testing.T) {
	// Highly compressible pages should make the file much smaller than
	// numPages*pageSize of logical data when compression is on.
	dir := t.TempDir()
	pf, err := OpenFile(filepath.Join(dir, "c.dat"), 65536, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, 65536)
	p := InitRowPage(buf)
	for {
		if _, ok := insertRow(p, types.Row{types.NewString("AAAAAAAAAAAAAAAAAAAA")}); !ok {
			break
		}
	}
	rng := rand.New(rand.NewSource(1))
	_ = rng
	for i := 0; i < 8; i++ {
		n := pf.NumPages()
		if err := pf.WritePage(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 8; i++ {
		got, err := readPage(pf, i)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := AsRowPage(got)
		if err != nil || rp.NumSlots() == 0 {
			t.Fatalf("page %d: slots=%d err=%v", i, rp.NumSlots(), err)
		}
	}
}
