package index

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/types"
)

// memStore backs the buffer manager for index tests.
type memStore struct {
	mu       sync.Mutex
	pages    map[page.Key][]byte
	pageSize int
}

func newMemStore(size int) *memStore {
	return &memStore{pages: map[page.Key][]byte{}, pageSize: size}
}

func (s *memStore) ReadPage(f page.FileID, n uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.pages[page.Key{File: f, Page: n}]; ok {
		copy(buf, b)
		return nil
	}
	clear(buf)
	return nil
}

func (s *memStore) WritePage(f page.FileID, n uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := make([]byte, len(buf))
	copy(b, buf)
	s.pages[page.Key{File: f, Page: n}] = b
	return nil
}

func (s *memStore) PageSize() int { return s.pageSize }

func newSpace(t *testing.T, pageSize, frames int) (*BufferSpace, *buffer.Manager, *memStore) {
	t.Helper()
	st := newMemStore(pageSize)
	m := buffer.New(st, frames, 2)
	return NewBufferSpace(m, 1, pageSize, 0), m, st
}

func intKey(i int64) types.Row { return types.Row{types.NewInt(i)} }

func ridFor(i int64) page.RID { return page.RID{Node: 1, Page: uint32(i), Slot: uint16(i % 100)} }

func TestBTreeInsertSearch(t *testing.T) {
	space, _, _ := newSpace(t, 1024, 64)
	bt, err := CreateBTree(space)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := bt.Insert(intKey(int64(i)), ridFor(int64(i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := int64(0); i < n; i++ {
		rids, err := bt.Search(intKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != ridFor(i) {
			t.Fatalf("search %d = %v", i, rids)
		}
	}
	if rids, _ := bt.Search(intKey(99999)); len(rids) != 0 {
		t.Error("missing key should return nothing")
	}
	root, err := bt.readNode(bt.root)
	if err != nil {
		t.Fatal(err)
	}
	if root.isLeaf {
		t.Errorf("tree of %d entries on 1KB pages should have split", n)
	}
	validate(t, bt)
}

// validate fails the test unless a full range scan yields keys in order.
func validate(t *testing.T, bt *BTree) {
	t.Helper()
	var prev types.Row
	err := bt.Range(nil, nil, func(k types.Row, rid page.RID) bool {
		if prev != nil && compareKeys(prev, k) > 0 {
			t.Errorf("btree keys out of order: %v before %v", prev, k)
			return false
		}
		prev = k
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBTreeRange(t *testing.T) {
	space, _, _ := newSpace(t, 1024, 64)
	bt, _ := CreateBTree(space)
	for i := int64(0); i < 200; i++ {
		bt.Insert(intKey(i*2), ridFor(i)) // even keys 0..398
	}
	var got []int64
	err := bt.Range(intKey(50), intKey(60), func(k types.Row, r page.RID) bool {
		got = append(got, k[0].Int())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{50, 52, 54, 56, 58, 60}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
	// Open-ended ranges.
	count := 0
	bt.Range(nil, nil, func(k types.Row, r page.RID) bool { count++; return true })
	if count != 200 {
		t.Errorf("full scan = %d entries", count)
	}
	count = 0
	bt.Range(intKey(390), nil, func(k types.Row, r page.RID) bool { count++; return true })
	if count != 5 {
		t.Errorf("tail scan = %d entries, want 5", count)
	}
	// Early stop.
	count = 0
	bt.Range(nil, nil, func(k types.Row, r page.RID) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early stop = %d", count)
	}
}

func TestBTreeDuplicates(t *testing.T) {
	space, _, _ := newSpace(t, 1024, 64)
	bt, _ := CreateBTree(space)
	// Many duplicates of a few keys, interleaved, forcing splits through
	// runs of equal keys.
	for i := int64(0); i < 300; i++ {
		bt.Insert(intKey(i%3), page.RID{Page: uint32(i)})
	}
	for k := int64(0); k < 3; k++ {
		rids, err := bt.Search(intKey(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 100 {
			t.Fatalf("key %d: %d rids, want 100", k, len(rids))
		}
	}
}

func TestBTreeDelete(t *testing.T) {
	space, _, _ := newSpace(t, 1024, 64)
	bt, _ := CreateBTree(space)
	for i := int64(0); i < 100; i++ {
		bt.Insert(intKey(i), ridFor(i))
	}
	ok, err := bt.Delete(intKey(42), ridFor(42))
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if rids, _ := bt.Search(intKey(42)); len(rids) != 0 {
		t.Error("deleted key still found")
	}
	ok, _ = bt.Delete(intKey(42), ridFor(42))
	if ok {
		t.Error("double delete should report false")
	}
	ok, _ = bt.Delete(intKey(41), ridFor(99))
	if ok {
		t.Error("delete with wrong rid should report false")
	}
	count := 0
	bt.Range(nil, nil, func(k types.Row, r page.RID) bool { count++; return true })
	if count != 99 {
		t.Errorf("entries after delete = %d", count)
	}
}

func TestBTreeStringAndCompositeKeys(t *testing.T) {
	space, _, _ := newSpace(t, 2048, 64)
	bt, _ := CreateBTree(space)
	names := []string{"almond", "blush", "chartreuse", "cornflower", "khaki", "salmon"}
	for i, n1 := range names {
		for j, n2 := range names {
			key := types.Row{types.NewString(n1), types.NewString(n2)}
			bt.Insert(key, page.RID{Page: uint32(i*10 + j)})
		}
	}
	rids, err := bt.Search(types.Row{types.NewString("khaki"), types.NewString("blush")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0].Page != 41 {
		t.Fatalf("composite search = %v", rids)
	}
	// Prefix range over first component.
	count := 0
	lo := types.Row{types.NewString("khaki"), types.NewString("")}
	hi := types.Row{types.NewString("khaki"), types.NewString("zzzz")}
	bt.Range(lo, hi, func(k types.Row, r page.RID) bool { count++; return true })
	if count != len(names) {
		t.Errorf("prefix range = %d, want %d", count, len(names))
	}
}

func TestBTreeReopen(t *testing.T) {
	st := newMemStore(1024)
	m := buffer.New(st, 64, 2)
	space := NewBufferSpace(m, 1, 1024, 0)
	bt, err := CreateBTree(space)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 150; i++ {
		bt.Insert(intKey(i), ridFor(i))
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Reopen through a fresh buffer manager over the same store, the
	// allocator resuming after the pages the tree already owns.
	m2 := buffer.New(st, 64, 2)
	bt3 := &BTree{space: NewBufferSpace(m2, 1, 1024, space.NextPage()), root: bt.root}
	for i := int64(0); i < 150; i++ {
		rids, err := bt3.Search(intKey(i))
		if err != nil || len(rids) != 1 {
			t.Fatalf("reopened search %d: %v %v", i, rids, err)
		}
	}
	// Inserts after reopen must not collide with existing pages.
	for i := int64(150); i < 300; i++ {
		if err := bt3.Insert(intKey(i), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	validate(t, bt3)
}

func TestBTreeLargeRandomValidated(t *testing.T) {
	space, _, _ := newSpace(t, 512, 512)
	bt, _ := CreateBTree(space)
	rng := rand.New(rand.NewSource(99))
	inserted := map[int64]int{}
	for i := 0; i < 2000; i++ {
		k := int64(rng.Intn(500))
		bt.Insert(intKey(k), page.RID{Page: uint32(i)})
		inserted[k]++
	}
	validate(t, bt)
	for k, want := range inserted {
		rids, err := bt.Search(intKey(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != want {
			t.Fatalf("key %d: %d rids, want %d", k, len(rids), want)
		}
	}
}

// TestBTreeMatchesModel drives random operations against the B+-tree and a
// map-based model; every search must agree.
func TestBTreeMatchesModel(t *testing.T) {
	space, _, _ := newSpace(t, 1024, 512)
	bt, err := CreateBTree(space)
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]map[page.RID]bool{}
	rng := rand.New(rand.NewSource(2026))
	for step := 0; step < 3000; step++ {
		k := int64(rng.Intn(200))
		rid := page.RID{Page: uint32(rng.Intn(50)), Slot: uint16(rng.Intn(10))}
		switch rng.Intn(3) {
		case 0, 1: // insert (biased)
			if model[k] == nil {
				model[k] = map[page.RID]bool{}
			}
			if !model[k][rid] { // model is a set; the tree allows dups, keep them aligned
				model[k][rid] = true
				if err := bt.Insert(intKey(k), rid); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // delete one entry if present
			if len(model[k]) > 0 {
				var victim page.RID
				for r := range model[k] {
					victim = r
					break
				}
				delete(model[k], victim)
				ok, err := bt.Delete(intKey(k), victim)
				if err != nil || !ok {
					t.Fatalf("delete of known entry failed: %v %v", ok, err)
				}
			}
		}
		if step%500 == 0 {
			validate(t, bt)
		}
	}
	for k, rids := range model {
		got, err := bt.Search(intKey(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rids) {
			t.Fatalf("key %d: tree has %d, model %d", k, len(got), len(rids))
		}
		for _, r := range got {
			if !rids[r] {
				t.Fatalf("key %d: unexpected rid %v", k, r)
			}
		}
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	st := newMemStore(8192)
	m := buffer.New(st, 4096, 8)
	space := NewBufferSpace(m, 1, 8192, 0)
	bt, err := CreateBTree(space)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.Insert(intKey(int64(i)), ridFor(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeSearch(b *testing.B) {
	st := newMemStore(8192)
	m := buffer.New(st, 4096, 8)
	space := NewBufferSpace(m, 1, 8192, 0)
	bt, _ := CreateBTree(space)
	for i := 0; i < 50000; i++ {
		bt.Insert(intKey(int64(i)), ridFor(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Search(intKey(int64(i % 50000))); err != nil {
			b.Fatal(err)
		}
	}
}
