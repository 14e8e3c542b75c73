package buffer

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/page"
)

// memStore is an in-memory Store for tests.
type memStore struct {
	mu       sync.Mutex
	pages    map[page.Key][]byte
	pageSize int
	reads    int
	writes   int
	failKey  *page.Key
}

func newMemStore(pageSize int) *memStore {
	return &memStore{pages: map[page.Key][]byte{}, pageSize: pageSize}
}

func (s *memStore) ReadPage(f page.FileID, n uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	k := page.Key{File: f, Page: n}
	if s.failKey != nil && *s.failKey == k {
		return fmt.Errorf("injected read failure")
	}
	if b, ok := s.pages[k]; ok {
		copy(buf, b)
		return nil
	}
	clear(buf)
	return nil
}

func (s *memStore) WritePage(f page.FileID, n uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	b := make([]byte, len(buf))
	copy(b, buf)
	s.pages[page.Key{File: f, Page: n}] = b
	return nil
}

func (s *memStore) PageSize() int { return s.pageSize }

// isResident reports whether the page is currently cached.
func isResident(m *Manager, k page.Key) bool {
	s := m.stripeFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.frames[k]
	return ok
}

func TestFetchHitMiss(t *testing.T) {
	st := newMemStore(1024)
	m := New(st, 8, 2)
	k := page.Key{File: 1, Page: 0}
	f, err := m.Fetch(k)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f, false)
	f2, err := m.Fetch(k)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f2, false)
	stats := m.Stats()
	if stats.Misses != 1 || stats.Hits != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", stats.Hits, stats.Misses)
	}
	if f != f2 {
		t.Error("second fetch should return the same frame")
	}
}

func TestDirtyWriteBackOnEvict(t *testing.T) {
	st := newMemStore(1024)
	m := New(st, 2, 1)
	k := page.Key{File: 1, Page: 7}
	f, _ := m.NewPage(k)
	copy(f.Buf[100:], []byte("hello"))
	m.Unpin(f, true)

	// Fill past capacity to force eviction of the dirty page.
	for i := uint32(100); i < 110; i++ {
		g, err := m.Fetch(page.Key{File: 2, Page: i})
		if err != nil {
			t.Fatal(err)
		}
		m.Unpin(g, false)
	}
	st.mu.Lock()
	b, ok := st.pages[k]
	st.mu.Unlock()
	if !ok || string(b[100:105]) != "hello" {
		t.Fatal("dirty page was not written back on eviction")
	}
	// Re-fetch should see the written data.
	f2, err := m.Fetch(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Buf[100:105]) != "hello" {
		t.Error("refetched page lost data")
	}
	m.Unpin(f2, false)
}

func TestPinnedNeverEvicted(t *testing.T) {
	st := newMemStore(512)
	m := New(st, 2, 1)
	k := page.Key{File: 1, Page: 1}
	f, _ := m.Fetch(k) // stays pinned
	for i := uint32(0); i < 20; i++ {
		g, err := m.Fetch(page.Key{File: 3, Page: i})
		if err != nil {
			t.Fatal(err)
		}
		m.Unpin(g, false)
	}
	if !isResident(m, k) {
		t.Fatal("pinned page was evicted")
	}
	m.Unpin(f, false)
}

func TestAllPinnedFails(t *testing.T) {
	st := newMemStore(512)
	m := New(st, 2, 1)
	var frames []*Frame
	for i := uint32(0); i < 2; i++ {
		f, err := m.Fetch(page.Key{File: 1, Page: i})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := m.Fetch(page.Key{File: 1, Page: 99}); err == nil {
		t.Fatal("fetch with all frames pinned should fail")
	}
	for _, f := range frames {
		m.Unpin(f, false)
	}
	if _, err := m.Fetch(page.Key{File: 1, Page: 99}); err != nil {
		t.Fatalf("fetch after unpin should succeed: %v", err)
	}
}

func TestPredeclarePrioritized(t *testing.T) {
	st := newMemStore(512)
	m := New(st, 4, 1)
	// Load 4 pages; pre-declare page 0.
	var keys []page.Key
	for i := uint32(0); i < 4; i++ {
		k := page.Key{File: 1, Page: i}
		f, _ := m.Fetch(k)
		m.Unpin(f, false)
		keys = append(keys, k)
	}
	m.Predeclare(keys[:1])
	// Insert two new pages; the pre-declared one should survive the first
	// eviction round.
	f, _ := m.Fetch(page.Key{File: 2, Page: 0})
	m.Unpin(f, false)
	if !isResident(m, keys[0]) {
		t.Error("pre-declared page evicted before non-declared peers")
	}
}

func TestFlushHookCalledBeforeEvict(t *testing.T) {
	st := newMemStore(512)
	var flushed []uint64
	m := New(st, 1, 1, WithFlushHook(func(lsn uint64) error {
		flushed = append(flushed, lsn)
		return nil
	}))
	k := page.Key{File: 1, Page: 0}
	f, _ := m.NewPage(k)
	page.SetLSN(f.Buf, 42)
	m.Unpin(f, true)
	g, err := m.Fetch(page.Key{File: 1, Page: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(g, false)
	if len(flushed) != 1 || flushed[0] != 42 {
		t.Errorf("flush hook calls = %v, want [42]", flushed)
	}
}

func TestFlushAll(t *testing.T) {
	st := newMemStore(512)
	m := New(st, 8, 2)
	for i := uint32(0); i < 4; i++ {
		f, _ := m.NewPage(page.Key{File: 1, Page: i})
		f.Buf[20] = byte(i + 1)
		m.Unpin(f, true)
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.pages) != 4 {
		t.Fatalf("flushed %d pages, want 4", len(st.pages))
	}
	for i := uint32(0); i < 4; i++ {
		if st.pages[page.Key{File: 1, Page: i}][20] != byte(i+1) {
			t.Errorf("page %d content wrong", i)
		}
	}
}

func TestSetCapacityShrink(t *testing.T) {
	st := newMemStore(512)
	m := New(st, 16, 1)
	for i := uint32(0); i < 16; i++ {
		f, _ := m.Fetch(page.Key{File: 1, Page: i})
		m.Unpin(f, false)
	}
	m.SetCapacity(4)
	resident := 0
	for i := uint32(0); i < 16; i++ {
		if isResident(m, page.Key{File: 1, Page: i}) {
			resident++
		}
	}
	if resident > 4 {
		t.Errorf("after shrink to 4, %d pages resident", resident)
	}
}

// ownedBuffers counts the page buffers the manager holds: free, framed, or
// being filled.
func ownedBuffers(m *Manager) (owned, free int) {
	for _, s := range m.stripes {
		s.mu.Lock()
		owned += s.bufs
		free += len(s.free)
		s.mu.Unlock()
	}
	return owned, free
}

// TestSetCapacityShrinkAndGrow: a shrink releases the buffers it frees — the
// arena really gets smaller — and a grow lets misses allocate up to the new
// size and no further.
func TestSetCapacityShrinkAndGrow(t *testing.T) {
	st := newMemStore(512)
	m := New(st, 16, 2)
	if owned, free := ownedBuffers(m); owned != 16 || free != 16 {
		t.Fatalf("a new pool of 16 owns %d buffers, %d free", owned, free)
	}
	touch := func(pages uint32) {
		for i := uint32(0); i < pages; i++ {
			f, err := m.Fetch(page.Key{File: 1, Page: i})
			if err != nil {
				t.Fatal(err)
			}
			m.Unpin(f, false)
		}
	}
	touch(64)
	if owned, free := ownedBuffers(m); owned != 16 || free != 0 {
		t.Fatalf("a full pool of 16 owns %d buffers, %d free", owned, free)
	}
	m.SetCapacity(4)
	if owned, free := ownedBuffers(m); owned != 4 || free != 0 {
		t.Fatalf("after a shrink to 4 the pool owns %d buffers, %d free", owned, free)
	}
	touch(64)
	if owned, _ := ownedBuffers(m); owned != 4 {
		t.Fatalf("misses grew a pool of 4 to %d buffers", owned)
	}
	m.SetCapacity(32)
	touch(64)
	if owned, free := ownedBuffers(m); owned != 32 || free != 0 {
		t.Fatalf("after a grow to 32 the pool owns %d buffers, %d free", owned, free)
	}
	// A pinned frame outlives a shrink; the next resize finds it evictable.
	f, err := m.Fetch(page.Key{File: 1, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCapacity(2)
	if f.Buf == nil || !isResident(m, f.Key) {
		t.Fatal("a shrink evicted a pinned frame")
	}
	m.Unpin(f, false)
	m.SetCapacity(2)
	if owned, _ := ownedBuffers(m); owned != 2 {
		t.Fatalf("after a shrink to 2 the pool owns %d buffers", owned)
	}
}

// TestEvictionClearsFrameBuf: an evicted frame no longer owns a buffer, so a
// holder that kept the *Frame past its Unpin fails loudly instead of reading
// whatever page the buffer holds next.
func TestEvictionClearsFrameBuf(t *testing.T) {
	st := newMemStore(512)
	m := New(st, 2, 1)
	stale, err := m.Fetch(page.Key{File: 1, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(stale, false)
	for i := uint32(1); i < 8; i++ {
		f, err := m.Fetch(page.Key{File: 1, Page: i})
		if err != nil {
			t.Fatal(err)
		}
		m.Unpin(f, false)
	}
	if isResident(m, stale.Key) || stale.Buf != nil {
		t.Fatalf("frame evicted=%v still holds a %d-byte buffer", !isResident(m, stale.Key), len(stale.Buf))
	}
}

// TestFetchMissAllocatesNoPage: in a full pool a miss refills the clock
// victim's buffer; all it allocates is the frame header.
func TestFetchMissAllocatesNoPage(t *testing.T) {
	const pageSize = 16 * 1024
	st := newMemStore(pageSize)
	for i := uint32(0); i < 64; i++ {
		st.pages[page.Key{File: 1, Page: i}] = make([]byte, pageSize)
	}
	m := New(st, 8, 2)
	next := uint32(0)
	miss := func() {
		f, err := m.Fetch(page.Key{File: 1, Page: next % 64})
		if err != nil {
			t.Fatal(err)
		}
		m.Unpin(f, false)
		next++
	}
	for i := 0; i < 64; i++ {
		miss() // fill the pool and the page table
	}
	before := m.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const runs = 512
	allocs := testing.AllocsPerRun(runs, miss)
	runtime.ReadMemStats(&ms1)
	if got := m.Stats().Misses - before.Misses; got != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d of %d fetches missed", got, runs+1)
	}
	if allocs > 2 {
		t.Errorf("a miss makes %.1f allocations, want the frame header only", allocs)
	}
	if perMiss := (ms1.TotalAlloc - ms0.TotalAlloc) / (runs + 1); perMiss > pageSize/16 {
		t.Errorf("a miss allocates %d bytes, a page is %d", perMiss, pageSize)
	}
}

func TestReadFailurePropagates(t *testing.T) {
	st := newMemStore(512)
	bad := page.Key{File: 9, Page: 9}
	st.failKey = &bad
	m := New(st, 4, 1)
	if _, err := m.Fetch(bad); err == nil {
		t.Fatal("store read failure must propagate")
	}
}

func TestConcurrentFetchers(t *testing.T) {
	st := newMemStore(1024)
	m := New(st, 64, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := page.Key{File: page.FileID(seed % 4), Page: uint32(i % 40)}
				f, err := m.Fetch(k)
				if err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					// A byte of its own per goroutine: a pin does not order
					// writers of one page (frames have no content latch,
					// ROADMAP item 3), and this test is about the manager's
					// bookkeeping, not about that.
					f.Buf[16+seed] = byte(i)
					m.Unpin(f, true)
				} else {
					m.Unpin(f, false)
				}
			}
		}(uint32(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFetchHit(b *testing.B) {
	st := newMemStore(8192)
	m := New(st, 256, 8)
	k := page.Key{File: 1, Page: 3}
	f, _ := m.Fetch(k)
	m.Unpin(f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := m.Fetch(k)
		if err != nil {
			b.Fatal(err)
		}
		m.Unpin(f, false)
	}
}

func BenchmarkFetchParallelStripes(b *testing.B) {
	st := newMemStore(8192)
	m := New(st, 1024, 16)
	for i := uint32(0); i < 512; i++ {
		f, _ := m.Fetch(page.Key{File: 1, Page: i})
		m.Unpin(f, false)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			f, err := m.Fetch(page.Key{File: 1, Page: i % 512})
			if err != nil {
				b.Fatal(err)
			}
			m.Unpin(f, false)
			i++
		}
	})
}
