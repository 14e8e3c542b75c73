// Package buffer implements HRDBMS's parallel buffer manager (Section III).
//
// The buffer pool of a node is partitioned into stripes, each with its own
// lock, page table, and clock hand; a page's stripe is determined by a hash
// of its key, and the striping is hidden behind the Manager wrapper exactly
// as the paper hides its stripe-manager threads behind a lightweight
// forwarding wrapper. Eviction is a clock variant in which table scans
// pre-declare the pages they will request in the near future and those
// pages are prioritized (skipped twice) by the clock hand.
//
// The pool is a fixed arena: New allocates every page buffer once, and a miss
// fills a free buffer or the clock victim's, so steady-state traffic
// allocates no page. A frame therefore owns its buffer only while it is
// resident: nothing may read Frame.Buf after Unpin (eviction clears it, and
// under -tags invariants poisons the bytes until the next read fills them).
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/page"
)

// Store abstracts the node's page files so the manager can fault pages in
// and write dirty pages back.
type Store interface {
	// ReadPage fills buf (PageSize bytes) with the page, writing every byte.
	ReadPage(file page.FileID, pageNum uint32, buf []byte) error
	WritePage(file page.FileID, pageNum uint32, buf []byte) error
	PageSize() int
}

// Frame is a pinned in-memory page. Callers read and mutate Buf only while
// holding a pin and must Unpin with dirty=true after mutating; Buf is nil
// once the frame has been evicted.
//
// Latch is the page's content latch, for pages that change while shared —
// row pages: their readers hold it shared while they read Buf and their
// writers exclusive while they write it. A pin keeps the frame, and so its
// latch, in place. It is released before Unpin and never held across
// anything that waits on another session: a writer holds it while it logs
// the change (the page LSN must name the record), nothing else.
//
//lint:lockorder-before buffer.frame txn.tx
//lint:lockorder-before buffer.frame wal.log
type Frame struct {
	Key   page.Key
	Buf   []byte
	Latch sync.RWMutex //lint:lockorder buffer.frame

	pins        int32
	dirty       bool
	ref         int32 // clock reference counter (0..3)
	predeclared bool
}

// Stats holds cumulative buffer pool counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Writes    int64
}

// The stripe latch is the outermost lock of the buffer pool (only a columnar
// fragment's latch is taken around it): eviction runs the WAL
// flush-before-evict hook and the store write-back while holding it.
//
//lint:lockorder-before buffer.stripe page.file
//lint:lockorder-before buffer.stripe wal.log
type stripe struct {
	mu     sync.Mutex //lint:lockorder buffer.stripe
	frames map[page.Key]*Frame
	clock  []*Frame
	hand   int
	cap    int
	free   [][]byte // page buffers no frame holds
	bufs   int      // buffers the stripe owns: free, framed, or being filled by a miss
}

// Manager is the node-level buffer manager.
type Manager struct {
	store      Store
	stripes    []*stripe
	flushUpTo  func(lsn uint64) error // WAL hook: called before evicting a dirty page
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	diskWrites atomic.Int64
}

// Option configures a Manager.
type Option func(*Manager)

// WithFlushHook installs the WAL flush-before-evict callback required for
// the write-ahead rule.
func WithFlushHook(fn func(lsn uint64) error) Option {
	return func(m *Manager) { m.flushUpTo = fn }
}

// New creates a buffer manager with the given total frame capacity spread
// over numStripes stripes.
func New(store Store, capacity, numStripes int, opts ...Option) *Manager {
	if numStripes < 1 {
		numStripes = 1
	}
	if capacity < numStripes {
		capacity = numStripes
	}
	m := &Manager{store: store, stripes: make([]*stripe, numStripes)}
	per := capacity / numStripes
	if per < 1 {
		per = 1
	}
	for i := range m.stripes {
		st := &stripe{frames: make(map[page.Key]*Frame), cap: per, bufs: per, free: make([][]byte, per)}
		for j := range st.free {
			st.free[j] = make([]byte, store.PageSize())
		}
		m.stripes[i] = st
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

func (m *Manager) stripeFor(k page.Key) *stripe {
	h := uint64(k.File)*1099511628211 ^ uint64(k.Page)*14695981039346656037
	return m.stripes[h%uint64(len(m.stripes))]
}

// Fetch pins the page, faulting it in from the store if absent.
func (m *Manager) Fetch(k page.Key) (*Frame, error) {
	s := m.stripeFor(k)
	s.mu.Lock()
	if f, ok := s.frames[k]; ok {
		f.pins++
		if f.ref < 3 {
			f.ref++
		}
		s.mu.Unlock()
		m.hits.Add(1)
		return f, nil
	}
	buf, err := m.takeLocked(s)
	s.mu.Unlock()
	m.misses.Add(1)
	if err != nil {
		return nil, err
	}
	if err := m.store.ReadPage(k.File, k.Page, buf); err != nil {
		s.mu.Lock()
		s.releaseLocked(buf)
		s.mu.Unlock()
		return nil, err
	}
	return m.install(s, k, buf, false), nil
}

// NewPage pins a fresh zeroed frame for the key without reading the store;
// the frame starts dirty so it will be written back.
func (m *Manager) NewPage(k page.Key) (*Frame, error) {
	s := m.stripeFor(k)
	s.mu.Lock()
	buf, err := m.takeLocked(s)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	clear(buf)
	return m.install(s, k, buf, true), nil
}

// takeLocked hands out a page buffer for a miss to fill: a free one, the
// clock victim's, or a new one while the stripe is below capacity (after
// SetCapacity grew it). Its contents are unspecified. When nothing can be
// evicted because other misses are still filling the stripe's buffers, the
// stripe overshoots by one buffer instead of failing; releaseLocked trims it
// back. Called with s.mu held.
func (m *Manager) takeLocked(s *stripe) ([]byte, error) {
	for len(s.free) == 0 && s.bufs >= s.cap {
		if err := m.evictLocked(s); err != nil {
			if s.bufs > len(s.clock) {
				break
			}
			return nil, err
		}
	}
	if n := len(s.free); n > 0 {
		buf := s.free[n-1]
		s.free = s.free[:n-1]
		return buf, nil
	}
	s.bufs++
	return make([]byte, m.store.PageSize()), nil
}

// releaseLocked takes back a buffer no frame holds: onto the free list, or
// dropped when the stripe is over capacity. Called with s.mu held.
func (s *stripe) releaseLocked(buf []byte) {
	if s.bufs > s.cap {
		s.bufs--
		return
	}
	s.free = append(s.free, buf)
}

// install adds a filled buffer to the stripe and returns the (pinned) frame,
// marked dirty if asked; if another goroutine installed the page
// concurrently, its frame wins and our buffer goes back to the free list.
func (m *Manager) install(s *stripe, k page.Key, buf []byte, dirty bool) *Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[k]
	if ok {
		f.pins++
		s.releaseLocked(buf)
	} else {
		f = &Frame{Key: k, Buf: buf, pins: 1, ref: 1}
		s.frames[k] = f
		s.clock = append(s.clock, f)
	}
	if dirty {
		f.dirty = true
	}
	return f
}

// evictLocked runs the clock over the stripe until it frees one frame, whose
// buffer goes to the free list. Pre-declared pages get an extra pass of
// protection; pinned pages are skipped. Called with s.mu held.
func (m *Manager) evictLocked(s *stripe) error {
	if len(s.clock) == 0 {
		return fmt.Errorf("buffer: empty stripe cannot evict")
	}
	for sweep := 0; sweep < 4*len(s.clock)+4; sweep++ {
		f := s.clock[s.hand%len(s.clock)]
		idx := s.hand % len(s.clock)
		s.hand++
		if f.pins > 0 {
			continue
		}
		if f.predeclared {
			// One free pass, then the page competes normally.
			f.predeclared = false
			continue
		}
		if f.ref > 0 {
			f.ref--
			continue
		}
		if f.dirty {
			if m.flushUpTo != nil {
				if err := m.flushUpTo(page.LSN(f.Buf)); err != nil {
					return fmt.Errorf("buffer: WAL flush before evict: %w", err)
				}
			}
			if err := m.store.WritePage(f.Key.File, f.Key.Page, f.Buf); err != nil {
				return fmt.Errorf("buffer: write back %v: %w", f.Key, err)
			}
			m.diskWrites.Add(1)
		}
		delete(s.frames, f.Key)
		poison(f.Buf)
		s.releaseLocked(f.Buf)
		f.Buf = nil // a holder of the evicted frame fails loudly
		s.clock = append(s.clock[:idx], s.clock[idx+1:]...)
		if s.hand > 0 {
			s.hand--
		}
		m.evictions.Add(1)
		return nil
	}
	return fmt.Errorf("buffer: all %d frames pinned, cannot evict", len(s.clock))
}

// Unpin releases a pin; dirty marks the frame as modified.
func (m *Manager) Unpin(f *Frame, dirty bool) {
	s := m.stripeFor(f.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned frame %v", f.Key))
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// Predeclare marks pages an upcoming table scan will request so the clock
// prioritizes keeping them (the paper's scan pre-declaration). Pages not
// resident are ignored; the scan will fault them in.
func (m *Manager) Predeclare(keys []page.Key) {
	for _, k := range keys {
		s := m.stripeFor(k)
		s.mu.Lock()
		if f, ok := s.frames[k]; ok {
			f.predeclared = true
			if f.ref < 3 {
				f.ref++
			}
		}
		s.mu.Unlock()
	}
}

// FlushAll writes every dirty frame back to the store (used at checkpoints
// and clean shutdown).
func (m *Manager) FlushAll() error {
	m.assertUnpinned("FlushAll")
	for _, s := range m.stripes {
		s.mu.Lock()
		for _, f := range s.clock {
			if !f.dirty {
				continue
			}
			if m.flushUpTo != nil {
				if err := m.flushUpTo(page.LSN(f.Buf)); err != nil {
					s.mu.Unlock()
					return err
				}
			}
			if err := m.store.WritePage(f.Key.File, f.Key.Page, f.Buf); err != nil {
				s.mu.Unlock()
				return err
			}
			m.diskWrites.Add(1)
			f.dirty = false
		}
		s.mu.Unlock()
	}
	return nil
}

// PinnedFrames counts frames with a nonzero pin count. A steady-state value
// above zero outside an operation means a Fetch/NewPage leaked its Unpin.
func (m *Manager) PinnedFrames() int {
	n := 0
	for _, s := range m.stripes {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// SetCapacity grows or shrinks the pool (the paper's dynamic resize). A
// shrink evicts down to the new size and releases the freed buffers; what is
// pinned stays until a later miss finds it evictable. A grow takes effect as
// misses allocate the added buffers.
func (m *Manager) SetCapacity(capacity int) {
	per := capacity / len(m.stripes)
	if per < 1 {
		per = 1
	}
	for _, s := range m.stripes {
		s.mu.Lock()
		s.cap = per
		for s.bufs > s.cap {
			if n := len(s.free); n > 0 {
				s.free[n-1] = nil
				s.free = s.free[:n-1]
				s.bufs--
			} else if err := m.evictLocked(s); err != nil {
				break // everything pinned; give up until pins drop
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns cumulative counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Writes:    m.diskWrites.Load(),
	}
}
