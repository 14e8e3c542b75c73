// Package buffer implements HRDBMS's parallel buffer manager (Section III).
//
// The buffer pool of a node is partitioned into stripes, each with its own
// lock, page table, and clock hand; a page's stripe is determined by a hash
// of its key, and the striping is hidden behind the Manager wrapper exactly
// as the paper hides its stripe-manager threads behind a lightweight
// forwarding wrapper. Eviction is a clock variant in which table scans
// pre-declare the pages they will request in the near future and those
// pages are prioritized (skipped twice) by the clock hand.
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
	ReadPage(file page.FileID, pageNum uint32) ([]byte, error)
	WritePage(file page.FileID, pageNum uint32, buf []byte) error
	PageSize() int
}

// Frame is a pinned in-memory page. Callers mutate Buf only while holding a
// pin and must Unpin with dirty=true after mutating.
type Frame struct {
	Key page.Key
	Buf []byte

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

// The stripe latch is the outermost lock on the page path: eviction runs the
// WAL flush-before-evict hook and the store write-back while holding it.
//
//lint:lockorder-before buffer.stripe page.file
//lint:lockorder-before buffer.stripe wal.log
type stripe struct {
	mu     sync.Mutex //lint:lockorder buffer.stripe
	frames map[page.Key]*Frame
	clock  []*Frame
	hand   int
	cap    int
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
		m.stripes[i] = &stripe{frames: make(map[page.Key]*Frame), cap: per}
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
	s.mu.Unlock()
	m.misses.Add(1)
	buf, err := m.store.ReadPage(k.File, k.Page)
	if err != nil {
		return nil, err
	}
	return m.install(s, k, buf)
}

// NewPage pins a fresh zeroed frame for the key without reading the store;
// the frame starts dirty so it will be written back.
func (m *Manager) NewPage(k page.Key) (*Frame, error) {
	s := m.stripeFor(k)
	f, err := m.install(s, k, make([]byte, m.store.PageSize()))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	f.dirty = true
	s.mu.Unlock()
	return f, nil
}

// install adds a loaded buffer to the stripe, evicting if needed. Returns
// the (pinned) frame; if another goroutine installed the page concurrently,
// its frame wins and our buffer is dropped.
func (m *Manager) install(s *stripe, k page.Key, buf []byte) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[k]; ok {
		f.pins++
		return f, nil
	}
	if len(s.clock) >= s.cap {
		if err := m.evictLocked(s); err != nil {
			return nil, err
		}
	}
	f := &Frame{Key: k, Buf: buf, pins: 1, ref: 1}
	s.frames[k] = f
	s.clock = append(s.clock, f)
	return f, nil
}

// evictLocked runs the clock over the stripe until it frees one frame.
// Pre-declared pages get an extra pass of protection; pinned pages are
// skipped. Called with s.mu held.
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

// SetCapacity grows or shrinks the pool (the paper's dynamic resize).
// Shrinking takes effect lazily as stripes evict down to the new size.
func (m *Manager) SetCapacity(capacity int) {
	per := capacity / len(m.stripes)
	if per < 1 {
		per = 1
	}
	for _, s := range m.stripes {
		s.mu.Lock()
		s.cap = per
		for len(s.clock) > s.cap {
			if err := m.evictLocked(s); err != nil {
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
