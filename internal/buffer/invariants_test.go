//go:build invariants

package buffer

import (
	"strings"
	"testing"

	"repro/internal/page"
)

func TestFlushAllPanicsOnLeakedPin(t *testing.T) {
	if !invariantsEnabled {
		t.Fatal("test requires -tags invariants")
	}
	st := newMemStore(1024)
	m := New(st, 8, 2)
	if _, err := m.NewPage(page.Key{File: 1, Page: 3}); err != nil {
		t.Fatal(err)
	}
	// Deliberately no Unpin: FlushAll must trip the pin-balance assertion.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("FlushAll did not panic with a leaked pin")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "still pinned") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_ = m.FlushAll() //lint:ignore walerr the call panics before returning
}

func TestFlushAllCleanAfterUnpin(t *testing.T) {
	st := newMemStore(1024)
	m := New(st, 8, 2)
	f, err := m.NewPage(page.Key{File: 1, Page: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.Buf[0] = 0xAB
	m.Unpin(f, true)
	if n := m.PinnedFrames(); n != 0 {
		t.Fatalf("PinnedFrames = %d after Unpin, want 0", n)
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledBufferIsPoisoned: between its eviction and the miss that
// refills it, a page buffer holds the poison pattern, so code that kept the
// slice past Unpin reads garbage that no page decoder accepts rather than a
// stale but plausible page.
func TestRecycledBufferIsPoisoned(t *testing.T) {
	st := newMemStore(64)
	m := New(st, 1, 1)
	f, err := m.NewPage(page.Key{File: 1, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	kept := f.Buf // the bug under test: a slice that outlives its pin
	copy(kept, "a page of real content")
	m.Unpin(f, true)
	s := m.stripes[0]
	s.mu.Lock()
	if err := m.evictLocked(s); err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	if f.Buf != nil {
		t.Fatal("evicted frame still owns its buffer")
	}
	for i, b := range kept {
		if b != 0xDB {
			t.Fatalf("byte %d of the evicted buffer is %#x, want the poison 0xDB", i, b)
		}
	}
	// The next miss refills the same buffer completely.
	g, err := m.Fetch(page.Key{File: 1, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	if &g.Buf[0] != &kept[0] || string(g.Buf[:22]) != "a page of real content" {
		t.Fatalf("the miss did not refill the recycled buffer: %q", g.Buf[:22])
	}
	m.Unpin(g, false)
}
