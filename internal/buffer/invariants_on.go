//go:build invariants

package buffer

import "fmt"

// invariantsEnabled reports whether the build carries the invariants tag
// (used by tests to assert the hooks are actually armed).
const invariantsEnabled = true

// assertUnpinned panics if any frame still holds a pin. A leaked pin wedges
// the striped clock — the frame can never be evicted — so FlushAll at a
// checkpoint or clean shutdown is exactly where the imbalance must be zero.
func (m *Manager) assertUnpinned(context string) {
	for _, s := range m.stripes {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins > 0 {
				key, pins := f.Key, f.pins
				s.mu.Unlock()
				panic(fmt.Sprintf("buffer: invariant violated at %s: frame %+v still pinned (%d pins)", context, key, pins))
			}
		}
		s.mu.Unlock()
	}
}

// poison overwrites an evicted frame's buffer, so that a reader still holding
// the slice sees garbage — not a plausible stale page — until the next miss
// refills it.
func poison(buf []byte) {
	for i := range buf {
		buf[i] = 0xDB
	}
}
