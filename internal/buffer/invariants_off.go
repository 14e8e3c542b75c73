//go:build !invariants

package buffer

const invariantsEnabled = false

// assertUnpinned is a no-op in normal builds; build with -tags invariants to
// arm the pin-balance check at FlushAll.
func (m *Manager) assertUnpinned(string) {}

// poison is a no-op in normal builds; see invariants_on.go.
func poison([]byte) {}
