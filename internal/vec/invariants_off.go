//go:build !invariants

package vec

// poisonRecycled is off in normal builds; see invariants_on.go.
const poisonRecycled = false
