//go:build invariants

package vec

// poisonRecycled: a slab handed back to the pools is overwritten with
// garbage — NaN floats, 0x5a… integers, codes beyond any dictionary, every
// NULL bit set — so a read of a released batch gives wrong answers instead
// of stale plausible ones.
const poisonRecycled = true
