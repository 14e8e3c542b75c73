package exec

import "slices"

// chainTable files entries under 64-bit key hashes: the hashes beside the
// entries, in arrival order, chained into slots by heads/next. The join
// table and the aggregate's group table embed it and keep their entries
// (build rows, group keys and states) in arrays indexed alike.
//
// A hash's slot comes from the high bits of hash × φ, not from its low bits:
// after a Shuffle every row on a worker has the same hash % workers, so
// there the low bits are constant and would leave most slots unused; every
// bit of the hash moves the high bits of the product. A table of
// 1 << pbits partitions takes a hash's partition from the top pbits bits of
// the product and its slot from the bits below them, so partition p of
// every worker's table holds the same keys, and a table holding one
// partition still spreads over all its slots.
type chainTable struct {
	hashes []uint64 // by entry: the hash it is filed under
	heads  []int32  // by slot: the first entry of its chain, or -1
	next   []int32  // by entry: the entry after it in its chain, or -1
	pbits  uint     // 1 << pbits partitions
	shift  uint     // slot = hash × φ << pbits >> shift
}

// spread is hash × φ (2⁶⁴ / the golden ratio), whose high bits every bit of
// the hash moves.
func spread(hk uint64) uint64 { return hk * 0x9E3779B97F4A7C15 }

func (c *chainTable) slot(hk uint64) uint64 { return spread(hk) << c.pbits >> c.shift }

// part is the partition of a key hash.
func (c *chainTable) part(hk uint64) int {
	if c.pbits == 0 {
		return 0
	}
	return int(spread(hk) >> (64 - c.pbits))
}

func (c *chainTable) entries() int { return len(c.hashes) }

// file appends an entry under hk without chaining it: it is found only after
// the next rechain or seal.
func (c *chainTable) file(hk uint64) { c.hashes = push(c.hashes, hk) }

// seal chains every entry into a power of two ≥ 2 × entries slots, for a
// table filled by file and only read from then on.
func (c *chainTable) seal() {
	bits := uint(1)
	for 1<<bits < 2*len(c.hashes) {
		bits++
	}
	c.rechain(bits)
}

// insert files and chains a new entry under hk, returning its number, and
// doubles the slots once the entries outnumber half of them.
func (c *chainTable) insert(hk uint64) int32 {
	i := int32(len(c.hashes))
	c.hashes = push(c.hashes, hk)
	if 2*len(c.hashes) > len(c.heads) {
		c.rechain(65 - c.shift)
		return i
	}
	s := c.slot(hk)
	c.next = push(c.next, c.heads[s])
	c.heads[s] = i
	return i
}

// rechain chains every entry into 1 << bits slots, threading each chain from
// the last entry back so that it lists its entries in arrival order.
func (c *chainTable) rechain(bits uint) {
	c.shift = 64 - bits
	c.heads = slices.Grow(c.heads[:0], 1<<bits)[:1<<bits]
	for s := range c.heads {
		c.heads[s] = -1
	}
	c.next = slices.Grow(c.next[:0], len(c.hashes))[:len(c.hashes)]
	for i := len(c.hashes) - 1; i >= 0; i-- {
		s := c.slot(c.hashes[i])
		c.next[i], c.heads[s] = c.heads[s], int32(i)
	}
}

// reset drops every entry, keeping the arrays and the slot count.
func (c *chainTable) reset() {
	c.hashes = c.hashes[:0]
	c.rechain(64 - c.shift)
}

// first returns the first entry filed under hk, or -1.
func (c *chainTable) first(hk uint64) int32 { return c.from(c.heads[c.slot(hk)], hk) }

// after returns the next entry filed under the same hash as entry i, or -1.
func (c *chainTable) after(i int32) int32 { return c.from(c.next[i], c.hashes[i]) }

// from walks a chain from entry i to the first entry filed under hk: entries
// of other hashes that share the slot are skipped without being looked at.
func (c *chainTable) from(i int32, hk uint64) int32 {
	for i >= 0 && c.hashes[i] != hk {
		i = c.next[i]
	}
	return i
}
