// Streaming statistics collection: a HyperLogLog-style NDV sketch, a
// reservoir-sampled equi-depth histogram, and the StatsBuilder that feeds
// both one row at a time. ANALYZE and load-time stats go through the
// builder so no full distinct-value map (and no materialized table) is ever
// needed; the optimizer consumes the results through ColumnStats.FracLE /
// FracLT for range-predicate selectivity.
package catalog

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/types"
)

const (
	// sketchBits is the HLL precision: 2^sketchBits registers. p=10 gives
	// a ~3.2% standard error, plenty for join-cardinality estimation.
	sketchBits      = 10
	sketchRegisters = 1 << sketchBits

	// exactNDVCap bounds the exact distinct-hash set kept alongside the
	// sketch. Below the cap NDV is exact (and NDVExact is set), which the
	// group-by pushdown's uniqueness test depends on; above it the
	// builder drops the set and reports the sketch estimate.
	exactNDVCap = 8192

	// histSampleCap bounds the per-column reservoir used to build the
	// equi-depth histogram.
	histSampleCap = 4096
	// histBuckets is the number of equi-depth buckets built from the
	// reservoir (fewer if the sample is small).
	histBuckets = 64
	// arenaSlack is how many bytes of a reservoir's string arena may be
	// dead (their values replaced) before the arena is compacted, so long
	// as they are also half of it.
	arenaSlack = 16 << 10
)

// NDVSketch is a fixed-size HyperLogLog register array fed with
// types.Hash values. It is a plain value type: Clone for snapshots,
// Merge to combine per-fragment sketches.
type NDVSketch struct {
	Regs []uint8
}

// NewNDVSketch allocates an empty sketch.
func NewNDVSketch() *NDVSketch {
	return &NDVSketch{Regs: make([]uint8, sketchRegisters)}
}

// Add observes one value's types.Hash. Every bit of it is mixed, so it is
// used as is: the low sketchBits bits pick the register, and the leading
// zeros of the rest give the rank.
func (s *NDVSketch) Add(h uint64) {
	idx := h & (1<<sketchBits - 1)
	rank := uint8(bits.LeadingZeros64(h|1<<(sketchBits-1))) + 1 // stops short of idx's bits
	if rank > s.Regs[idx] {
		s.Regs[idx] = rank
	}
}

// Estimate returns the HyperLogLog cardinality estimate with the standard
// linear-counting correction for small ranges.
func (s *NDVSketch) Estimate() int64 {
	m := float64(len(s.Regs))
	if m == 0 {
		return 0
	}
	var sum float64
	zeros := 0
	for _, r := range s.Regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return int64(e + 0.5)
}

// HistBucket is one equi-depth histogram bucket: the estimated number of
// non-null rows with value in (previous bucket's Upper, Upper]. The first
// bucket's lower bound is the column minimum. UpperRows is the estimated
// number of rows exactly equal to Upper — bucket cuts extend through
// duplicate runs, so a heavy hitter becomes its own bucket boundary and its
// mass is carried here, which is what lets FracLT(v) exclude it instead of
// interpolating the whole bucket.
type HistBucket struct {
	Upper     types.Value
	Rows      int64
	UpperRows int64
}

// FracLE estimates the fraction of non-null values <= v. The bool is
// false when the column has no usable distribution info (no histogram and
// no numeric min/max).
func (cs *ColumnStats) FracLE(v types.Value) (float64, bool) {
	return cs.fracBelow(v, true)
}

// FracLT estimates the fraction of non-null values < v.
func (cs *ColumnStats) FracLT(v types.Value) (float64, bool) {
	return cs.fracBelow(v, false)
}

func (cs *ColumnStats) fracBelow(v types.Value, inclusive bool) (float64, bool) {
	if cs == nil || v.IsNull() {
		return 0, false
	}
	if len(cs.Hist) == 0 {
		// No histogram: linear interpolation between min and max for
		// numeric kinds, otherwise give up.
		lo, lok := numeric(cs.Min)
		hi, hok := numeric(cs.Max)
		x, xok := numeric(v)
		if !lok || !hok || !xok {
			return 0, false
		}
		if x < lo {
			return 0, true
		}
		if x >= hi {
			return 1, true
		}
		if hi == lo {
			return 0.5, true
		}
		return (x - lo) / (hi - lo), true
	}
	var total, below int64
	for _, b := range cs.Hist {
		total += b.Rows
	}
	if total == 0 {
		return 0, false
	}
	lower := cs.Min
	for _, b := range cs.Hist {
		c := types.Compare(v, b.Upper)
		if c > 0 || (c == 0 && inclusive) {
			below += b.Rows
			lower = b.Upper
			continue
		}
		if c == 0 {
			// Exclusive comparison against the bucket's upper bound: the
			// whole bucket except the rows equal to it.
			below += b.Rows - b.UpperRows
			break
		}
		// v falls strictly inside this bucket: interpolate numerically over
		// the sub-upper mass when possible, otherwise assume the midpoint.
		frac := 0.5
		lo, lok := numeric(lower)
		hi, hok := numeric(b.Upper)
		x, xok := numeric(v)
		if lok && hok && xok && hi > lo {
			frac = (x - lo) / (hi - lo)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
		}
		below += int64(frac * float64(b.Rows-b.UpperRows))
		break
	}
	f := float64(below) / float64(total)
	if f > 1 {
		f = 1
	}
	return f, true
}

// numeric maps a value onto the real line for interpolation.
func numeric(v types.Value) (float64, bool) {
	switch v.K {
	case types.KindInt, types.KindDate:
		return float64(v.I), true
	case types.KindFloat:
		return v.F, true
	case types.KindBool:
		if v.I != 0 {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// StatsBuilder accumulates table statistics one row at a time in bounded
// memory: per column a min/max, null count, NDV sketch (plus an exact
// distinct-hash set up to exactNDVCap), average width, and a reservoir
// sample that Finish turns into an equi-depth histogram. A builder lives as
// long as its table (load-time statistics refresh incrementally), so its
// reservoirs hold no pointers: the garbage collector marks each of them as
// one object and never traces into it.
type StatsBuilder struct {
	sch  types.Schema
	rows int64
	cols []*colBuilder
}

type colBuilder struct {
	nulls    int64
	min, max types.Value
	sketch   *NDVSketch
	exact    map[uint64]struct{} // nil once exactNDVCap is exceeded
	widthSum int64
	seen     int64 // non-null values observed (reservoir stream length)
	// sample is the reservoir. Its first sorted values are in order, as
	// the last Finish left them, except the slots dirty marks: Add has
	// overwritten those since. Values appended below the cap follow.
	sample []sampled
	sorted int
	dirty  [histSampleCap / 64]uint64
	rng    uint64
	strs   []byte // the bytes of the reservoir's STRING values
	dead   int    // bytes of strs no slot refers to any more
}

// sampled is one reservoir value without a pointer: its kind and payload —
// an INT, DATE or BOOLEAN's integer, a FLOAT's bits, or the offset in the
// column's strs of a STRING's n bytes.
type sampled struct {
	k types.Kind
	n uint32
	x uint64
}

// keep stores v in the reservoir's form, copying a string's bytes into strs.
func (c *colBuilder) keep(v types.Value) sampled {
	switch v.K {
	case types.KindString:
		s := sampled{k: v.K, n: uint32(len(v.S)), x: uint64(len(c.strs))}
		c.strs = append(c.strs, v.S...)
		return s
	case types.KindFloat:
		return sampled{k: v.K, x: math.Float64bits(v.F)}
	default:
		return sampled{k: v.K, x: uint64(v.I)}
	}
}

// str is a STRING value's bytes in strs.
func (c *colBuilder) str(s sampled) []byte { return c.strs[s.x : s.x+uint64(s.n)] }

// scalar is s as a types.Value, but for a STRING's text, which compare reads
// from strs and value copies out.
func scalar(s sampled) types.Value {
	switch s.k {
	case types.KindFloat:
		return types.Value{K: s.k, F: math.Float64frombits(s.x)}
	case types.KindString:
		return types.Value{K: s.k}
	default:
		return types.Value{K: s.k, I: int64(s.x)}
	}
}

// value is s as a types.Value.
func (c *colBuilder) value(s sampled) types.Value {
	v := scalar(s)
	if s.k == types.KindString {
		v.S = string(c.str(s))
	}
	return v
}

// compare is types.Compare over reservoir values: two strings compare by
// their bytes, and any other pair compares as values, where a string's text
// plays no part.
func (c *colBuilder) compare(a, b sampled) int {
	if a.k == types.KindString && b.k == types.KindString {
		return bytes.Compare(c.str(a), c.str(b))
	}
	return types.Compare(scalar(a), scalar(b))
}

// compact rewrites strs with only the bytes the reservoir refers to, in slot
// order, once arenaSlack and half of it are dead.
func (c *colBuilder) compact() {
	if c.dead < arenaSlack || 2*c.dead < len(c.strs) {
		return
	}
	strs := make([]byte, 0, len(c.strs)-c.dead)
	for i, s := range c.sample {
		if s.k == types.KindString {
			c.sample[i].x = uint64(len(strs))
			strs = append(strs, c.str(s)...)
		}
	}
	c.strs, c.dead = strs, 0
}

// NewStatsBuilder starts a builder for the given schema.
func NewStatsBuilder(sch types.Schema) *StatsBuilder {
	b := &StatsBuilder{sch: sch, cols: make([]*colBuilder, len(sch.Cols))}
	for i := range b.cols {
		b.cols[i] = &colBuilder{
			sketch: NewNDVSketch(),
			exact:  map[uint64]struct{}{},
			// Deterministic per-column seed: stats (and therefore plans)
			// must be reproducible across runs.
			rng: 0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9,
		}
	}
	return b
}

// next is a xorshift64* step for reservoir sampling.
func (c *colBuilder) next() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x * 0x2545f4914f6cdd1d
}

// Add observes one row.
func (b *StatsBuilder) Add(r types.Row) {
	b.rows++
	for i, c := range b.cols {
		if i >= len(r) {
			break
		}
		v := r[i]
		if v.IsNull() {
			c.nulls++
			continue
		}
		h := types.Hash(v)
		c.sketch.Add(h)
		if c.exact != nil {
			c.exact[h] = struct{}{}
			if len(c.exact) > exactNDVCap {
				c.exact = nil
			}
		}
		if c.min.IsNull() || types.Compare(v, c.min) < 0 {
			c.min = v
		}
		if c.max.IsNull() || types.Compare(v, c.max) > 0 {
			c.max = v
		}
		if v.K == types.KindString {
			c.widthSum += int64(len(v.S))
		} else {
			c.widthSum += 8
		}
		// Reservoir sampling (algorithm R) for the histogram.
		c.seen++
		if len(c.sample) < histSampleCap {
			c.sample = append(c.sample, c.keep(v))
		} else if j := c.next() % uint64(c.seen); j < histSampleCap {
			if old := c.sample[j]; old.k == types.KindString {
				c.dead += int(old.n)
			}
			c.sample[j] = c.keep(v)
			if int(j) < c.sorted {
				c.dirty[j/64] |= 1 << (j % 64)
			}
			c.compact()
		}
	}
}

// Finish produces the table statistics from everything observed so far.
// The builder stays usable: more rows may be added and Finish called again
// (incremental load-time statistics), since sorting the reservoir for the
// histogram only permutes it and replacement stays uniform. A Finish after
// the first sorts only the reservoir slots Add changed since the last one.
func (b *StatsBuilder) Finish() *TableStats {
	s := &TableStats{RowCount: b.rows, Cols: map[string]*ColumnStats{}}
	for i, col := range b.sch.Cols {
		c := b.cols[i]
		cs := &ColumnStats{
			Min:       c.min,
			Max:       c.max,
			NullCount: c.nulls,
		}
		if c.exact != nil {
			cs.NDV = int64(len(c.exact))
			cs.NDVExact = true
		} else {
			cs.NDV = c.sketch.Estimate()
		}
		if c.seen > 0 {
			cs.AvgWidth = float64(c.widthSum) / float64(c.seen)
		}
		c.sortSample()
		cs.Hist = equiDepth(len(c.sample), c.seen,
			func(i, j int) int { return c.compare(c.sample[i], c.sample[j]) },
			func(i int) types.Value { return c.value(c.sample[i]) })
		s.Cols[col.Name] = cs
	}
	return s
}

// sortSample puts the reservoir in order again. The sorted values Add left
// alone (the kept ones) stay in order among themselves; the fresh values —
// the overwritten slots' and those appended since — are sorted, and each
// finds by binary search the kept values it goes before. That fixes every
// value's final slot: a kept value moves by the number of fresh values
// before it less the number of overwritten slots below it. Kept values move
// once, as blocks of equal displacement: those moving down in ascending
// order, then those moving up in descending order, so that no block lands
// on one not yet moved. The fresh values then fill the slots left between.
// On a builder's first call nothing is sorted yet, so every value is fresh
// and the one sort is a whole sort.
func (c *colBuilder) sortSample() {
	fresh := slices.Clone(c.sample[c.sorted:])
	var holes []int // the overwritten slots, ascending
	for w, word := range c.dirty {
		for ; word != 0; word &= word - 1 {
			d := w*64 + bits.TrailingZeros64(word)
			holes = append(holes, d)
			fresh = append(fresh, c.sample[d])
		}
	}
	clear(c.dirty[:])
	slices.SortFunc(fresh, c.compare)
	kept := c.sorted - len(holes)
	// slot is where the kept value of rank r sits now.
	slot := func(r int) int {
		for _, h := range holes {
			if h > r {
				break
			}
			r++
		}
		return r
	}
	// rank[f] is the number of kept values fresh[f] goes after; it sorts
	// before those equal to it.
	rank := make([]int, len(fresh))
	for f, r := range rank {
		if f > 0 {
			r = rank[f-1]
		}
		rank[f] = r + sort.Search(kept-r, func(k int) bool { return c.compare(c.sample[slot(r+k)], fresh[f]) >= 0 })
	}
	// The kept values in [lo, hi) move by `by`. A run ends at an overwritten
	// slot (the values past it move one lower) or at the kept value a fresh
	// one goes before (that value and those past it move one higher).
	type run struct{ lo, hi, by int }
	var runs []run
	lo, by := 0, 0
	for hi, f := 0, 0; ; {
		end, isHole := c.sorted, hi < len(holes)
		if isHole {
			end = holes[hi]
		}
		isFresh := f < len(rank) && rank[f] < kept && slot(rank[f]) < end
		if isFresh {
			end = slot(rank[f])
		}
		if by != 0 && end > lo {
			runs = append(runs, run{lo, end, by})
		}
		if isFresh {
			lo, by, f = end, by+1, f+1
		} else if isHole {
			lo, by, hi = end+1, by-1, hi+1
		} else {
			break
		}
	}
	for _, r := range runs {
		if r.by < 0 {
			copy(c.sample[r.lo+r.by:], c.sample[r.lo:r.hi])
		}
	}
	for i := len(runs) - 1; i >= 0; i-- {
		if r := runs[i]; r.by > 0 {
			copy(c.sample[r.lo+r.by:], c.sample[r.lo:r.hi])
		}
	}
	for f, v := range fresh {
		c.sample[rank[f]+f] = v
	}
	c.sorted = len(c.sample)
}

// leading returns how many of i = 0, 1, …, n-1 satisfy in, which holds for
// a leading run of them: an exponential search, then a binary one, so a run
// of length k costs about 2·log2(k) calls — a run of duplicates is usually
// short.
func leading(n int, in func(i int) bool) int {
	lo, hi := 0, 1
	for hi <= n && in(hi-1) {
		lo, hi = hi, 2*hi
	}
	return lo + sort.Search(min(hi-1, n)-lo, func(k int) bool { return !in(lo + k) })
}

// equiDepth cuts a sorted reservoir of n values into histBuckets buckets
// whose Rows counts are scaled from the sample up to the full non-null
// count. cmp compares the values at two ranks; at returns the value at one.
func equiDepth(n int, total int64, cmp func(i, j int) int, at func(i int) types.Value) []HistBucket {
	if n < 2 {
		return nil
	}
	nb := histBuckets
	if n < nb {
		nb = n
	}
	out := make([]HistBucket, 0, nb)
	scale := float64(total) / float64(n)
	prevEnd := 0
	for b := 1; b <= nb; b++ {
		end := n * b / nb
		if end <= prevEnd {
			continue
		}
		// Extend the bucket through duplicates of its upper bound so
		// bucket boundaries are distinct values.
		upper := end - 1
		from := end
		end += leading(n-from, func(i int) bool { return cmp(from+i, upper) == 0 })
		// Count the duplicate run of the upper bound inside the bucket
		// (sorted, so it is the bucket's tail).
		firstEq := end - leading(end-prevEnd, func(i int) bool { return cmp(end-1-i, upper) == 0 })
		out = append(out, HistBucket{
			Upper:     at(upper),
			Rows:      int64(float64(end-prevEnd)*scale + 0.5),
			UpperRows: int64(float64(end-firstEq)*scale + 0.5),
		})
		prevEnd = end
		if end >= n {
			break
		}
	}
	return out
}
