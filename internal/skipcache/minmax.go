package skipcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/page"
	"repro/internal/types"
)

// MinMax implements small materialized aggregates [Moerkotte 1998]: for
// each page and column it tracks the minimum and maximum value, and a scan
// can skip a page when the predicate cannot be satisfied by any value in
// [min, max]. The paper positions predicate-based data skipping as a
// generalization of this scheme; we keep both so the ablation benchmarks
// can compare them.
type MinMax struct {
	mu   sync.RWMutex                           // guards m and the maps in it
	m    map[page.Key]map[string][2]types.Value // col → {min, max}
	hits atomic.Int64
}

// NewMinMax creates an empty SMA store.
func NewMinMax() *MinMax {
	return &MinMax{m: map[page.Key]map[string][2]types.Value{}}
}

// Record updates the stored min/max of a column on a page from an observed
// value (typically called for every row during load or scan).
func (s *MinMax) Record(p page.Key, col string, v types.Value) {
	if v.IsNull() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cols := s.m[p]
	if cols == nil {
		cols = map[string][2]types.Value{}
		s.m[p] = cols
	}
	mm, ok := cols[col]
	if !ok {
		cols[col] = [2]types.Value{v, v}
		return
	}
	if types.Compare(v, mm[0]) < 0 {
		mm[0] = v
	}
	if types.Compare(v, mm[1]) > 0 {
		mm[1] = v
	}
	cols[col] = mm
}

// CanSkip reports whether the page cannot contain rows matching theta based
// on min-max ranges: some atomic predicate excludes the page's full range.
func (s *MinMax) CanSkip(p page.Key, theta Conj) bool {
	s.mu.RLock()
	defer s.mu.RUnlock() // an insert's Record may be widening this page's ranges
	cols := s.m[p]
	if cols == nil {
		return false
	}
	return s.CanSkipRange(theta, func(col string) (lo, hi types.Value) {
		mm := cols[col] // two NULLs for a column with no recorded value
		return mm[0], mm[1]
	})
}

// CanSkipRange is CanSkip over ranges rangeOf supplies, for a page whose
// ranges are not recorded because they still move — a columnar fragment's
// open set: rangeOf returns a column's least and greatest value, or two
// NULLs when it has no usable range. A skip counts in Hits.
func (s *MinMax) CanSkipRange(theta Conj, rangeOf func(col string) (lo, hi types.Value)) bool {
	for _, pred := range theta {
		lo, hi := rangeOf(pred.Col)
		if lo.IsNull() || hi.IsNull() {
			continue
		}
		if rangeExcludes(lo, hi, pred) {
			s.hits.Add(1)
			return true
		}
	}
	return false
}

// Hits returns the number of successful skip decisions.
func (s *MinMax) Hits() int64 { return s.hits.Load() }

// rangeExcludes reports whether no value in [lo, hi] can satisfy pred.
func rangeExcludes(lo, hi types.Value, pred Pred) bool {
	switch pred.Op {
	case OpEq:
		return types.Compare(pred.Val, lo) < 0 || types.Compare(pred.Val, hi) > 0
	case OpNe:
		// Only excludable when the page holds a single value equal to the
		// constant.
		return types.Compare(lo, hi) == 0 && types.Compare(lo, pred.Val) == 0
	case OpLt:
		return types.Compare(lo, pred.Val) >= 0
	case OpLe:
		return types.Compare(lo, pred.Val) > 0
	case OpGt:
		return types.Compare(hi, pred.Val) <= 0
	case OpGe:
		return types.Compare(hi, pred.Val) < 0
	}
	return false
}
