package skipcache

import (
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/page"
	"repro/internal/types"
)

func pi(col string, op CmpOp, v int64) Pred { return Pred{Col: col, Op: op, Val: types.NewInt(v)} }

func TestPredMatches(t *testing.T) {
	for _, tc := range []struct {
		p    Pred
		v    types.Value
		want bool
	}{
		{pi("a", OpEq, 5), types.NewInt(5), true},
		{pi("a", OpEq, 5), types.NewInt(6), false},
		{pi("a", OpNe, 5), types.NewInt(6), true},
		{pi("a", OpLt, 5), types.NewInt(4), true},
		{pi("a", OpLt, 5), types.NewInt(5), false},
		{pi("a", OpLe, 5), types.NewInt(5), true},
		{pi("a", OpGt, 5), types.NewInt(6), true},
		{pi("a", OpGe, 5), types.NewInt(5), true},
		{pi("a", OpEq, 5), types.Null, false},
	} {
		if got := tc.p.Matches(tc.v); got != tc.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", tc.p, tc.v, got, tc.want)
		}
	}
}

func TestPredImplies(t *testing.T) {
	for _, tc := range []struct {
		p, q Pred
		want bool
	}{
		{pi("a", OpEq, 3), pi("a", OpLt, 10), true},
		{pi("a", OpEq, 3), pi("a", OpLe, 3), true},
		{pi("a", OpEq, 3), pi("a", OpGe, 3), true},
		{pi("a", OpEq, 3), pi("a", OpGt, 3), false},
		{pi("a", OpEq, 3), pi("a", OpNe, 4), true},
		{pi("a", OpEq, 3), pi("a", OpNe, 3), false},
		{pi("a", OpLt, 5), pi("a", OpLt, 10), true},
		{pi("a", OpLt, 5), pi("a", OpLt, 5), true},
		{pi("a", OpLt, 5), pi("a", OpLt, 3), false},
		{pi("a", OpLt, 5), pi("a", OpLe, 5), true},
		{pi("a", OpLe, 5), pi("a", OpLt, 5), false},
		{pi("a", OpLe, 5), pi("a", OpLt, 6), true},
		{pi("a", OpGt, 5), pi("a", OpGt, 3), true},
		{pi("a", OpGt, 5), pi("a", OpGe, 5), true},
		{pi("a", OpGe, 5), pi("a", OpGt, 5), false},
		{pi("a", OpGe, 6), pi("a", OpGt, 5), true},
		{pi("a", OpLt, 5), pi("a", OpNe, 7), true},
		{pi("a", OpLt, 5), pi("a", OpNe, 2), false},
		// Different columns never imply.
		{pi("a", OpEq, 3), pi("b", OpLt, 10), false},
		// Columns compare exactly: a predicate is keyed by the table
		// column's name, canonical (lower-case) before it gets here.
		{pi("A", OpEq, 3), pi("a", OpLe, 3), false},
	} {
		if got := tc.p.Implies(tc.q); got != tc.want {
			t.Errorf("%v ⇒ %v = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

// TestImpliesSoundness: whenever p ⇒ q is reported, every matching value of
// p must also match q. Property-checked over random int predicates.
func TestImpliesSoundness(t *testing.T) {
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	f := func(opA, opB uint8, va, vb int8, probe int8) bool {
		p := pi("x", ops[int(opA)%len(ops)], int64(va))
		q := pi("x", ops[int(opB)%len(ops)], int64(vb))
		if !p.Implies(q) {
			return true // nothing claimed
		}
		v := types.NewInt(int64(probe))
		if p.Matches(v) && !q.Matches(v) {
			t.Logf("counterexample: %v ⇒ %v but %v matches p not q", p, q, v)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestConjImplies(t *testing.T) {
	// a>10 AND a<20 ⇒ a>5
	c := Conj{pi("a", OpGt, 10), pi("a", OpLt, 20)}
	if !c.Implies(Conj{pi("a", OpGt, 5)}) {
		t.Error("conj should imply weaker atom")
	}
	// a>10 ⇒ a>10 AND b<3 must fail
	if (Conj{pi("a", OpGt, 10)}).Implies(Conj{pi("a", OpGt, 10), pi("b", OpLt, 3)}) {
		t.Error("missing conjunct must block implication")
	}
	if (Conj{}).Implies(Conj{}) {
		t.Error("empty conjunctions should not imply (nothing to skip on)")
	}
}

func TestCacheRecordSkip(t *testing.T) {
	c := NewCache(0)
	p1 := page.Key{File: 1, Page: 1}
	p2 := page.Key{File: 1, Page: 2}
	theta := Conj{pi("l_qty", OpLt, 24)}
	c.Record(p1, theta)

	if !c.CanSkip(p1, theta) {
		t.Error("identical predicate should skip")
	}
	if c.CanSkip(p2, theta) {
		t.Error("other page must not skip")
	}
	// Stronger predicate implies cached one → skip.
	if !c.CanSkip(p1, Conj{pi("l_qty", OpLt, 10)}) {
		t.Error("stronger predicate should skip")
	}
	// Weaker predicate must not skip.
	if c.CanSkip(p1, Conj{pi("l_qty", OpLt, 100)}) {
		t.Error("weaker predicate must not skip")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestCacheDuplicateRecord(t *testing.T) {
	c := NewCache(0)
	p := page.Key{File: 1, Page: 1}
	theta := Conj{pi("a", OpEq, 1)}
	c.Record(p, theta)
	c.Record(p, theta)
	if c.Entries() != 1 {
		t.Errorf("duplicate record stored twice: %d entries", c.Entries())
	}
	c.Record(p, Conj{})
	if c.Entries() != 1 {
		t.Error("empty predicate should not be recorded")
	}
}

func TestCacheMaxPerPage(t *testing.T) {
	c := NewCache(2)
	p := page.Key{File: 1, Page: 1}
	c.Record(p, Conj{pi("a", OpEq, 1)})
	c.Record(p, Conj{pi("a", OpEq, 2)})
	c.Record(p, Conj{pi("a", OpEq, 3)})
	if c.Entries() != 2 {
		t.Errorf("entries = %d, want 2", c.Entries())
	}
	if c.CanSkip(p, Conj{pi("a", OpEq, 1)}) {
		t.Error("evicted predicate should no longer skip")
	}
	if !c.CanSkip(p, Conj{pi("a", OpEq, 3)}) {
		t.Error("recent predicate should skip")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(0)
	p := page.Key{File: 3, Page: 7}
	c.Record(p, Conj{pi("a", OpEq, 1)})
	c.Record(page.Key{File: 4, Page: 1}, Conj{pi("a", OpEq, 1)})
	c.InvalidateFile(3)
	if c.CanSkip(p, Conj{pi("a", OpEq, 1)}) {
		t.Error("file invalidation missed page")
	}
	if !c.CanSkip(page.Key{File: 4, Page: 1}, Conj{pi("a", OpEq, 1)}) {
		t.Error("file invalidation dropped other file")
	}
}

func TestCachePersistLoad(t *testing.T) {
	c := NewCache(0)
	p1 := page.Key{File: 1, Page: 1}
	p2 := page.Key{File: 2, Page: 9}
	c.Record(p1, Conj{pi("l_shipdate", OpLt, 9000), pi("l_qty", OpGe, 30)})
	c.Record(p2, Conj{{Col: "n_name", Op: OpEq, Val: types.NewString("CANADA")}})

	path := filepath.Join(t.TempDir(), "pred.cache")
	if err := c.Persist(path); err != nil {
		t.Fatal(err)
	}
	c2, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Entries() != 2 {
		t.Fatalf("loaded entries = %d", c2.Entries())
	}
	if !c2.CanSkip(p1, Conj{pi("l_shipdate", OpLt, 9000), pi("l_qty", OpGe, 30)}) {
		t.Error("loaded cache lost predicate 1")
	}
	if !c2.CanSkip(p2, Conj{{Col: "n_name", Op: OpEq, Val: types.NewString("CANADA")}}) {
		t.Error("loaded cache lost predicate 2")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestCacheSizeBytes(t *testing.T) {
	c := NewCache(0)
	if c.SizeBytes() != 0 {
		t.Error("empty cache should have zero size")
	}
	c.Record(page.Key{File: 1, Page: 1}, Conj{pi("a", OpEq, 1)})
	if c.SizeBytes() <= 0 {
		t.Error("non-empty cache should have positive size")
	}
}

func TestMinMaxSkip(t *testing.T) {
	s := NewMinMax()
	p := page.Key{File: 1, Page: 1}
	for _, v := range []int64{10, 20, 30} {
		s.Record(p, "a", types.NewInt(v))
	}
	for _, tc := range []struct {
		pred Pred
		want bool
	}{
		{pi("a", OpLt, 10), true},
		{pi("a", OpLt, 11), false},
		{pi("a", OpLe, 9), true},
		{pi("a", OpGt, 30), true},
		{pi("a", OpGt, 29), false},
		{pi("a", OpGe, 31), true},
		{pi("a", OpEq, 5), true},
		{pi("a", OpEq, 15), false}, // inside range: cannot prove absence
		{pi("a", OpEq, 35), true},
		{pi("b", OpEq, 5), false}, // untracked column
	} {
		if got := s.CanSkip(p, Conj{tc.pred}); got != tc.want {
			t.Errorf("minmax CanSkip(%v) = %v, want %v", tc.pred, got, tc.want)
		}
	}
	// NULLs must not poison the range.
	s.Record(p, "a", types.Null)
	if !s.CanSkip(p, Conj{pi("a", OpLt, 10)}) {
		t.Error("null record changed the range")
	}
}

// TestMinMaxRecordBesideCanSkip: a scan consults a page's ranges while an
// insert widens them, as a SELECT beside an INSERT does (run it under
// -race). Once the inserts are done, the page is skipped by its final range.
func TestMinMaxRecordBesideCanSkip(t *testing.T) {
	s := NewMinMax()
	k := page.Key{File: 1, Page: 0}
	theta := Conj{{Col: "a", Op: OpGt, Val: types.NewInt(5000)}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 2000; i++ {
			s.Record(k, "a", types.NewInt(i))
			s.Record(k, "b", types.NewInt(-i))
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			s.CanSkip(k, theta)
		}
	}
	if !s.CanSkip(k, theta) || s.Hits() == 0 {
		t.Errorf("a page of a in [0, 1999] not skipped for a > 5000 (hits %d)", s.Hits())
	}
}

func TestMinMaxNeSingleValue(t *testing.T) {
	s := NewMinMax()
	p := page.Key{File: 1, Page: 2}
	s.Record(p, "a", types.NewInt(7))
	if !s.CanSkip(p, Conj{pi("a", OpNe, 7)}) {
		t.Error("page of all 7s can skip a<>7")
	}
	if s.CanSkip(p, Conj{pi("a", OpNe, 8)}) {
		t.Error("a<>8 matches everything on the page")
	}
}

// TestGeneralization: the paper claims predicate caching generalizes
// min-max. A page whose values straddle the constant cannot be skipped by
// min-max for an inner-range equality, but a previous scan proves absence.
func TestGeneralization(t *testing.T) {
	s := NewMinMax()
	c := NewCache(0)
	p := page.Key{File: 1, Page: 1}
	// Page holds {10, 30}; query a=20 matched nothing on a previous scan.
	s.Record(p, "a", types.NewInt(10))
	s.Record(p, "a", types.NewInt(30))
	theta := Conj{pi("a", OpEq, 20)}
	if s.CanSkip(p, theta) {
		t.Fatal("min-max cannot prove absence of an inner value")
	}
	c.Record(p, theta)
	if !c.CanSkip(p, theta) {
		t.Fatal("predicate cache should skip on repeat query")
	}
}
