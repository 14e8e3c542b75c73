package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/types"
)

func TestNDVSketchAccuracy(t *testing.T) {
	for _, n := range []int64{100, 10_000, 1_000_000} {
		s := NewNDVSketch()
		for i := int64(0); i < n; i++ {
			s.Add(types.Hash(types.NewInt(i)))
		}
		got := s.Estimate()
		relErr := math.Abs(float64(got-n)) / float64(n)
		// p=10 HLL has ~3.2% standard error; allow 3 sigma.
		if relErr > 0.10 {
			t.Errorf("n=%d: estimate %d, rel err %.1f%%", n, got, 100*relErr)
		}
	}
}

func TestNDVSketchDuplicatesAndMerge(t *testing.T) {
	a := NewNDVSketch()
	for rep := 0; rep < 5; rep++ {
		for i := 0; i < 500; i++ {
			a.Add(types.Hash(types.NewInt(int64(i))))
		}
	}
	// Duplicates must not inflate the estimate.
	if got := a.Estimate(); got < 400 || got > 600 {
		t.Errorf("500 distinct with dups estimated as %d", got)
	}
}

// TestStatsBuilderFloatNDV feeds 1,000 FLOATs that differ below the sixth
// decimal: each is its own value, exactly counted.
func TestStatsBuilderFloatNDV(t *testing.T) {
	b := NewStatsBuilder(types.Schema{Cols: []types.Column{{Name: "f", Kind: types.KindFloat}}})
	for i := 0; i < 1000; i++ {
		b.Add(types.Row{types.NewFloat(1.5 + float64(i)*1e-7)})
	}
	if f := b.Finish().Cols["f"]; !f.NDVExact || f.NDV != 1000 {
		t.Errorf("f: NDV=%d exact=%v, want 1000 exact", f.NDV, f.NDVExact)
	}
}

func statsSchema() types.Schema {
	return types.Schema{Cols: []types.Column{
		{Name: "k", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
	}}
}

func TestStatsBuilderExactSmall(t *testing.T) {
	b := NewStatsBuilder(statsSchema())
	for i := 0; i < 1000; i++ {
		b.Add(types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("v%d", i%10))})
	}
	b.Add(types.Row{types.Null, types.Null})
	ts := b.Finish()
	if ts.RowCount != 1001 {
		t.Fatalf("RowCount = %d", ts.RowCount)
	}
	k := ts.Cols["k"]
	if !k.NDVExact || k.NDV != 1000 {
		t.Errorf("k: NDV=%d exact=%v, want 1000 exact", k.NDV, k.NDVExact)
	}
	if k.NullCount != 1 || k.Min.I != 0 || k.Max.I != 999 {
		t.Errorf("k: nulls=%d min=%v max=%v", k.NullCount, k.Min, k.Max)
	}
	s := ts.Cols["s"]
	if !s.NDVExact || s.NDV != 10 {
		t.Errorf("s: NDV=%d exact=%v, want 10 exact", s.NDV, s.NDVExact)
	}
	if s.AvgWidth < 2 || s.AvgWidth > 3 {
		t.Errorf("s: AvgWidth=%g, want ~2", s.AvgWidth)
	}
}

func TestStatsBuilderSketchBeyondCap(t *testing.T) {
	sch := types.Schema{Cols: []types.Column{{Name: "k", Kind: types.KindInt}}}
	b := NewStatsBuilder(sch)
	n := int64(50_000)
	for i := int64(0); i < n; i++ {
		b.Add(types.Row{types.NewInt(i)})
	}
	cs := b.Finish().Cols["k"]
	if cs.NDVExact {
		t.Fatalf("NDVExact set above the exact cap")
	}
	relErr := math.Abs(float64(cs.NDV-n)) / float64(n)
	if relErr > 0.10 {
		t.Errorf("sketch NDV %d for %d distinct (rel err %.1f%%)", cs.NDV, n, 100*relErr)
	}
}

func TestHistogramFracLE(t *testing.T) {
	sch := types.Schema{Cols: []types.Column{{Name: "k", Kind: types.KindInt}}}
	b := NewStatsBuilder(sch)
	// Uniform 0..9999: FracLE(v) should be close to (v+1)/10000.
	for i := 0; i < 10_000; i++ {
		b.Add(types.Row{types.NewInt(int64(i))})
	}
	cs := b.Finish().Cols["k"]
	if len(cs.Hist) == 0 {
		t.Fatal("no histogram built")
	}
	for _, v := range []int64{0, 1000, 2500, 5000, 9000, 9999} {
		got, ok := cs.FracLE(types.NewInt(v))
		if !ok {
			t.Fatalf("FracLE(%d) unusable", v)
		}
		want := float64(v+1) / 10_000
		if math.Abs(got-want) > 0.05 {
			t.Errorf("FracLE(%d) = %.3f, want ~%.3f", v, got, want)
		}
	}
	if f, ok := cs.FracLT(types.NewInt(0)); !ok || f > 0.01 {
		t.Errorf("FracLT(min) = %.3f, want ~0", f)
	}
	if f, ok := cs.FracLE(types.NewInt(99_999)); !ok || f < 0.99 {
		t.Errorf("FracLE(beyond max) = %.3f, want 1", f)
	}
}

func TestHistogramSkewedDuplicates(t *testing.T) {
	sch := types.Schema{Cols: []types.Column{{Name: "k", Kind: types.KindInt}}}
	b := NewStatsBuilder(sch)
	// 90% of rows are the value 5, the rest uniform 0..99.
	for i := 0; i < 10_000; i++ {
		if i%10 != 0 {
			b.Add(types.Row{types.NewInt(5)})
		} else {
			b.Add(types.Row{types.NewInt(int64(i % 100))})
		}
	}
	cs := b.Finish().Cols["k"]
	le5, _ := cs.FracLE(types.NewInt(5))
	lt5, _ := cs.FracLT(types.NewInt(5))
	// The heavy value's mass must land between FracLT(5) and FracLE(5).
	if le5-lt5 < 0.5 {
		t.Errorf("FracLE(5)-FracLT(5) = %.3f, want most of the mass", le5-lt5)
	}
}

// refReservoir replays a column's reservoir the way a builder that sorts it
// whole at every Finish keeps it: same stream, same random slots.
type refReservoir struct {
	c      colBuilder
	sample []types.Value
}

func (r *refReservoir) add(v types.Value) {
	if v.IsNull() {
		return
	}
	r.c.seen++
	if len(r.sample) < histSampleCap {
		r.sample = append(r.sample, v)
	} else if j := r.c.next() % uint64(r.c.seen); j < histSampleCap {
		r.sample[j] = v
	}
}

// linearEquiDepth is equiDepth with the duplicate runs found by walking
// them, the reference for its binary searches.
func linearEquiDepth(sample []types.Value, total int64) []HistBucket {
	n := len(sample)
	if n < 2 {
		return nil
	}
	nb := min(histBuckets, n)
	var out []HistBucket
	scale := float64(total) / float64(n)
	prevEnd := 0
	for b := 1; b <= nb; b++ {
		end := n * b / nb
		if end <= prevEnd {
			continue
		}
		upper := sample[end-1]
		for end < n && types.Compare(sample[end], upper) == 0 {
			end++
		}
		firstEq := end - 1
		for firstEq > prevEnd && types.Compare(sample[firstEq-1], upper) == 0 {
			firstEq--
		}
		out = append(out, HistBucket{
			Upper:     upper,
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

// values is c's reservoir as types.Value, slot by slot.
func (c *colBuilder) values() []types.Value {
	out := make([]types.Value, len(c.sample))
	for i, s := range c.sample {
		out[i] = c.value(s)
	}
	return out
}

// sliceEquiDepth is equiDepth over a sorted slice of values.
func sliceEquiDepth(sample []types.Value, total int64) []HistBucket {
	return equiDepth(len(sample), total,
		func(i, j int) int { return types.Compare(sample[i], sample[j]) },
		func(i int) types.Value { return sample[i] })
}

func sameValue(x, y types.Value) bool { return x.K == y.K && types.Compare(x, y) == 0 }

func sameValues(a, b []types.Value) bool { return slices.EqualFunc(a, b, sameValue) }

func sameHist(a, b []HistBucket) bool {
	return slices.EqualFunc(a, b, func(x, y HistBucket) bool {
		return x.Rows == y.Rows && x.UpperRows == y.UpperRows && sameValue(x.Upper, y.Upper)
	})
}

// checkRefresh checks every column of b after a Finish that returned ts:
// the reservoir is the one a whole sort at every Finish keeps (refs), it
// is in order, and the histogram is equiDepth's, and the linear walk's,
// over that order.
func checkRefresh(t *testing.T, step string, b *StatsBuilder, ts *TableStats, refs []refReservoir) {
	t.Helper()
	for i, c := range b.cols {
		name := b.sch.Cols[i].Name
		got := c.values()
		full := slices.Clone(got)
		slices.SortFunc(full, types.Compare)
		if !sameValues(got, full) {
			t.Fatalf("%s: column %s: reservoir out of order after Finish", step, name)
		}
		slices.SortFunc(refs[i].sample, types.Compare)
		if !sameValues(got, refs[i].sample) {
			t.Fatalf("%s: column %s: reservoir differs from a whole sort at every Finish", step, name)
		}
		hist := ts.Cols[name].Hist
		if !sameHist(hist, sliceEquiDepth(full, c.seen)) || !sameHist(hist, linearEquiDepth(full, c.seen)) {
			t.Fatalf("%s: column %s: histogram differs from equiDepth over the full sort", step, name)
		}
	}
}

// refreshRow draws one row of refreshSchema: a low-NDV INT, a wide INT,
// strings, FLOATs with repeats and a DATE, each NULL one time in eight.
func refreshRow(rng *rand.Rand) types.Row {
	r := types.Row{
		types.NewInt(int64(rng.Intn(3))),
		types.NewInt(rng.Int63n(1 << 40)),
		types.NewString(fmt.Sprintf("s%03d", rng.Intn(300))),
		types.NewFloat(float64(rng.Intn(2000)) / 8),
		types.NewDate(int64(8000 + rng.Intn(2500))),
	}
	for i := range r {
		if rng.Intn(8) == 0 {
			r[i] = types.Null
		}
	}
	return r
}

var refreshSchema = types.Schema{Cols: []types.Column{
	{Name: "flag", Kind: types.KindInt},
	{Name: "key", Kind: types.KindInt},
	{Name: "name", Kind: types.KindString},
	{Name: "price", Kind: types.KindFloat},
	{Name: "day", Kind: types.KindDate},
}}

// TestStatsRefreshIsAWholeSort: seeded interleavings of Add and Finish —
// batches of 1 to 700 rows growing through the reservoir cap, and a
// builder that ANALYZE put in place of the load-time one and that later
// Loads extend — leave after every Finish the reservoir, and so the
// histogram, that sorting it whole at every Finish gives.
func TestStatsRefreshIsAWholeSort(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		newRefs := func(b *StatsBuilder) []refReservoir {
			refs := make([]refReservoir, len(b.cols))
			for i, c := range b.cols {
				refs[i].c.rng = c.rng
			}
			return refs
		}
		b := NewStatsBuilder(refreshSchema)
		refs := newRefs(b)
		var all []types.Row
		for batch := 0; batch < 60; batch++ {
			if batch == 30 {
				// ANALYZE: a fresh builder fed every row so far.
				b = NewStatsBuilder(refreshSchema)
				refs = newRefs(b)
				for _, r := range all {
					b.Add(r)
					for i := range refs {
						refs[i].add(r[i])
					}
				}
				checkRefresh(t, fmt.Sprintf("seed %d: ANALYZE", seed), b, b.Finish(), refs)
			}
			n := 1 + rng.Intn(700)
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(20)
			}
			for ; n > 0; n-- {
				r := refreshRow(rng)
				all = append(all, r)
				b.Add(r)
				for i := range refs {
					refs[i].add(r[i])
				}
			}
			checkRefresh(t, fmt.Sprintf("seed %d: batch %d", seed, batch), b, b.Finish(), refs)
		}
	}
}

// lineitemSchema has lineitem's sixteen columns and kinds (DECIMAL is
// FLOAT), and lineitemRow draws a row with about its value spread.
var lineitemSchema = func() types.Schema {
	var cols []types.Column
	for i, k := range []types.Kind{
		types.KindInt, types.KindInt, types.KindInt, types.KindInt,
		types.KindFloat, types.KindFloat, types.KindFloat, types.KindFloat,
		types.KindString, types.KindString,
		types.KindDate, types.KindDate, types.KindDate,
		types.KindString, types.KindString, types.KindString,
	} {
		cols = append(cols, types.Column{Name: fmt.Sprintf("l%d", i), Kind: k})
	}
	return types.Schema{Cols: cols}
}()

func lineitemRow(rng *rand.Rand, i int) types.Row {
	day := int64(8000 + rng.Intn(2500))
	return types.Row{
		types.NewInt(int64(i / 4)), types.NewInt(rng.Int63n(2000)), types.NewInt(rng.Int63n(100)), types.NewInt(int64(i%7 + 1)),
		types.NewFloat(float64(1 + rng.Intn(50))), types.NewFloat(float64(rng.Intn(10_000_000)) / 100),
		types.NewFloat(float64(rng.Intn(11)) / 100), types.NewFloat(float64(rng.Intn(9)) / 100),
		types.NewString([]string{"A", "N", "R"}[rng.Intn(3)]), types.NewString([]string{"F", "O"}[rng.Intn(2)]),
		types.NewDate(day), types.NewDate(day + int64(rng.Intn(60))), types.NewDate(day + int64(rng.Intn(30))),
		types.NewString([]string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}[rng.Intn(4)]),
		types.NewString([]string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}[rng.Intn(7)]),
		types.NewString(fmt.Sprintf("comment %d %d", rng.Intn(1000), i)),
	}
}

// BenchmarkStatsRefresh times the Finish a Load pays after one 160-row
// batch on a 60,000-row lineitem builder (a refresh cycle's append at
// SF0.01). The batch's Adds are outside the timing.
func BenchmarkStatsRefresh(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sb := NewStatsBuilder(lineitemSchema)
	i := 0
	for ; i < 60_000; i++ {
		sb.Add(lineitemRow(rng, i))
	}
	sb.Finish()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for end := i + 160; i < end; i++ {
			sb.Add(lineitemRow(rng, i))
		}
		b.StartTimer()
		sb.Finish()
	}
}
