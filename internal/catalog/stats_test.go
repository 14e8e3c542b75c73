package catalog

import (
	"fmt"
	"math"
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
