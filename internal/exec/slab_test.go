package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/types"
)

// pullCounter counts the slabs pulled out of the operator it wraps.
type pullCounter struct {
	Operator
	pulls int
}

func (p *pullCounter) NextBatch() ([]types.Row, bool, error) {
	p.pulls++
	return p.Operator.NextBatch()
}

// seqRows returns single-column rows lo, lo+1, ..., hi-1.
func seqRows(lo, hi int64) []types.Row {
	var rows []types.Row
	for i := lo; i < hi; i++ {
		rows = append(rows, types.Row{types.NewInt(i)})
	}
	return rows
}

// assertInts checks a single-column result against the expected sequence.
func assertInts(t *testing.T, got []types.Row, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %v", len(got), got, want)
	}
	for i, w := range want {
		if got[i][0].Int() != w {
			t.Fatalf("row %d = %d, want %d (got %v)", i, got[i][0].Int(), w, got)
		}
	}
}

// TestLimitSlabBoundaries puts N and Offset mid-slab and exactly on slab
// edges of a 4-row-slab input, and checks the limit stops pulling once it
// is satisfied.
func TestLimitSlabBoundaries(t *testing.T) {
	rows := seqRows(0, 20) // slabs [0..3] [4..7] [8..11] [12..15] [16..19]
	for _, tc := range []struct {
		n, offset int64
		first     int64 // first emitted value
		count     int   // emitted rows
		pulls     int   // input slabs needed
	}{
		{n: 3, offset: 0, first: 0, count: 3, pulls: 1},   // N mid-slab
		{n: 4, offset: 0, first: 0, count: 4, pulls: 1},   // N on a slab edge
		{n: 5, offset: 0, first: 0, count: 5, pulls: 2},   // N one past an edge
		{n: 2, offset: 5, first: 5, count: 2, pulls: 2},   // offset mid-slab
		{n: 4, offset: 4, first: 4, count: 4, pulls: 2},   // offset and N on edges
		{n: 6, offset: 3, first: 3, count: 6, pulls: 3},   // window spans three slabs
		{n: 9, offset: 15, first: 15, count: 5, pulls: 6}, // input runs out first
		{n: 0, offset: 0, count: 0, pulls: 0},             // nothing wanted, nothing pulled
	} {
		t.Run(fmt.Sprintf("n%d_off%d", tc.n, tc.offset), func(t *testing.T) {
			in := &pullCounter{Operator: slabSource(intSchema("a"), rows, 4)}
			got, err := Collect(NewLimit(in, tc.n, tc.offset))
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int64, tc.count)
			for i := range want {
				want[i] = tc.first + int64(i)
			}
			assertInts(t, got, want...)
			if in.pulls != tc.pulls {
				t.Errorf("pulled %d input slabs, want %d", in.pulls, tc.pulls)
			}
		})
	}
}

// TestUnionAcrossExhaustedInput unions an empty first input, a multi-slab
// input and a short one: rows come through in input order.
func TestUnionAcrossExhaustedInput(t *testing.T) {
	sch := intSchema("a")
	u := NewUnion(NewSource(sch, nil), slabSource(sch, seqRows(0, 5), 2), slabSource(sch, seqRows(5, 6), 2))
	got, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	assertInts(t, got, 0, 1, 2, 3, 4, 5)
}

// TestDistinctAcrossSlabs feeds duplicates that straddle slab boundaries
// (and a slab made only of duplicates, which must not surface as an empty
// slab).
func TestDistinctAcrossSlabs(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2}, []int64{2}, []int64{1}, []int64{1}, []int64{2}, []int64{3}, []int64{1})
	d := NewDistinct(slabSource(intSchema("a"), rows, 2)) // slabs [1 2] [2 1] [1 2] [3 1]
	if err := d.Open(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var got []types.Row
	for {
		b, ok, err := d.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(b) == 0 {
			t.Fatal("empty slab returned with ok=true")
		}
		got = append(got, b...)
	}
	assertInts(t, got, 1, 2, 3)
}

// TestMergeOperatorsUnequalSlabCounts merges sorted inputs that arrive in
// 1, 3 and 0 slabs.
func TestMergeOperatorsUnequalSlabCounts(t *testing.T) {
	sch := intSchema("x")
	a := slabSource(sch, intRows([]int64{5}), 2)
	b := slabSource(sch, intRows([]int64{1}, []int64{2}, []int64{6}, []int64{7}, []int64{9}), 2)
	c := NewSource(sch, nil)
	got, err := Collect(NewMergeOperators([]Operator{a, b, c}, []SortKey{{Col: 0}}))
	if err != nil {
		t.Fatal(err)
	}
	assertInts(t, got, 1, 2, 5, 6, 7, 9)
}

// TestSortTopKSlabSizes runs the sorts at 1-, 7- and default-row slabs on
// input and output, in memory and spilling: the sequence never changes.
func TestSortTopKSlabSizes(t *testing.T) {
	var rows []types.Row
	for i := int64(0); i < 500; i++ {
		rows = append(rows, types.Row{types.NewInt((i * 7919) % 500)}) // a permutation of 0..499
	}
	sch := intSchema("a")
	asc := make([]int64, 500)
	for i := range asc {
		asc[i] = int64(i)
	}
	for _, slab := range []int{1, 7, 0} {
		for _, memRows := range []int{0, 64} {
			ctx := NewCtx(t.TempDir(), memRows)
			ctx.BatchRows = slab
			got, err := Collect(NewSort(ctx, slabSource(sch, rows, slab), []SortKey{{Col: 0}}))
			if err != nil {
				t.Fatal(err)
			}
			assertInts(t, got, asc...)
			got, err = Collect(NewTopK(ctx, slabSource(sch, rows, slab), []SortKey{{Col: 0, Desc: true}}, 5))
			if err != nil {
				t.Fatal(err)
			}
			assertInts(t, got, 499, 498, 497, 496, 495)
		}
	}
}

// TestNestedLoopJoinSlabs forces the cross product of two multi-slab inputs
// through 3-row output slabs: every pair appears exactly once, and no slab
// exceeds the configured size.
func TestNestedLoopJoinSlabs(t *testing.T) {
	ctx := NewCtx("", 0)
	ctx.BatchRows = 3
	sch := intSchema("a")
	j := NewNestedLoopJoin(ctx, slabSource(sch, seqRows(0, 5), 2), slabSource(sch, seqRows(0, 4), 3), nil, JoinInner)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	seen := map[[2]int64]bool{}
	for {
		b, ok, err := j.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(b) == 0 || len(b) > 3 {
			t.Fatalf("join slab size = %d, want 1..3", len(b))
		}
		for _, r := range b {
			k := [2]int64{r[0].Int(), r[1].Int()}
			if seen[k] {
				t.Fatalf("pair %v emitted twice", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("cross product pairs = %d, want 20", len(seen))
	}
}

// TestKillInBlockingDrain kills a query before its blocking operators start
// draining a 1M-row input: every drain must surface the kill cause having
// pulled at most one slab, instead of running the input to exhaustion.
func TestKillInBlockingDrain(t *testing.T) {
	sch := intSchema("k", "v")
	rows := make([]types.Row, 1<<20)
	row := types.Row{types.NewInt(1), types.NewInt(2)}
	for i := range rows {
		rows[i] = row
	}
	small := func() Operator { return NewSource(sch, intRows([]int64{1, 1})) }
	keys := []SortKey{{Col: 0}}
	for name, build := range map[string]func(ctx *Ctx, big Operator) Operator{
		"sort": func(ctx *Ctx, big Operator) Operator { return NewSort(ctx, big, keys) },
		"topk": func(ctx *Ctx, big Operator) Operator { return NewTopK(ctx, big, keys, 3) },
		"join-build": func(ctx *Ctx, big Operator) Operator {
			return NewHashJoin(ctx, small(), big, ColRefs(0), ColRefs(0), JoinInner, nil, 1)
		},
		"join, typed probe": func(ctx *Ctx, big Operator) Operator {
			return NewTypedProbeHashJoin(ctx, &typedSource{Operator: big}, small(), ColRefs(0), ColRefs(0), JoinInner, nil, 1)
		},
		"nlj-right": func(ctx *Ctx, big Operator) Operator { return NewNestedLoopJoin(ctx, small(), big, nil, JoinInner) },
		"materialize": func(ctx *Ctx, big Operator) Operator {
			mem := ctx.Child(ctx.Cancel())
			mem.TempDir = "" // buffer in memory
			return NewMaterialize(mem, big)
		},
		"aggregate": func(ctx *Ctx, big Operator) Operator {
			return NewHashAggregate(ctx, big, ColRefs(0), []AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
		},
		"aggregate, typed input": func(ctx *Ctx, big Operator) Operator {
			return NewTypedHashAggregate(ctx, &typedSource{Operator: big}, ColRefs(0), []AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
		},
	} {
		t.Run(name, func(t *testing.T) {
			cause := errors.New("killed by test")
			cancel := NewCancel()
			cancel.Kill(cause)
			big := &pullCounter{Operator: NewSource(sch, rows)}
			op := build(NewCtx(t.TempDir(), 0).Child(cancel), big)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			defer op.Close()
			if _, _, err := op.NextBatch(); !errors.Is(err, cause) {
				t.Fatalf("NextBatch error = %v, want the kill cause", err)
			}
			if big.pulls > 1 {
				t.Errorf("drain pulled %d slabs after the kill, want at most 1", big.pulls)
			}
		})
	}
}
