package exec

import (
	"testing"

	"repro/internal/types"
)

func TestMaterializeInMemory(t *testing.T) {
	src := NewSource(intSchema("a"), intRows([]int64{1}, []int64{2}, []int64{3}))
	m := NewMaterialize(nil, src)
	rows, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2][0].Int() != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if m.BytesBuffered <= 0 {
		t.Error("bytes buffered not accounted")
	}
}

func TestMaterializeToDisk(t *testing.T) {
	ctx := NewCtx(t.TempDir(), 0)
	var rows []types.Row
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewString("payload")})
	}
	src := NewSource(intSchema("a", "b"), rows)
	m := NewMaterialize(ctx, src)
	out, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("rows = %d", len(out))
	}
	for i, r := range out {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d out of order: %v", i, r)
		}
	}
	if ctx.SpillFiles.Load() == 0 {
		t.Error("disk materialization did not spill")
	}
	if ctx.SpillBytes.Load() == 0 {
		t.Error("spill bytes not metered")
	}
}

func TestMaterializeIsBlocking(t *testing.T) {
	// The source must be fully drained before the first slab is returned.
	drained := false
	src := &drainTracker{Source: NewSource(intSchema("a"), intRows([]int64{1}, []int64{2})), done: &drained}
	m := NewMaterialize(nil, src)
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, ok, err := m.NextBatch(); err != nil || !ok {
		t.Fatal(err)
	}
	if !drained {
		t.Error("first slab returned before input fully drained — not blocking")
	}
}

type drainTracker struct {
	*Source
	done *bool
}

func (d *drainTracker) NextBatch() ([]types.Row, bool, error) {
	b, ok, err := d.Source.NextBatch()
	if !ok {
		*d.done = true
	}
	return b, ok, err
}

func TestMergeAggSchemaValidated(t *testing.T) {
	// Merge mode with a wrong-arity input must fail loudly, not corrupt.
	src := NewSource(intSchema("g", "x"), intRows([]int64{1, 2}))
	agg := NewHashAggregate(nil, src, ColRefs(0), []AggSpec{{Kind: AggSum, Name: "s"}}, AggFinal)
	if _, err := Collect(agg); err == nil {
		t.Error("merge aggregate over non-state input should error")
	}
}
