package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/types"
	"repro/internal/vec"
)

// TestChainSelDecode: over a chained column, decodeCol splits an ascending
// selection at the chain's page boundaries — positions rebased per page, a
// page no position falls in left alone — and yields exactly the cells a full
// decode holds at those positions, on the typed path (a string column) and
// on the boxed one (a column of mixed kinds).
func TestChainSelDecode(t *testing.T) {
	sch := types.NewSchema(
		types.Column{Name: "cap", Kind: types.KindFloat}, // closes the set
		types.Column{Name: "note", Kind: types.KindString},
		types.Column{Name: "mixed", Kind: types.KindString},
	)
	os := page.NewOpenSet(3, 1024)
	n := 0
	for ; ; n++ {
		note, mixed := types.NewString(fmt.Sprintf("note %d, which no other row carries", n*7919)), types.NewString(fmt.Sprintf("mixed cell %d, or %d, as a string", n, n*31))
		switch {
		case n%11 == 3:
			note = types.Null
		case n%5 == 2:
			mixed = types.NewInt(int64(n))
		}
		if ok, err := os.Append(types.Row{types.NewFloat(float64(n)), note, mixed}); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	set := os.Snapshot([]int{0, 1, 2})
	last := int32(n - 1)
	cs := &VecColumnarScan{table: sch}
	for ci := 1; ci <= 2; ci++ {
		var bounds []int32 // the first position of each chain page
		at := int32(0)
		for _, p := range set.Chunks(ci) {
			bounds = append(bounds, at)
			at += int32(p.NumValues())
		}
		if int(at) != n || len(bounds) < 3 {
			t.Fatalf("column %d: a chain of %d pages holding %d cells of %d rows; the test needs several boundaries", ci, len(bounds), at, n)
		}
		sels := map[string][]int32{
			"all":              nil,
			"none":             {},
			"first-page-only":  {0, 1, bounds[1] - 1},
			"last-page-only":   {bounds[len(bounds)-1], last},
			"skips-middle":     {0, bounds[len(bounds)-1] + 1},
			"straddles-each":   nil,
			"boundary-starts":  bounds,
			"single-last-cell": {last},
			"every-third":      nil,
		}
		sels["all"] = make([]int32, n)
		for i := range sels["all"] {
			sels["all"][i] = int32(i)
		}
		for _, b := range bounds[1:] {
			sels["straddles-each"] = append(sels["straddles-each"], b-1, b)
		}
		for i := int32(0); i < int32(n); i += 3 {
			sels["every-third"] = append(sels["every-third"], i)
		}
		d := &pageSetDecoder{cs: cs}
		full := vec.New(sch).Cols[ci]
		if err := d.decodeCol(set.Chunks(ci), &full, nil, nil); err != nil {
			t.Fatal(err)
		}
		if full.Len() != n {
			t.Fatalf("column %d: full decode holds %d cells", ci, full.Len())
		}
		if typed := ci == 1; (d.boxedPages == 0) != typed {
			t.Fatalf("column %d: %d typed and %d boxed page decodes", ci, d.typedPages, d.boxedPages)
		}
		for name, sel := range sels {
			got := vec.New(sch).Cols[ci]
			if err := d.decodeCol(set.Chunks(ci), &got, sel, nil); err != nil {
				t.Fatalf("column %d, %s: %v", ci, name, err)
			}
			if got.Len() != len(sel) {
				t.Fatalf("column %d, %s: %d cells for %d positions", ci, name, got.Len(), len(sel))
			}
			for k, pos := range sel {
				if g, w := got.Value(k), full.Value(int(pos)); !reflect.DeepEqual(g, w) {
					t.Fatalf("column %d, %s: position %d decodes to %v, the full decode holds %v", ci, name, pos, g, w)
				}
			}
		}
		got := vec.New(sch).Cols[ci]
		if err := d.decodeCol(set.Chunks(ci), &got, []int32{0, int32(n)}, nil); err == nil {
			t.Fatalf("column %d: a position past the chain decoded", ci)
		}
	}
}

// TestTracedVecCountsBatchesOnce: a traced scan's span counts each batch
// once — at the wrapper the consumer pulls through. A columnar scan counts
// typed batches, whether the consumer reads vectors or, through the row shim,
// slabs; a row scan counts slabs (its scan thread used to count them too).
func TestTracedVecCountsBatchesOnce(t *testing.T) {
	prows, psch := parLineitemData()
	rowFr := parTestFragment(t, prows[:3000], psch)
	for _, parallel := range []int{1, 4} {
		ctx := NewCtx("", 0)
		ctx.SetParallelBudget(parallel)
		ctx.BatchRows = 100
		sp := obs.NewQueryTrace(1, "").StartSpan("Scan", 0)
		op := NewTraced(NewRowScan(rowFr, "l", ScanConfig{Parallel: parallel, Trace: sp, Ctx: ctx}), sp)
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		var slabs, got int64
		if err := drain(ctx, op.NextBatch, func(slab []types.Row) error {
			slabs++
			got += int64(len(slab))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if got != 3000 || slabs < 2 {
			t.Fatalf("row scan, degree %d: %d rows in %d slabs, want 3000 rows in several", parallel, got, slabs)
		}
		if n := sp.Batches.Load(); n != slabs {
			t.Errorf("row scan, degree %d: span batches=%d for %d slabs pulled", parallel, n, slabs)
		}
	}

	fr, rows := vecScanFragment(t)
	for _, parallel := range []int{1, 4} {
		ctx := NewCtx("", 0)
		ctx.SetParallelBudget(parallel)
		ctx.BatchRows = 100
		sp := obs.NewQueryTrace(1, "").StartSpan("Scan", 0)
		op := NewTraced(NewVecColumnarScan(fr, "v", ScanConfig{Parallel: parallel, Trace: sp, Ctx: ctx}), sp)
		vop, ok := op.(VecOperator)
		if !ok {
			t.Fatal("tracing demoted the vector scan")
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		var batches, got int64
		for {
			b, ok, err := vop.NextVec()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			batches++
			got += int64(b.Rows())
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if got != int64(len(rows)) || batches < 2 {
			t.Fatalf("degree %d: %d rows in %d batches, want %d rows in several", parallel, got, batches, len(rows))
		}
		if n := sp.VecBatches.Load(); n != batches {
			t.Errorf("degree %d: span vec_batches=%d for %d batches pulled", parallel, n, batches)
		}
		if sets := sp.SetsRead.Load(); sets == 0 || sp.ChainPages.Load() < sets || sp.PagesRead.Load() != 6*sets+sp.ChainPages.Load() {
			t.Errorf("degree %d: span sets=%d chain=%d pages=%d, want six pages a set plus the chain pages", parallel, sets, sp.ChainPages.Load(), sp.PagesRead.Load())
		}
	}
}
