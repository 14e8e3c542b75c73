package experiments

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// vecBatchSource replays pre-built typed batches — the vector engine's
// resident input representation, mirroring how the boxed engines read a
// resident []types.Row slice. Sel is cleared before each serve because a
// downstream VecFilter rewrites it in place.
type vecBatchSource struct {
	exec.Source // the schema and the Operator face; it holds no rows
	batches     []*vec.Batch
	pos         int
}

func (s *vecBatchSource) Open() error { s.pos = 0; return nil }
func (s *vecBatchSource) NextVec() (*vec.Batch, bool, error) {
	if s.pos >= len(s.batches) {
		return nil, false, nil
	}
	b := s.batches[s.pos]
	s.pos++
	b.Sel = nil
	return b, true, nil
}

// VectorVsBatch measures the typed vector kernels against the boxed batch
// engine on the scan→filter→project→aggregate pipeline of TPC-H Q1's hot
// loop over this runner's lineitem, and returns a synthetic stat row whose
// VecVsBatchRowsPerSec field records the throughput ratio. Both pipelines
// are golden-checked against each other before timing.
func (r *Runner) VectorVsBatch() (QueryExecStat, error) {
	rows := r.dataset().Lineitem
	cols := make([]types.Column, len(rows[0]))
	for i, v := range rows[0] {
		cols[i] = types.Column{Name: fmt.Sprintf("l%d", i), Kind: v.K}
	}
	sch := types.Schema{Cols: cols}
	const batchSize = 1024
	src := &vecBatchSource{Source: exec.Source{Sch: sch}}
	for off := 0; off < len(rows); off += batchSize {
		end := off + batchSize
		if end > len(rows) {
			end = len(rows)
		}
		src.batches = append(src.batches, vec.FromRows(sch, rows[off:end], nil))
	}
	colRef := func(i int) expr.Expr { return &expr.Col{Index: i, Name: fmt.Sprintf("l%d", i)} }
	pred := func() expr.Expr {
		return &expr.Bin{Op: expr.OpLt, L: colRef(4), R: &expr.Const{V: types.NewFloat(25)}}
	}
	revenue := func() expr.Expr {
		return &expr.Bin{Op: expr.OpMul, L: colRef(5),
			R: &expr.Bin{Op: expr.OpSub, L: &expr.Const{V: types.NewFloat(1)}, R: colRef(6)}}
	}
	specs := func() []exec.AggSpec {
		return []exec.AggSpec{
			{Kind: exec.AggSum, Arg: colRef(1), Name: "s"},
			{Kind: exec.AggCount, Name: "c"},
		}
	}
	batchPipe := func() exec.Operator {
		ctx := exec.NewCtx("", 0)
		ctx.BatchRows = batchSize
		f := exec.NewFilter(ctx, exec.NewSource(sch, rows), pred())
		p := exec.NewProject(ctx, f, []expr.Expr{colRef(8), revenue()}, []string{"flag", "rev"})
		return exec.NewHashAggregate(ctx, p, exec.ColRefs(0), specs(), exec.AggComplete)
	}
	vecPipe := func() exec.Operator {
		ctx := exec.NewCtx("", 0)
		ctx.BatchRows = batchSize
		f := exec.NewVecFilter(ctx, src, pred())
		p := exec.NewVecProject(ctx, f, []expr.Expr{colRef(8), revenue()}, []string{"flag", "rev"})
		return exec.NewVecHashAggregate(ctx, p, exec.ColRefs(0), specs(), exec.AggComplete)
	}
	want, err := exec.Collect(batchPipe())
	if err != nil {
		return QueryExecStat{}, err
	}
	got, err := exec.Collect(vecPipe())
	if err != nil {
		return QueryExecStat{}, err
	}
	if err := sameMultiset(got, want); err != nil {
		return QueryExecStat{}, fmt.Errorf("vector/batch parity: %w", err)
	}
	const reps = 3
	timePipe := func(build func() exec.Operator) (time.Duration, error) {
		best := time.Duration(0)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := exec.Collect(build()); err != nil {
				return 0, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	batchWall, err := timePipe(batchPipe)
	if err != nil {
		return QueryExecStat{}, err
	}
	vecWall, err := timePipe(vecPipe)
	if err != nil {
		return QueryExecStat{}, err
	}
	ratio := float64(batchWall) / float64(vecWall)
	st := QueryExecStat{
		Query:                "bench:vector_vs_batch",
		ResultRows:           len(want),
		WorkRows:             int64(len(rows)),
		WallNS:               int64(vecWall),
		VecVsBatchRowsPerSec: ratio,
	}
	r.printf("vector vs boxed-batch (lineitem SF%g, %d rows): batch %.1fms, vec %.1fms, ratio %.2fx\n",
		r.SF, len(rows), float64(batchWall)/1e6, float64(vecWall)/1e6, ratio)
	return st, nil
}

// sameMultiset compares two row sets order-insensitively.
func sameMultiset(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("row count %d vs %d", len(got), len(want))
	}
	counts := make(map[string]int, len(want))
	for _, r := range want {
		counts[r.String()]++
	}
	for _, r := range got {
		counts[r.String()]--
	}
	for k, c := range counts {
		if c != 0 {
			return fmt.Errorf("row %q: multiset difference %+d", k, -c)
		}
	}
	return nil
}
