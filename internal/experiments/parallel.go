package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
)

// ParallelSweepStat is one degree of the intra-node parallelism sweep: the
// TPC-H suite executed with every parallel operator (morsel scans,
// aggregate builds, sort-run generation, join probes) requesting `degree`
// workers from a budget sized to grant them. Wall time is machine-dependent
// (speedup needs >= degree idle cores); the executed-work columns must stay
// constant across degrees — parallelism may never change what is computed.
type ParallelSweepStat struct {
	Degree   int     `json:"degree"`
	WallNS   int64   `json:"wall_ns"`
	WorkRows int64   `json:"work_rows"`
	ScanRows int64   `json:"scan_rows"`
	NetBytes int64   `json:"net_bytes"`
	SpeedupX float64 `json:"speedup_x"` // degree-1 wall / this wall
}

// ParallelismSweep reruns the TPC-H suite on the hrdbms profile at each
// intra-node parallelism degree, pinning the worker budget so the requested
// degree is actually granted regardless of host CPU count. It checks that
// result row counts and executed work are identical across degrees (the
// morsel engine's correctness contract) and reports per-degree wall time.
func (r *Runner) ParallelismSweep(workers int, degrees []int) ([]ParallelSweepStat, error) {
	if workers == 0 {
		workers = 4
	}
	if len(degrees) == 0 {
		degrees = []int{1, 2, 4}
	}
	queries := tpch.Queries()
	type cell struct {
		wall    int64
		rows    map[string]int
		metrics cluster.RunMetrics
	}
	cells := make([]cell, 0, len(degrees))
	for _, degree := range degrees {
		prof := cluster.HRDBMSProfile()
		prof.Parallelism = degree
		prof.ProbeParallelism = degree
		// Two concurrently-parallel operators per worker (a scan feeding an
		// aggregate, say) can both be granted their full degree.
		budget := 2 * degree
		if degree <= 1 {
			budget = -1 // pin to zero extra threads: the true serial baseline
		}
		c, err := r.newClusterCfg(fmt.Sprintf("parsweep%d", degree), workers, prof, budget)
		if err != nil {
			return nil, err
		}
		cl := cell{rows: map[string]int{}}
		for _, qid := range tpch.QueryIDs() {
			sel, err := sqlparse.ParseSelect(queries[qid])
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("%s parse: %w", qid, err)
			}
			node, err := c.Plan(sel)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("%s plan: %w", qid, err)
			}
			rows, m, err := c.RunMetered(node)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("%s run (degree %d): %w", qid, degree, err)
			}
			cl.rows[qid] = len(rows)
			cl.wall += int64(m.Wall)
			cl.metrics.WorkRows += m.WorkRows
			cl.metrics.ScanRows += m.ScanRows
			cl.metrics.NetBytes += m.NetBytes
		}
		c.Close()
		cells = append(cells, cl)
	}

	// Parity gate: every degree must produce the same result row counts.
	for i, cl := range cells[1:] {
		for qid, n := range cells[0].rows {
			if cl.rows[qid] != n {
				return nil, fmt.Errorf("parallelism changed results: %s has %d rows at degree %d, %d at degree %d",
					qid, cl.rows[qid], degrees[i+1], n, degrees[0])
			}
		}
	}

	r.printf("\n=== Intra-node parallelism sweep (%d workers, SF%g, budget pinned per degree) ===\n", workers, r.SF)
	r.printf("%-7s %10s %9s %9s %10s %8s\n", "degree", "wall(ms)", "scanrows", "workrows", "net(B)", "speedup")
	out := make([]ParallelSweepStat, 0, len(cells))
	base := cells[0].wall
	for i, cl := range cells {
		st := ParallelSweepStat{
			Degree:   degrees[i],
			WallNS:   cl.wall,
			WorkRows: cl.metrics.WorkRows,
			ScanRows: cl.metrics.ScanRows,
			NetBytes: cl.metrics.NetBytes,
			SpeedupX: float64(base) / float64(cl.wall),
		}
		out = append(out, st)
		r.printf("%-7d %10.2f %9d %9d %10d %7.2fx\n",
			st.Degree, float64(st.WallNS)/1e6, st.ScanRows, st.WorkRows, st.NetBytes, st.SpeedupX)
	}
	r.printf("(wall speedup requires idle cores; executed work must not vary with degree)\n")
	return out, nil
}
