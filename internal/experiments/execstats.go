package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// QueryExecStat is one query's measured execution — the raw counted
// quantities before any performance modeling. hrdbms-bench -exp exec prints
// these and -json writes them to a machine-readable baseline
// (BENCH_EXEC.json) so regressions in executed work (rows, pages, network
// volume, exchanges) are diffable across changes. It holds counts only: wall
// time is measured by the bench/ module, not here.
type QueryExecStat struct {
	Query        string `json:"query"`
	ResultRows   int    `json:"result_rows"`
	WorkRows     int64  `json:"work_rows"`
	ScanRows     int64  `json:"scan_rows"`
	PagesRead    int64  `json:"pages_read"`
	PagesSkipped int64  `json:"pages_skipped"`
	// Vector-scan page decode outcomes: typed batch decoders vs the boxed
	// DecodeInto fallback. Boxed should be 0 on the TPC-H schema; nonzero
	// means some scan silently pays the per-cell boxing tax.
	DecodeTypedPages int64 `json:"decode_typed_pages"`
	DecodeBoxedPages int64 `json:"decode_boxed_pages"`
	SpillBytes       int64 `json:"spill_bytes"`
	StateBytes       int64 `json:"state_bytes"`
	NetBytes         int64 `json:"net_bytes"`
	NetMessages      int64 `json:"net_messages"`
	Exchanges        int   `json:"exchanges"`
}

// ExecStats runs the TPC-H suite once on a real hrdbms-profile cluster and
// returns the executed per-query metrics. With trace set, every query runs
// under the per-operator tracer and its stitched span tree is printed after
// the query's stats row.
func (r *Runner) ExecStats(workers int, trace bool) ([]QueryExecStat, error) {
	if workers == 0 {
		workers = 4
	}
	c, err := r.newCluster("hrdbms", workers)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	queries := tpch.Queries()
	var out []QueryExecStat
	r.printf("\n=== Executed per-query stats (%d workers, SF%g, measured not modeled) ===\n", workers, r.SF)
	r.printf("%-5s %8s %9s %9s %7s %7s %10s %6s %5s\n",
		"query", "rows", "scanrows", "workrows", "pages", "skip", "net(B)", "msgs", "exch")
	for _, qid := range tpch.QueryIDs() {
		sql := queries[qid]
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			return nil, fmt.Errorf("%s parse: %w", qid, err)
		}
		node, err := c.Plan(sel)
		if err != nil {
			return nil, fmt.Errorf("%s plan: %w", qid, err)
		}
		var rows []types.Row
		var m cluster.RunMetrics
		var tr *obs.QueryTrace
		if trace {
			rows, m, tr, err = c.RunTraced(node, sql)
		} else {
			rows, m, err = c.RunMetered(node)
		}
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", qid, err)
		}
		st := QueryExecStat{
			Query:            qid,
			ResultRows:       len(rows),
			WorkRows:         m.WorkRows,
			ScanRows:         m.ScanRows,
			PagesRead:        m.PagesRead,
			PagesSkipped:     m.PagesSkipped,
			DecodeTypedPages: m.DecodeTypedPages,
			DecodeBoxedPages: m.DecodeBoxedPages,
			SpillBytes:       m.SpillBytes,
			StateBytes:       m.StateBytes,
			NetBytes:         m.NetBytes,
			NetMessages:      m.NetMessages,
			Exchanges:        m.Exchanges,
		}
		out = append(out, st)
		r.printf("%-5s %8d %9d %9d %7d %7d %10d %6d %5d\n",
			qid, st.ResultRows, st.ScanRows, st.WorkRows, st.PagesRead, st.PagesSkipped,
			st.NetBytes, st.NetMessages, st.Exchanges)
		if tr != nil {
			r.printf("--- %s operator trace ---\n%s", qid, tr.Render())
		}
	}
	return out, nil
}

// CheckExecRegression compares freshly measured per-query stats against a
// committed JSON baseline (BENCH_EXEC.json) and fails if any named query's
// executed work grew beyond the tolerance. WorkRows and NetBytes are the
// gated quantities: they are what the cost-based optimizer's join ordering
// and shuffle-vs-broadcast decisions directly control, and they are
// deterministic for a fixed scale factor, seed, and worker count (unlike
// wall time or message counts, which depend on flush timing). tol is a
// fraction: 0.10 allows 10% growth before failing. No queries named gates
// every query in the baseline.
func CheckExecRegression(stats []QueryExecStat, baselinePath string, queries []string, tol float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base []QueryExecStat
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	baseBy := make(map[string]QueryExecStat, len(base))
	all := len(queries) == 0
	for _, b := range base {
		baseBy[b.Query] = b
		if all {
			queries = append(queries, b.Query)
		}
	}
	curBy := make(map[string]QueryExecStat, len(stats))
	for _, s := range stats {
		curBy[s.Query] = s
	}
	var failures []string
	for _, q := range queries {
		b, ok := baseBy[q]
		if !ok {
			return fmt.Errorf("query %s not in baseline %s", q, baselinePath)
		}
		c, ok := curBy[q]
		if !ok {
			return fmt.Errorf("query %s not in measured stats", q)
		}
		if float64(c.WorkRows) > float64(b.WorkRows)*(1+tol) {
			failures = append(failures, fmt.Sprintf(
				"%s work_rows %d > baseline %d (+%.0f%% allowed)",
				q, c.WorkRows, b.WorkRows, tol*100))
		}
		if float64(c.NetBytes) > float64(b.NetBytes)*(1+tol) {
			failures = append(failures, fmt.Sprintf(
				"%s net_bytes %d > baseline %d (+%.0f%% allowed)",
				q, c.NetBytes, b.NetBytes, tol*100))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("executed-work regression vs %s:\n  %s",
			baselinePath, strings.Join(failures, "\n  "))
	}
	return nil
}
