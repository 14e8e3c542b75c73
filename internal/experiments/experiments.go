// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII). Each experiment executes the TPC-H workload
// for real on an in-process cluster — per system profile and per cluster
// size, so topology, materialization, skipping, and co-location effects
// are measured, not assumed — then maps the measured quantities to
// simulated cluster-scale seconds with the performance model.
//
// Absolute numbers are not expected to match the paper (its substrate was
// a 96-node Infiniband cluster); the reproduced quantity is the SHAPE:
// which system wins, by roughly what factor, and where the crossovers are.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/network"
	"repro/internal/page"
	"repro/internal/perfmodel"
	"repro/internal/skipcache"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Runner configures the experiment suite.
type Runner struct {
	SF       float64 // measured scale factor (tiny; default 0.001)
	TargetSF float64 // modeled scale factor (the paper's 1000 = 1 TB)
	Seed     int64
	BaseDir  string
	Out      io.Writer

	data  *tpch.Data
	cache map[string]map[string]cluster.RunMetrics // system/nodes → query → metrics
}

// NewRunner builds a runner with paper-equivalent defaults.
func NewRunner(out io.Writer, baseDir string) *Runner {
	if out == nil {
		out = os.Stdout
	}
	return &Runner{
		SF: 0.001, TargetSF: 1000, Seed: 20260706,
		BaseDir: baseDir, Out: out,
		cache: map[string]map[string]cluster.RunMetrics{},
	}
}

func (r *Runner) printf(format string, args ...interface{}) {
	fmt.Fprintf(r.Out, format, args...)
}

// dataset generates (once) the measured dataset.
func (r *Runner) dataset() *tpch.Data {
	if r.data == nil {
		r.data = tpch.Generate(r.SF, r.Seed)
	}
	return r.data
}

// newCluster builds a loaded cluster for one (system, workers) cell.
func (r *Runner) newCluster(system string, workers int) (*cluster.Cluster, error) {
	dir, err := os.MkdirTemp(r.BaseDir, fmt.Sprintf("%s-%d-*", system, workers))
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(cluster.Config{
		NumWorkers: workers,
		BaseDir:    dir,
		PageSize:   16 * 1024,
		Nmax:       4, // the paper's constant neighbor limit
		Profile:    perfmodel.ClusterProfile(system),
	})
	if err != nil {
		return nil, err
	}
	for _, ddl := range tpch.DDL() {
		if _, err := c.ExecSQL(ddl); err != nil {
			c.Close()
			return nil, err
		}
	}
	for tbl, rows := range r.dataset().Tables() {
		if _, err := c.Load(tbl, rows); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// measure runs all 21 queries metered on a (system, workers) cluster,
// caching the result.
func (r *Runner) measure(system string, workers int) (map[string]cluster.RunMetrics, error) {
	key := fmt.Sprintf("%s/%d", system, workers)
	if m, ok := r.cache[key]; ok {
		return m, nil
	}
	c, err := r.newCluster(system, workers)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := map[string]cluster.RunMetrics{}
	queries := tpch.Queries()
	for _, qid := range tpch.QueryIDs() {
		sel, err := sqlparse.ParseSelect(queries[qid])
		if err != nil {
			return nil, fmt.Errorf("%s parse: %w", qid, err)
		}
		node, err := c.Plan(sel)
		if err != nil {
			return nil, fmt.Errorf("%s plan: %w", qid, err)
		}
		_, m, err := c.RunMetered(node)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", qid, err)
		}
		out[qid] = m
	}
	r.cache[key] = out
	return out, nil
}

// estimate runs the model for one query cell.
func (r *Runner) estimate(system string, workers int, m cluster.RunMetrics, memBytes float64) perfmodel.Estimate {
	prof := perfmodel.Systems(memBytes)[system]
	mo := perfmodel.Model{Prof: prof}
	return mo.Estimate(m, perfmodel.Scale{
		DataFactor:      r.TargetSF / r.SF,
		Nodes:           workers,
		MeasuredWorkers: workers,
	})
}

// SuiteResult is one (system, nodes) cell of Figure 7.
type SuiteResult struct {
	System  string
	Nodes   int
	Seconds float64 // sum over completed queries
	OOM     []string
	PerQ    map[string]float64
}

// RunSuite measures and models the full 21-query suite for one cell.
func (r *Runner) RunSuite(system string, workers int, memBytes float64) (*SuiteResult, error) {
	metrics, err := r.measure(system, workers)
	if err != nil {
		return nil, err
	}
	res := &SuiteResult{System: system, Nodes: workers, PerQ: map[string]float64{}}
	for _, qid := range tpch.QueryIDs() {
		est := r.estimate(system, workers, metrics[qid], memBytes)
		if est.OOM {
			res.OOM = append(res.OOM, qid)
			continue
		}
		res.PerQ[qid] = est.Seconds
		res.Seconds += est.Seconds
	}
	sort.Strings(res.OOM)
	return res, nil
}

// Fig7Sizes is the paper's cluster-size sweep.
var Fig7Sizes = []int{8, 16, 32, 64, 96}

// Fig7 regenerates Figure 7: total TPC-H runtime per system per cluster
// size, speedup relative to 8 nodes, and step-wise speedup.
func (r *Runner) Fig7(systems []string, sizes []int) (map[string][]*SuiteResult, error) {
	if systems == nil {
		systems = []string{"hive", "sparksql", "greenplum", "hrdbms"}
	}
	if sizes == nil {
		sizes = Fig7Sizes
	}
	results := map[string][]*SuiteResult{}
	for _, sys := range systems {
		for _, n := range sizes {
			res, err := r.RunSuite(sys, n, 24<<30)
			if err != nil {
				return nil, fmt.Errorf("%s@%d: %w", sys, n, err)
			}
			results[sys] = append(results[sys], res)
		}
	}
	r.printf("\n=== Figure 7(a): total TPC-H runtime (sec, SF%.0f modeled) ===\n", r.TargetSF)
	r.printf("%-12s", "system")
	for _, n := range sizes {
		r.printf("%12d", n)
	}
	r.printf("\n")
	for _, sys := range systems {
		r.printf("%-12s", perfmodel.Systems(0)[sys].Name)
		for _, res := range results[sys] {
			if len(res.OOM) > 0 {
				r.printf("%8.0f(%dF)", res.Seconds, len(res.OOM))
			} else {
				r.printf("%12.0f", res.Seconds)
			}
		}
		r.printf("\n")
	}
	r.printf("\n=== Figure 7(b): speedup relative to smallest size ===\n")
	r.printf("%-12s", "system")
	for _, n := range sizes {
		r.printf("%12d", n)
	}
	r.printf("\n")
	for _, sys := range systems {
		base := results[sys][0].Seconds
		r.printf("%-12s", perfmodel.Systems(0)[sys].Name)
		for _, res := range results[sys] {
			r.printf("%12.2f", base/res.Seconds)
		}
		r.printf("\n")
	}
	r.printf("\n=== Figure 7(c): step-wise speedup (vs previous size) ===\n")
	for _, sys := range systems {
		r.printf("%-12s", perfmodel.Systems(0)[sys].Name)
		prev := 0.0
		for i, res := range results[sys] {
			if i == 0 {
				r.printf("%12s", "-")
			} else {
				r.printf("%12.2f", prev/res.Seconds)
			}
			prev = res.Seconds
		}
		r.printf("\n")
	}
	return results, nil
}

// Fig8 regenerates the per-query comparison of HRDBMS vs Greenplum at the
// smallest and largest cluster sizes, flagging the paper's call-outs.
func (r *Runner) Fig8(small, large int) error {
	type cell struct{ hr, gp perfmodel.Estimate }
	get := func(n int) (map[string]cell, error) {
		hr, err := r.measure("hrdbms", n)
		if err != nil {
			return nil, err
		}
		gp, err := r.measure("greenplum", n)
		if err != nil {
			return nil, err
		}
		out := map[string]cell{}
		for _, qid := range tpch.QueryIDs() {
			out[qid] = cell{
				hr: r.estimate("hrdbms", n, hr[qid], 24<<30),
				gp: r.estimate("greenplum", n, gp[qid], 24<<30),
			}
		}
		return out, nil
	}
	at8, err := get(small)
	if err != nil {
		return err
	}
	atN, err := get(large)
	if err != nil {
		return err
	}
	r.printf("\n=== Figure 8: per-query runtime (sec), HRDBMS vs Greenplum ===\n")
	r.printf("%-5s %10s %10s %8s   %10s %10s %8s\n",
		"query", fmt.Sprintf("HR@%d", small), fmt.Sprintf("GP@%d", small), "ratio",
		fmt.Sprintf("HR@%d", large), fmt.Sprintf("GP@%d", large), "ratio")
	for _, qid := range tpch.QueryIDs() {
		c8, cN := at8[qid], atN[qid]
		ratio := func(c cell) string {
			if c.gp.OOM {
				return "GP-OOM"
			}
			return fmt.Sprintf("%8.2f", c.gp.Seconds/c.hr.Seconds)
		}
		gp8 := fmt.Sprintf("%10.1f", c8.gp.Seconds)
		if c8.gp.OOM {
			gp8 = "       OOM"
		}
		r.printf("%-5s %10.1f %s %s   %10.1f %10.1f %s\n",
			qid, c8.hr.Seconds, gp8, ratio(c8),
			cN.hr.Seconds, cN.gp.Seconds, ratio(cN))
	}
	return nil
}

// Fig9 regenerates the Q18 scaling table (runtime and speedup relative to
// the 16-node run) for Greenplum and HRDBMS.
func (r *Runner) Fig9(sizes []int) error {
	if sizes == nil {
		sizes = []int{16, 32, 64, 96}
	}
	r.printf("\n=== Figure 9: TPC-H Q18 runtime (sec) and speedup vs %d nodes ===\n", sizes[0])
	r.printf("%-8s %18s %18s\n", "nodes", "Greenplum", "HRDBMS")
	var gpBase, hrBase float64
	for i, n := range sizes {
		gpM, err := r.measure("greenplum", n)
		if err != nil {
			return err
		}
		hrM, err := r.measure("hrdbms", n)
		if err != nil {
			return err
		}
		gp := r.estimate("greenplum", n, gpM["q18"], 24<<30)
		hr := r.estimate("hrdbms", n, hrM["q18"], 24<<30)
		if i == 0 {
			gpBase, hrBase = gp.Seconds, hr.Seconds
		}
		gpTxt := fmt.Sprintf("%8.0f (%5.2f)", gp.Seconds, gpBase/gp.Seconds)
		if gp.OOM {
			gpTxt = "       OOM       "
		}
		r.printf("%-8d %18s %8.0f (%5.2f)\n", n, gpTxt, hr.Seconds, hrBase/hr.Seconds)
	}
	return nil
}

// ThreeTB regenerates the 3 TB experiment: SF3000 on 8 nodes with 24 GB
// memory per node; Greenplum and Spark fail with OOM on their
// largest-intermediate queries, HRDBMS completes all 21.
func (r *Runner) ThreeTB() error {
	save := r.TargetSF
	defer func() { r.TargetSF = save }()
	r.printf("\n=== 3TB experiment: SF3000 on 8 nodes, 24 GB memory/node ===\n")
	r.printf("%-12s %10s %8s %s\n", "system", "total(s)", "done", "failed queries")
	var hr1, hr3 float64
	for _, sys := range []string{"greenplum", "sparksql", "hive", "hrdbms"} {
		r.TargetSF = 3000
		res, err := r.RunSuite(sys, 8, 24<<30)
		if err != nil {
			return err
		}
		done := len(tpch.QueryIDs()) - len(res.OOM)
		r.printf("%-12s %10.0f %5d/21 %s\n",
			perfmodel.Systems(0)[sys].Name, res.Seconds, done, strings.Join(res.OOM, " "))
		if sys == "hrdbms" {
			hr3 = res.Seconds
			r.TargetSF = 1000
			res1, err := r.RunSuite(sys, 8, 24<<30)
			if err != nil {
				return err
			}
			hr1 = res1.Seconds
		}
	}
	if hr1 > 0 {
		r.printf("HRDBMS 3TB/1TB runtime ratio: %.2fx (paper: 2.85x)\n", hr3/hr1)
	}
	return nil
}

// CurrentVersions regenerates the final table: 8 nodes with full 384 GB
// memory, newer engine versions (Hive on Tez, Spark 2.0).
func (r *Runner) CurrentVersions() error {
	r.printf("\n=== Current system versions: 8 nodes, 384 GB memory/node ===\n")
	r.printf("%-14s %12s\n", "system", "runtime (s)")
	for _, sys := range []string{"hive-tez", "spark2", "greenplum", "hrdbms"} {
		res, err := r.RunSuite(sys, 8, 384<<30)
		if err != nil {
			return err
		}
		r.printf("%-14s %12.0f\n", perfmodel.Systems(0)[sys].Name, res.Seconds)
	}
	return nil
}

// PredCacheFootprint reproduces the Section III estimate: a 10 TB database
// with 1000 executed queries on 10 nodes carries ~250 MB of predicate
// cache per node. We build the cache the same way the system would and
// measure it.
func (r *Runner) PredCacheFootprint() error {
	const (
		dbBytes   = 10 << 40 // 10 TB
		nodes     = 10
		pageBytes = 64 << 20 // the paper's largest page size
		queries   = 1000
	)
	pagesPerNode := int64(dbBytes / nodes / pageBytes) // 16384
	c := skipcache.NewCache(0)
	// Each query leaves absence facts on the ~30% of pages its predicate
	// excludes (the 80-20 rule: most queries touch little data).
	for q := 0; q < queries; q++ {
		conj := skipcache.Conj{
			{Col: fmt.Sprintf("col_%d", q%16), Op: skipcache.OpLt, Val: types.NewInt(int64(q * 37))},
			{Col: "l_shipdate", Op: skipcache.OpGe, Val: types.NewInt(int64(8000 + q))},
		}
		for p := int64(0); p < pagesPerNode; p++ {
			if (p+int64(q))%10 < 3 { // 30% of pages record the fact
				c.Record(page.Key{File: 1, Page: uint32(p)}, conj)
			}
		}
	}
	perNode := c.SizeBytes()
	r.printf("\n=== Predicate cache footprint (10 TB, 1000 queries, 10 nodes) ===\n")
	r.printf("pages/node: %d, entries: %d, bytes/node: %.0f MB (paper: ~250 MB)\n",
		pagesPerNode, c.Entries(), float64(perNode)/(1<<20))
	return nil
}

// Ablations quantifies the design choices DESIGN.md calls out, with real
// measured counters rather than modeled time.
func (r *Runner) Ablations(workers int) error {
	if workers == 0 {
		workers = 16
	}
	r.printf("\n=== Ablations (measured counters, %d workers, SF%g) ===\n", workers, r.SF)

	// (a) Shuffle topology: a raw worker-to-worker shuffle (no coordinator
	// gather in the way) with the same volume under both topologies.
	hier, err := measureRawShuffle(workers, 4, true)
	if err != nil {
		return err
	}
	direct, err := measureRawShuffle(workers, 4, false)
	if err != nil {
		return err
	}
	r.printf("(a) %d-node shuffle topology (Nmax=4):\n", workers)
	r.printf("      hierarchical: max degree=%d  connections=%d  bytes=%d (hub forwarding)\n",
		hier.degree, hier.conns, hier.bytes)
	r.printf("      direct:       max degree=%d  connections=%d  bytes=%d\n",
		direct.degree, direct.conns, direct.bytes)

	// (b) Data skipping on vs off: the same selective scan with the
	// predicate cache + min-max enabled (second run warm) and disabled.
	runQ6 := func(system string) (first, second cluster.RunMetrics, err error) {
		c, err := r.newCluster(system, 4)
		if err != nil {
			return
		}
		defer c.Close()
		sel, _ := sqlparse.ParseSelect(tpch.Queries()["q6"])
		node, err := c.Plan(sel)
		if err != nil {
			return
		}
		if _, first, err = c.RunMetered(node); err != nil {
			return
		}
		node2, _ := c.Plan(sel)
		_, second, err = c.RunMetered(node2)
		return
	}
	onFirst, onSecond, err := runQ6("hrdbms")
	if err != nil {
		return err
	}
	offFirst, _, err := runQ6("greenplum") // no skipping in this profile
	if err != nil {
		return err
	}
	r.printf("(b) Q6 data skipping:       on:  cold pages=%d skipped=%d; warm pages=%d skipped=%d\n",
		onFirst.PagesRead, onFirst.PagesSkipped, onSecond.PagesRead, onSecond.PagesSkipped)
	r.printf("                            off: pages=%d skipped=%d\n",
		offFirst.PagesRead, offFirst.PagesSkipped)

	// (c) Blocking/materializing shuffle cost (Hive-like) vs non-blocking.
	hrM, err := r.measure("hrdbms", workers)
	if err != nil {
		return err
	}
	hiveM, err := r.measure("hive", workers)
	if err != nil {
		return err
	}
	var hrSpill, hiveSpill int64
	for _, qid := range tpch.QueryIDs() {
		hrSpill += hrM[qid].SpillBytes
		hiveSpill += hiveM[qid].SpillBytes
	}
	r.printf("(c) Suite materialization:  non-blocking shuffle spill=%d bytes; blocking+materialized spill=%d bytes\n",
		hrSpill, hiveSpill)
	return nil
}

// shufMeasure holds one raw-shuffle topology measurement.
type shufMeasure struct {
	degree, conns int
	bytes         int64
}

// measureRawShuffle runs a pure worker-to-worker shuffle over n in-process
// nodes and meters the topology quantities the paper's Nmax claim is about.
func measureRawShuffle(n, nmax int, hierarchical bool) (shufMeasure, error) {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	fabric := network.NewFabric(ids, 256)
	defer fabric.CloseAll()
	spec := exec.ShuffleSpec{Channel: "abl", Nodes: ids, Nmax: nmax, Hierarchical: hierarchical}
	sch := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	)
	var rows []types.Row
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i * 7)})
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			ep, err := fabric.Endpoint(i)
			if err != nil {
				errs <- err
				return
			}
			sh, err := exec.NewShuffle(nil, ep, spec, exec.NewSource(sch, rows), exec.ColRefs(0), types.Schema{})
			if err != nil {
				errs <- err
				return
			}
			_, err = exec.Collect(sh)
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			return shufMeasure{}, err
		}
	}
	m := fabric.Meter()
	return shufMeasure{degree: m.MaxNodeDegree(), conns: m.Connections(), bytes: m.TotalBytes()}, nil
}

// All runs every experiment in paper order.
func (r *Runner) All() error {
	if _, err := r.Fig7(nil, nil); err != nil {
		return err
	}
	if err := r.Fig8(8, 96); err != nil {
		return err
	}
	if err := r.Fig9(nil); err != nil {
		return err
	}
	if err := r.ThreeTB(); err != nil {
		return err
	}
	if err := r.CurrentVersions(); err != nil {
		return err
	}
	if err := r.PredCacheFootprint(); err != nil {
		return err
	}
	return r.Ablations(16)
}
