package main

import (
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/srv"
	"repro/internal/tpch"
	"repro/internal/types"
)

// workload is one fixed set of inputs. Operation counts are a function of
// the -seconds argument only (never of elapsed time), so two builds given
// the same arguments do identical work.
type workload struct {
	Name    string
	Why     string
	SF      float64
	Queries []string // TPC-H ids of the read statements, one pass = one of each
	// Passes is how many passes the timed phase makes at the benchmark's
	// run_seconds (per client on serve_short; cycles on refresh_mix).
	Passes int
	// CalibEvery: the calibration kernel runs after every so many passes,
	// about a dozen times in a timed phase.
	CalibEvery int
}

// runSeconds is BENCHMARK.json's run_seconds: the pass counts below are
// sized so each timed phase takes about this long on a 2-core host.
const runSeconds = 10

// minPasses keeps medians meaningful however short -seconds is.
const minPasses = 8

var workloads = []workload{
	{
		Name: "scan_agg",
		Why:  "scan-dominated filter-aggregate queries over data larger than the buffer pool: page decode, buffer, skipcache and aggregation do the work, little is shipped",
		SF:   0.02, Queries: []string{"q1", "q6", "q12", "q14", "q19"}, Passes: 12, CalibEvery: 1,
	},
	{
		Name: "join_shuffle",
		Why:  "multi-way joins that repartition megabytes over 2-6 exchanges: hash join and aggregation state, exchange codec, fabric and join order dominate",
		SF:   0.01, Queries: []string{"q5", "q7", "q9", "q18", "q21"}, Passes: 8, CalibEvery: 1,
	},
	{
		Name: "serve_short",
		Why:  "10-50 ms queries from concurrent closed-loop TCP clients on data that fits the buffer pool: per-query fixed cost (wire, admission, parse, plan, distribute, encode) is a visible share",
		SF:   0.01, Queries: []string{"q2", "q6", "q11", "q12", "q14", "q16", "q20", "q22"}, Passes: 36, CalibEvery: 3,
	},
	{
		Name: "refresh_mix",
		Why:  "append, update, insert and delete cycles followed by reads: columnar appends, txn/WAL/2PC row DML and cache invalidation, and the reads that pay for them",
		SF:   0.01, Queries: []string{"q1", "q6", "q3", "q11", "q12"}, Passes: 20, CalibEvery: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sized scales the pass count to the -seconds argument.
func (w workload) sized(seconds int) workload {
	w.Passes = w.Passes * seconds / runSeconds
	if w.Passes < minPasses {
		w.Passes = minPasses
	}
	return w
}

// loadOrder fixes the order tables are loaded in, so page files, WAL and
// statistics are built identically on every run.
var loadOrder = []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"}

func tableRows(d *tpch.Data, name string) *[]types.Row {
	switch name {
	case "region":
		return &d.Region
	case "nation":
		return &d.Nation
	case "supplier":
		return &d.Supplier
	case "part":
		return &d.Part
	case "partsupp":
		return &d.PartSupp
	case "customer":
		return &d.Customer
	case "orders":
		return &d.Orders
	default:
		return &d.Lineitem
	}
}

// baseFacts is what the harness keeps of the generated data once the rows
// themselves are dropped.
type baseFacts struct {
	Orders, Lineitems, Customers, Parts, Suppliers, PartSupps int
	Rows                                                      int
}

// env is one loaded cluster plus what the harness measured building it.
type env struct {
	w    workload
	seed int64
	dir  string // the cluster's BaseDir
	c    *cluster.Cluster
	base baseFacts

	// serve_short only.
	server *srv.Server
	addr   string
	served chan error

	genS, loadS, coldPassS, setupS float64
	// first holds the warm-up pass's result per query id: the reference
	// cluster and every timed repetition are compared against it.
	first map[string][]resultRow
	// floats marks, per query id, the float columns of that result, for
	// results that come back as text.
	floats map[string][]bool
}

// newCluster builds the fixed configuration every workload runs on (the
// one experiments.newCluster uses): only the worker count varies, for the
// 1-worker reference.
func newCluster(dir string, workers int) (*cluster.Cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := cluster.New(cluster.Config{
		NumWorkers: workers,
		BaseDir:    dir,
		PageSize:   16 * 1024,
		Nmax:       4,
		Profile:    cluster.HRDBMSProfile(),
	})
	if err != nil {
		return nil, err
	}
	for _, ddl := range tpch.DDL() {
		if _, err := c.ExecSQL(ddl); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("ddl: %w", err)
		}
	}
	return c, nil
}

// loadAll loads every table in loadOrder and drops each table's generated
// rows as soon as they are loaded.
func loadAll(c *cluster.Cluster, d *tpch.Data) error {
	for _, t := range loadOrder {
		rows := tableRows(d, t)
		if _, err := c.Load(t, *rows); err != nil {
			return fmt.Errorf("load %s: %w", t, err)
		}
		*rows = nil
	}
	return nil
}

// setup is everything setup_s covers: generate, DDL, load, (serve_short)
// listener up, and one warm-up pass of the workload's queries.
func setup(w workload, seed int64, dir string) (*env, error) {
	e := &env{w: w, seed: seed, dir: dir, first: map[string][]resultRow{}, floats: map[string][]bool{}}
	start := time.Now()
	d := tpch.Generate(w.SF, seed)
	e.genS = time.Since(start).Seconds()
	e.base = baseFacts{
		Orders: len(d.Orders), Lineitems: len(d.Lineitem), Customers: len(d.Customer),
		Parts: len(d.Part), Suppliers: len(d.Supplier), PartSupps: len(d.PartSupp), Rows: d.TotalRows(),
	}
	loadStart := time.Now()
	c, err := newCluster(dir, 4)
	if err != nil {
		return nil, err
	}
	e.c = c
	if err := loadAll(c, d); err != nil {
		e.close()
		return nil, err
	}
	e.loadS = time.Since(loadStart).Seconds()
	if w.Name == "serve_short" {
		if err := e.listen(); err != nil {
			e.close()
			return nil, err
		}
	}
	coldStart := time.Now()
	queries := tpch.Queries()
	for _, q := range w.Queries {
		res, err := c.ExecSQL(queries[q])
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %s: %w", q, err)
		}
		e.first[q] = canonRows(res.Rows)
		e.floats[q] = floatColumns(res.Rows)
	}
	e.coldPassS = time.Since(coldStart).Seconds()
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

// listen starts the serving layer over the cluster on a loopback port.
func (e *env) listen() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.server = srv.New(e.c, srv.Config{}, e.c.Reg)
	e.addr = l.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- e.server.Serve(l) }()
	return nil
}

// quiesce finishes what set-up left pending before the clock starts: its
// dirty file data and freed blocks go to disk now instead of under the timed
// phase's own fsyncs, and its garbage is collected and handed back to the
// operating system, so that the heap the timed phase holds is its own.
func quiesce() {
	syscall.Sync()
	debug.FreeOSMemory()
}

// close stops the server (waiting for its accept loop and handlers) and
// the cluster. The BaseDir stays for space accounting; the caller removes
// the work directory.
func (e *env) close() {
	if e.server != nil {
		_ = e.server.Shutdown()
		<-e.served
		e.server = nil
	}
	if e.c != nil {
		_ = e.c.Close()
		e.c = nil
	}
}

// dirBytes sums the regular files under the cluster's BaseDir — page files,
// WALs, XA logs, persisted predicate caches — leaving out the operators'
// tmp<node> spill directories.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if path != dir && strings.HasPrefix(de.Name(), "tmp") {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// resultRow is one result row split into its exact part (every column that
// is not a float, tabs kept, "~" where a float stood) and its floats.
// Parallel aggregation sums in a run-dependent order, so the last digits of
// a float are not part of the answer: floats compare to 9 significant
// digits, everything else exactly. Which columns are floats comes from the
// values' kinds, never from how a value prints: a float sum that happens to
// be a whole number prints without a point in one summation order and with
// fifteen digits in another.
type resultRow struct {
	text string
	nums []float64
}

// floatColumns marks the columns that hold a float in some row.
func floatColumns(rows []types.Row) []bool {
	var mask []bool
	for _, r := range rows {
		for len(mask) < len(r) {
			mask = append(mask, false)
		}
		for i, v := range r {
			if v.K == types.KindFloat {
				mask[i] = true
			}
		}
	}
	return mask
}

// splitFields parses the marked columns of one row as floats; a marked field
// that is not a number (NULL) stays text.
func splitFields(fields []string, floats []bool) resultRow {
	var nums []float64
	for i := range fields {
		if i < len(floats) && floats[i] {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				nums = append(nums, v)
				fields[i] = "~"
			}
		}
	}
	return resultRow{text: strings.Join(fields, "\t"), nums: nums}
}

// sortRows orders a result into a canonical multiset.
func sortRows(out []resultRow) []resultRow {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.text != b.text {
			return a.text < b.text
		}
		for k := 0; k < len(a.nums) && k < len(b.nums); k++ {
			if a.nums[k] != b.nums[k] {
				return a.nums[k] < b.nums[k]
			}
		}
		return false
	})
	return out
}

// canonLines canonicalises a result that arrived as tab-separated text (the
// wire protocol); floats marks its float columns.
func canonLines(lines []string, floats []bool) []resultRow {
	out := make([]resultRow, len(lines))
	for i, l := range lines {
		out[i] = splitFields(strings.Split(l, "\t"), floats)
	}
	return sortRows(out)
}

// canonRows canonicalises a result that arrived as rows.
func canonRows(rows []types.Row) []resultRow {
	floats := floatColumns(rows)
	out := make([]resultRow, len(rows))
	for i, r := range rows {
		fields := make([]string, len(r))
		for j, v := range r {
			fields[j] = v.String()
		}
		out[i] = splitFields(fields, floats)
	}
	return sortRows(out)
}

// closeTo compares to 9 significant digits.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// diffResult describes the first difference between two canonical results,
// or returns "" when they are equal.
func diffResult(got, want []resultRow) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].text != want[i].text || len(got[i].nums) != len(want[i].nums) {
			return fmt.Sprintf("row %d: %q %v, want %q %v", i, got[i].text, got[i].nums, want[i].text, want[i].nums)
		}
		for k := range got[i].nums {
			if !closeTo(got[i].nums[k], want[i].nums[k]) {
				return fmt.Sprintf("row %d: %q %v, want %q %v", i, got[i].text, got[i].nums, want[i].text, want[i].nums)
			}
		}
	}
	return ""
}

// op is one timed operation.
type op struct {
	Kind   string // query id, or append/update/insert/delete
	Pass   int
	Client int
	MS     float64
	Failed bool
}

// recorder collects the timed phase's operations and the high-water mark of
// the heap memory the process holds from the operating system (HeapSys -
// HeapReleased), sampled at every operation boundary. HeapInuse, which
// ISSUE 11 named, depends on where in a collection cycle the boundary falls
// and spread twice as wide.
type recorder struct {
	mu       sync.Mutex
	ops      []op
	peakHeap uint64
	wallS    float64
	// calib, when set, is sampled between passes; wallS leaves its time out.
	calib *calibrator
}

// passDone runs the calibration kernel when pass p (from 0) ends an interval.
func (r *recorder) passDone(w workload, p int) {
	if (p+1)%w.CalibEvery == 0 {
		r.calib.sample()
	}
}

func (r *recorder) add(o op) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	r.ops = append(r.ops, o)
	if held := ms.HeapSys - ms.HeapReleased; held > r.peakHeap {
		r.peakHeap = held
	}
	r.mu.Unlock()
}

// settle charges every failed operation the largest latency observed in the
// phase, so a failure can never improve a median or a percentile.
func (r *recorder) settle() (attempted, failed int) {
	var worst float64
	for _, o := range r.ops {
		if o.MS > worst {
			worst = o.MS
		}
	}
	for i := range r.ops {
		if r.ops[i].Failed {
			r.ops[i].MS = worst
			failed++
		}
	}
	return len(r.ops), failed
}

func (r *recorder) byKind() map[string][]float64 {
	out := map[string][]float64{}
	for _, o := range r.ops {
		out[o.Kind] = append(out[o.Kind], o.MS)
	}
	return out
}

func isQuery(kind string) bool { return strings.HasPrefix(kind, "q") }

// halfMS sums each (client, pass)'s read or write operations and returns one
// wall-time sample per pass.
func (r *recorder) halfMS(read bool) []float64 {
	type key struct{ client, pass int }
	sums := map[key]float64{}
	for _, o := range r.ops {
		if isQuery(o.Kind) == read {
			sums[key{o.Client, o.Pass}] += o.MS
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}
