package experiments

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
)

var (
	sharedRunner *Runner
	sharedBuf    bytes.Buffer
	sharedOnce   sync.Once
)

// tinyRunner keeps test runtime sane: one shared runner (its measurement
// cache is reused across tests) at a tiny scale factor.
func tinyRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	sharedOnce.Do(func() {
		dir, err := os.MkdirTemp("", "experiments-test-*")
		if err != nil {
			t.Fatal(err)
		}
		sharedRunner = NewRunner(&sharedBuf, dir)
		sharedRunner.SF = 0.0005
	})
	return sharedRunner, &sharedBuf
}

func TestSuiteShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("suite measurement skipped in -short mode")
	}
	r, _ := tinyRunner(t)
	hr, err := r.RunSuite("hrdbms", 8, 24<<30)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := r.RunSuite("greenplum", 8, 24<<30)
	if err != nil {
		t.Fatal(err)
	}
	spark, err := r.RunSuite("sparksql", 8, 24<<30)
	if err != nil {
		t.Fatal(err)
	}
	hive, err := r.RunSuite("hive", 8, 24<<30)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hrdbms=%.0f greenplum=%.0f spark=%.0f hive=%.0f (OOM: gp=%v spark=%v)",
		hr.Seconds, gp.Seconds, spark.Seconds, hive.Seconds, gp.OOM, spark.OOM)
	// Paper shape at the smallest cluster: Hive slowest by far, Spark
	// several times slower than HRDBMS, Greenplum competitive with HRDBMS
	// on the queries it completes, but OOM on a few heavy queries (the
	// paper shows no Greenplum result at 8 nodes for this reason).
	if !(hive.Seconds > spark.Seconds) {
		t.Errorf("Hive (%.0f) should be slower than Spark (%.0f)", hive.Seconds, spark.Seconds)
	}
	if !(spark.Seconds > hr.Seconds) {
		t.Errorf("Spark (%.0f) should be slower than HRDBMS (%.0f)", spark.Seconds, hr.Seconds)
	}
	if len(gp.OOM) == 0 {
		t.Error("Greenplum should fail some heavy queries at 8 nodes/24GB (the paper's OOM)")
	}
	if len(gp.OOM) > 5 {
		t.Errorf("Greenplum OOMs %d queries — model too aggressive: %v", len(gp.OOM), gp.OOM)
	}
	if len(hr.OOM) != 0 {
		t.Errorf("HRDBMS must complete all queries (spilling): OOM=%v", hr.OOM)
	}
	if len(hive.OOM) != 0 {
		t.Errorf("Hive must complete all queries: OOM=%v", hive.OOM)
	}
	// Compare per-query where both completed: Greenplum should be in
	// HRDBMS's ballpark (the paper: GP 15-30%% faster per node).
	var hrSum, gpSum float64
	for qid, gpSec := range gp.PerQ {
		if hrSec, ok := hr.PerQ[qid]; ok {
			hrSum += hrSec
			gpSum += gpSec
		}
	}
	if gpSum > hrSum*1.6 {
		t.Errorf("Greenplum (%.0f) should be competitive with HRDBMS (%.0f) on completed queries",
			gpSum, hrSum)
	}
}

func TestScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("suite measurement skipped in -short mode")
	}
	r, _ := tinyRunner(t)
	// HRDBMS should get faster with more workers; Greenplum's advantage
	// should erode as its O(n) connection cost grows.
	hr4, err := r.RunSuite("hrdbms", 8, 24<<30)
	if err != nil {
		t.Fatal(err)
	}
	hr12, err := r.RunSuite("hrdbms", 32, 24<<30)
	if err != nil {
		t.Fatal(err)
	}
	if hr12.Seconds >= hr4.Seconds {
		t.Errorf("HRDBMS did not speed up: %0.f @8 vs %.0f @32", hr4.Seconds, hr12.Seconds)
	}
	gp4, err := r.RunSuite("greenplum", 8, 24<<30)
	if err != nil {
		t.Fatal(err)
	}
	gp12, err := r.RunSuite("greenplum", 32, 24<<30)
	if err != nil {
		t.Fatal(err)
	}
	common := func(a, b *SuiteResult) (x, y float64) {
		for qid, s1 := range a.PerQ {
			if s2, ok := b.PerQ[qid]; ok {
				x += s1
				y += s2
			}
		}
		return
	}
	hrA, hrB := common(hr4, hr12)
	gpA, gpB := common(gp4, gp12)
	hrSpeedup := hrA / hrB
	gpSpeedup := gpA / gpB
	t.Logf("speedup 8→32: hrdbms=%.2f greenplum=%.2f", hrSpeedup, gpSpeedup)
	if hrSpeedup <= gpSpeedup {
		t.Errorf("HRDBMS speedup (%.2f) should exceed Greenplum's (%.2f): bounded-degree shuffle", hrSpeedup, gpSpeedup)
	}
}

func TestPredCacheFootprintOutput(t *testing.T) {
	r, buf := tinyRunner(t)
	if err := r.PredCacheFootprint(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "MB") {
		t.Fatalf("footprint output: %s", out)
	}
}

func TestAblationsRun(t *testing.T) {
	r, buf := tinyRunner(t)
	if err := r.Ablations(6); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"shuffle topology", "data skipping", "materialization"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckExecRegressionDefaultsToBaseline: naming no queries gates every
// query of the baseline, so a regression in any of them fails the check.
func TestCheckExecRegressionDefaultsToBaseline(t *testing.T) {
	path := t.TempDir() + "/base.json"
	base := `[{"query":"q1","work_rows":100,"net_bytes":10},{"query":"q2","work_rows":100,"net_bytes":10}]`
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	stats := []QueryExecStat{{Query: "q1", WorkRows: 100, NetBytes: 10}, {Query: "q2", WorkRows: 200, NetBytes: 10}}
	if err := CheckExecRegression(stats, path, []string{"q1"}, 0.10); err != nil {
		t.Fatalf("q1 alone: %v", err)
	}
	if err := CheckExecRegression(stats, path, nil, 0.10); err == nil || !strings.Contains(err.Error(), "q2 work_rows 200") {
		t.Fatalf("every query: %v, want q2's regression", err)
	}
}
