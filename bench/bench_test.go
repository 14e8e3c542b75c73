package main

import (
	"encoding/json"
	"flag"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and env.go")

// benchmarkJSON is the contract's file: exactly these keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonBounded  `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type jsonBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func declared() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonBounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonMetric{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables
// equal, and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want := declared()
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		buf, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the harness tables; run go test -run TestBenchmarkJSON -update")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("metric %q (unit %q) is outside the contract or repeated", n, u)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric it should move", d.Name)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("metric or workload counts outside the contract")
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q outside the contract", w.Name)
		}
	}
}

// TestImports is the import-surface guard: the benchmark reaches the system
// only through these packages, so execution protocols can be deleted
// (ROADMAP item 1) without breaking a benchmark nobody may edit. No exec
// constructors, vec, plan.Execute, experiments or perfmodel.
func TestImports(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"cluster", "core", "sqlparse", "tpch", "srv", "obs", "network", "page", "compress", "skipcache", "types"} {
		allowed["repro/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "repro/") && !allowed[path] {
				t.Errorf("%s imports %s, which is outside the benchmark's import surface", f, path)
			}
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, at SF0.002 with
// the minimum pass count, and checks that each run emits exactly the
// declared metrics with finite values and that the traced run is valid.
func TestSmoke(t *testing.T) {
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		t.Fatal(err)
	}
	probeFor = 2 * time.Millisecond
	for _, w := range workloads {
		w.SF, w.Passes = 0.002, 1
		for _, traced := range []bool{false, true} {
			start := time.Now()
			res, err := run(config{w: w, seed: 7, trace: traced, setupReps: 1,
				workRoot: filepath.Join(build, "test-"+w.Name)})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			t.Logf("%s traced=%v: %.1fs", w.Name, traced, time.Since(start).Seconds())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.info.Mismatches)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.Name, traced, d.Name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if traced {
				if c := res.Metrics["trace.coverage"].Value; c < 0.9 {
					t.Errorf("%s: trace.coverage %v < 0.9", w.Name, c)
				}
				if o := res.Metrics["trace.other_share"].Value; o >= 0.1 {
					t.Errorf("%s: trace.other_share %v >= 0.1", w.Name, o)
				}
			}
		}
	}
}

// TestCanonWholeFloat: a float sum that lands on a whole number prints
// without a point ("1500") while the same sum added in another order prints
// "1500.0000000002". Both must compare equal, as rows and as wire text.
func TestCanonWholeFloat(t *testing.T) {
	a := []types.Row{{types.NewString("A"), types.NewFloat(1500), types.NewInt(7)}}
	b := []types.Row{{types.NewString("A"), types.NewFloat(1500.0000000002), types.NewInt(7)}}
	if d := diffResult(canonRows(a), canonRows(b)); d != "" {
		t.Errorf("rows: %s", d)
	}
	if d := diffResult(canonLines([]string{a[0].String()}, floatColumns(b)), canonRows(b)); d != "" {
		t.Errorf("wire text against rows: %s", d)
	}
	c := []types.Row{{types.NewString("A"), types.NewFloat(1500.1), types.NewInt(7)}}
	if diffResult(canonRows(a), canonRows(c)) == "" {
		t.Errorf("1500 and 1500.1 compare equal")
	}
	n := []types.Row{{types.NewString("A"), types.NewFloat(1500), types.NewInt(8)}}
	if diffResult(canonRows(a), canonRows(n)) == "" {
		t.Errorf("integer columns 7 and 8 compare equal")
	}
}
