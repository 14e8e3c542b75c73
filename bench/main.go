// Command bench is the repository's one wall-clock benchmark (ISSUE 11):
// four workloads, eight end-to-end metrics, and a per-layer budget from a
// separate traced run. It drives the system only through its public
// functions and times those calls from outside. See README.md.
//
//	bash bench/run.sh --workload scan_agg --seed 42 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "scan_agg | join_shuffle | serve_short | refresh_mix (with -repeat: empty = all)")
	seed := flag.Int64("seed", 42, "seeds the generated data, query order and DML keys")
	seconds := flag.Int("seconds", runSeconds, "nominal length of the timed phase; fixes the operation counts")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	repeat := flag.Int("repeat", 0, "run the untraced set this many times and check repeatability against the bounds")
	traceOut := flag.String("trace-out", "", "traced run: write the span dump here (default .bench_build/trace-<workload>.json)")
	flag.Parse()

	if err := realMain(*name, *seed, *seconds, *trace != 0, *repeat, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds int, trace bool, repeat int, traceOut string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	cfgFor := func(w workload) config {
		return config{
			w: w.sized(seconds), seed: seed, trace: trace, setupReps: setupRepsDefault,
			workRoot: filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid())),
		}
	}
	if repeat > 0 {
		set := workloads
		if name != "" {
			w, ok := workloadByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			set = []workload{w}
		}
		return repeatability(set, repeat, cfgFor)
	}
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := cfgFor(w)
	if trace {
		cfg.traceOut = traceOut
		if cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(build, "trace-"+w.Name+".json")
		}
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", info, last)
	return nil
}

// repeatability runs the untraced set k times, alternating the workload
// order, and prints per workload and end-to-end metric the median, the
// quartiles and the largest relative difference between runs beside the
// metric's bound. It fails when a difference exceeds its bound or an
// operation failed.
func repeatability(set []workload, k int, cfgFor func(workload) config) error {
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	failed := 0
	for round := 0; round < k; round++ {
		for i := range set {
			w := set[i]
			if round%2 == 1 {
				w = set[len(set)-1-i]
			}
			cfg := cfgFor(w)
			cfg.trace = false
			res, err := run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			failed += res.Failed
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[w.Name][m] = append(values[w.Name][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "round %d %s done (failed %d)\n", round+1, w.Name, res.Failed)
		}
	}
	h := host()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s; %d runs per workload\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, k)
	fmt.Printf("%-13s %-15s %-6s %12s %12s %12s %9s %6s\n", "workload", "metric", "unit", "q1", "median", "q3", "max diff", "bound")
	over := 0
	for _, w := range set {
		for _, d := range endToEnd {
			xs := values[w.Name][d.Name]
			med := median(xs)
			diff := (quantile(xs, 1) - quantile(xs, 0)) / med
			mark := ""
			if diff > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-13s %-15s %-6s %12.4f %12.4f %12.4f %9.4f %6.2f%s\n",
				w.Name, d.Name, d.Unit, quantile(xs, 0.25), med, quantile(xs, 0.75), diff, d.Bound, mark)
		}
	}
	if over > 0 || failed > 0 {
		return fmt.Errorf("%d metric(s) differ by more than their bound, %d failed operation(s)", over, failed)
	}
	return nil
}
