// Command hrdbms-bench regenerates the paper's evaluation tables and
// figures (Section VII). Each experiment runs the TPC-H workload for real
// on an in-process cluster per system profile and cluster size, then maps
// measured quantities to simulated cluster-scale seconds.
//
// Usage:
//
//	hrdbms-bench -exp all                 # every experiment, paper order
//	hrdbms-bench -exp fig7                # scalability sweep
//	hrdbms-bench -exp fig8                # per-query vs Greenplum
//	hrdbms-bench -exp fig9                # Q18 scaling
//	hrdbms-bench -exp 3tb                 # the 3 TB memory-pressure run
//	hrdbms-bench -exp current             # current-versions table
//	hrdbms-bench -exp predcache           # predicate-cache footprint
//	hrdbms-bench -exp ablations           # design-choice ablations
//	hrdbms-bench -exp fig7 -sizes 8,16    # restrict the size sweep
//	hrdbms-bench -sf 0.002                # larger measured dataset
//	hrdbms-bench -exp exec -json BENCH_EXEC.json   # raw executed per-query stats
//	hrdbms-bench -exp exec -trace         # + per-operator span tree per query
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig7|fig8|fig9|3tb|current|predcache|ablations|exec")
	sf := flag.Float64("sf", 0.001, "measured scale factor")
	target := flag.Float64("target", 1000, "modeled scale factor (1000 = 1TB)")
	sizesFlag := flag.String("sizes", "", "comma-separated cluster sizes for fig7/fig9 (default paper sizes)")
	dir := flag.String("dir", "", "working directory (default: temp)")
	jsonOut := flag.String("json", "", "with -exp exec: write stats JSON to this file")
	trace := flag.Bool("trace", false, "with -exp exec: print the per-operator span tree of every query")
	baseline := flag.String("baseline", "", "with -exp exec: fail if work_rows/net_bytes of the -assert queries regress vs this JSON baseline")
	assert := flag.String("assert", "", "with -baseline: comma-separated queries to gate (default: every query in the baseline)")
	tol := flag.Float64("tol", 0.10, "with -baseline: allowed fractional growth before failing")
	flag.Parse()

	baseDir := *dir
	if baseDir == "" {
		var err error
		baseDir, err = os.MkdirTemp("", "hrdbms-bench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(baseDir)
	}
	r := experiments.NewRunner(os.Stdout, baseDir)
	r.SF = *sf
	r.TargetSF = *target

	var sizes []int
	if *sizesFlag != "" {
		for _, s := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad -sizes: %w", err))
			}
			sizes = append(sizes, n)
		}
	}

	var err error
	switch *exp {
	case "all":
		err = r.All()
	case "fig7":
		_, err = r.Fig7(nil, sizes)
	case "fig8":
		small, large := 8, 96
		if len(sizes) == 2 {
			small, large = sizes[0], sizes[1]
		}
		err = r.Fig8(small, large)
	case "fig9":
		err = r.Fig9(sizes)
	case "3tb":
		err = r.ThreeTB()
	case "current":
		err = r.CurrentVersions()
	case "predcache":
		err = r.PredCacheFootprint()
	case "ablations":
		n := 16
		if len(sizes) == 1 {
			n = sizes[0]
		}
		err = r.Ablations(n)
	case "exec":
		n := 4
		if len(sizes) == 1 {
			n = sizes[0]
		}
		var stats []experiments.QueryExecStat
		stats, err = r.ExecStats(n, *trace)
		if err == nil && *baseline != "" {
			var queries []string
			for _, q := range strings.Split(*assert, ",") {
				if q = strings.TrimSpace(q); q != "" {
					queries = append(queries, q)
				}
			}
			err = experiments.CheckExecRegression(stats, *baseline, queries, *tol)
		}
		if err == nil && *jsonOut != "" {
			var buf []byte
			buf, err = json.MarshalIndent(stats, "", "  ")
			if err == nil {
				err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
			}
			if err == nil {
				fmt.Printf("wrote %s\n", *jsonOut)
			}
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hrdbms-bench:", err)
	os.Exit(1)
}
