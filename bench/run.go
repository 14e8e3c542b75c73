package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// config is one run of one workload.
type config struct {
	w         workload // already sized
	seed      int64
	trace     bool
	setupReps int    // set-ups per untraced run; setup_s is their median
	workRoot  string // scratch directory inside the checkout, removed afterwards
	traceOut  string // traced run: where the span dump goes ("" = nowhere)
}

// setupRepsDefault: set-up is repeated so setup_s is a median, not one draw.
const setupRepsDefault = 3

// result is what one run reports. The last line of standard output is the
// contract's four keys; the rest goes on the line before it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	info runInfo
}

// runInfo is the context a reader needs beside the metrics.
type runInfo struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	SF         float64            `json:"sf"`
	Passes     int                `json:"passes"`
	Clients    int                `json:"clients"`
	Samples    map[string]int     `json:"samples"`
	VerifyS    float64            `json:"verify_s"`
	Checks     int                `json:"verify_checks"`
	Mismatches []string           `json:"mismatches,omitempty"`
	Exact      map[string]float64 `json:"exact_counts,omitempty"`
	// An untraced run's times are reported × SpeedFactor (calib.go); divide
	// by it for the times as measured.
	SpeedFactor  float64   `json:"speed_factor,omitempty"`
	CalibMS      float64   `json:"calib_ms,omitempty"`
	CalibSamples int       `json:"calib_samples,omitempty"`
	Host         hostFacts `json:"host"`
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// run executes one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics), inside a fresh work directory that it removes.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workRoot)
	if cfg.trace {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

// timedPhase runs the workload's timed phase at the given pass count.
func timedPhase(e *env, passes int, rec *recorder, ref *refresher, waits *[]float64) error {
	inKernel := rec.calib.totalMS()
	switch e.w.Name {
	case "serve_short":
		if err := runServe(e, passes, rec, waits); err != nil {
			return err
		}
	case "refresh_mix":
		runRefresh(e, passes, rec, ref)
	default:
		runQueryPasses(e, passes, rec)
	}
	rec.wallS -= (rec.calib.totalMS() - inKernel) / 1000
	return nil
}

func clientsOf(w workload) int {
	if w.Name == "serve_short" {
		return serveClients()
	}
	return 1
}

func runUntraced(cfg config) (*result, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	// Set up cfg.setupReps times; keep the last cluster for the timed phase.
	var e *env
	var setupS []float64
	cal.sample()
	for i := 0; i < cfg.setupReps; i++ {
		if e != nil {
			e.close()
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
		}
		var err error
		e, err = setup(cfg.w, cfg.seed, filepath.Join(cfg.workRoot, fmt.Sprintf("cluster%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, e.setupS)
		cal.sample()
	}
	defer e.close()

	v, err := verifyBefore(e, cfg.workRoot)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	defer v.close()

	quiesce()
	cal.sample()
	rec := &recorder{calib: cal}
	ref := newRefresher(cfg.seed, e.base)
	if err := timedPhase(e, cfg.w.Passes, rec, ref, nil); err != nil {
		return nil, err
	}
	attempted, failed := rec.settle()

	if cfg.w.Name == "refresh_mix" {
		if err := v.verifyRefresh(e, cfg.w.Passes, ref); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	v.close()
	e.close() // flushes every dirty page, so the files are complete
	stored, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}

	// Latency and throughput are those of the read statements: a write
	// statement's wall time is mostly fsync waits, which on a shared disk
	// swing 2-3x for minutes (README.md, "write_ms is demoted"), so the
	// write path is timed per layer (txn.*) and not gated end to end.
	var selects, perKindMedian []float64
	var writeS float64
	samples := map[string]int{}
	for kind, ms := range rec.byKind() {
		perKindMedian = append(perKindMedian, median(ms))
		samples[kind] = len(ms)
		if isQuery(kind) {
			selects = append(selects, ms...)
		} else {
			writeS += sum(ms) / 1000
		}
	}
	reads := rec.halfMS(true)
	samples["setup"] = len(setupS)
	samples["read_pass"] = len(reads)
	f := cal.factor() // every time below is reported at the reference speed
	vals := map[string]float64{
		"setup_s":        median(setupS) * f,
		"pass_ms":        sum(perKindMedian) * f,
		"qps":            float64(len(selects)) / ((rec.wallS - writeS) * f),
		"latency_p50_ms": median(selects) * f,
		"latency_p95_ms": quantile(selects, 0.95) * f,
		"read_ms":        median(reads) * f,
		"space_amp":      float64(stored) / float64(v.loadedBytes+ref.appendedBytes),
		"peak_heap_mb":   float64(rec.peakHeap) / (1 << 20),
	}
	return &result{
		Correct:   failed == 0 && len(v.mismatches) == 0,
		Attempted: attempted + v.checks,
		Failed:    failed + len(v.mismatches),
		Metrics:   report(endToEnd, vals),
		info: runInfo{
			Workload: cfg.w.Name, Seed: cfg.seed, SF: cfg.w.SF, Passes: cfg.w.Passes,
			Clients: clientsOf(cfg.w), Samples: samples, VerifyS: v.seconds, Checks: v.checks,
			Mismatches: v.mismatches, Host: host(),
			SpeedFactor: f, CalibMS: median(cal.ms), CalibSamples: len(cal.ms),
		},
	}, nil
}
