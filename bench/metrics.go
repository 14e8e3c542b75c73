package main

import (
	"math"
	"sort"
)

// metricDef declares one metric: its name, unit and direction as they
// appear in BENCHMARK.json, plus (bound) the relative worsening that counts
// as a regression for an end-to-end metric, or (moves) the end-to-end metric
// and workload a per-layer metric is expected to move. bench_test.go keeps
// these tables and BENCHMARK.json equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd is what a user of the system sees. Every workload reports all
// eight, under one definition each (README.md spells out what the definition
// selects on each workload). The wall-time bounds are the widest the
// contract allows because the reference host's speed shifts by 15-30 % for
// minutes at a time (README.md, "Repeatability"); ISSUE 11 asked for 0.10.
// ISSUE 11's write_ms (wall time of a write half) is per-layer txn.write_ms:
// it is mostly fsync waits, which the shared disk stretches 2-3x at random,
// and the issue demotes a metric that cannot repeat.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pass_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

const (
	atScan    = "pass_ms @ scan_agg"
	atJoin    = "pass_ms @ join_shuffle"
	atServe   = "latency_p50_ms @ serve_short"
	atWrite   = "pass_ms @ refresh_mix"
	atSetup   = "setup_s @ all"
	atAnyPass = "pass_ms @ the workload that runs the query"
)

// perLayer is the per-layer budget, measured only by a traced run. Layer
// names are this repository's packages.
var perLayer = append([]metricDef{
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower", Moves: atServe},
	{Name: "opt.plan_us", Unit: "us", Better: "lower", Moves: atServe + "; qps @ serve_short"},

	{Name: "cluster.compile_us", Unit: "us", Better: "lower", Moves: atServe},
	{Name: "cluster.first_row_ms", Unit: "ms", Better: "lower", Moves: atServe},
	{Name: "cluster.drain_ms", Unit: "ms", Better: "lower", Moves: atServe},
	{Name: "cluster.exchanges", Unit: "count", Better: "lower", Moves: atJoin},
	{Name: "cluster.gather_share", Unit: "ratio", Better: "lower", Moves: atJoin},

	{Name: "exec.scan_share", Unit: "ratio", Better: "lower", Moves: atScan},
	{Name: "exec.filter_project_share", Unit: "ratio", Better: "lower", Moves: atScan},
	{Name: "exec.agg_share", Unit: "ratio", Better: "lower", Moves: atScan},
	{Name: "exec.join_share", Unit: "ratio", Better: "lower", Moves: atJoin},
	{Name: "exec.sort_share", Unit: "ratio", Better: "lower", Moves: atJoin},
	{Name: "exec.exchange_share", Unit: "ratio", Better: "lower", Moves: atJoin},
	{Name: "exec.work_rows", Unit: "count", Better: "lower", Moves: atJoin},
	{Name: "exec.state_bytes", Unit: "B", Better: "lower", Moves: "peak_heap_mb @ join_shuffle"},
	{Name: "exec.spill_bytes", Unit: "B", Better: "lower", Moves: atJoin},

	{Name: "probe.scan_count_ms", Unit: "ms", Better: "lower", Moves: atScan},
	{Name: "probe.filter_sum_ms", Unit: "ms", Better: "lower", Moves: atScan},
	{Name: "probe.agg_lowcard_ms", Unit: "ms", Better: "lower", Moves: atScan},
	{Name: "probe.agg_highcard_ms", Unit: "ms", Better: "lower", Moves: atScan},
	{Name: "probe.agg_shuffle_ms", Unit: "ms", Better: "lower", Moves: atJoin},
	{Name: "probe.join_copart_ms", Unit: "ms", Better: "lower", Moves: atJoin},
	{Name: "probe.join_shuffle_ms", Unit: "ms", Better: "lower", Moves: atJoin},
	{Name: "probe.join_broadcast_ms", Unit: "ms", Better: "lower", Moves: atJoin},
	{Name: "probe.topk_ms", Unit: "ms", Better: "lower", Moves: atJoin},
	{Name: "probe.sort_full_ms", Unit: "ms", Better: "lower", Moves: atJoin},
	{Name: "probe.gather_rows_ms", Unit: "ms", Better: "lower", Moves: atJoin},
	{Name: "probe.skip_cold_ms", Unit: "ms", Better: "lower", Moves: atScan},
	{Name: "probe.skip_warm_ms", Unit: "ms", Better: "lower", Moves: atScan + "; read_ms @ refresh_mix"},

	{Name: "page.decode_typed_pages", Unit: "count", Better: "higher", Moves: atScan},
	{Name: "page.decode_boxed_pages", Unit: "count", Better: "lower", Moves: atScan},
	{Name: "page.decode_int_mvals_per_s", Unit: "Mval/s", Better: "higher", Moves: atScan},
	{Name: "page.decode_float_mvals_per_s", Unit: "Mval/s", Better: "higher", Moves: atScan},
	{Name: "page.decode_str_mvals_per_s", Unit: "Mval/s", Better: "higher", Moves: atScan},

	{Name: "storage.scan_rows", Unit: "count", Better: "lower", Moves: atScan},
	{Name: "storage.load_s", Unit: "s", Better: "lower", Moves: atSetup},
	{Name: "storage.load_rows_per_s", Unit: "1/s", Better: "higher", Moves: atSetup},
	{Name: "storage.append_rows_per_s", Unit: "1/s", Better: "higher", Moves: atWrite},

	{Name: "buffer.pages_read", Unit: "count", Better: "lower", Moves: atScan},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher", Moves: atScan},
	{Name: "buffer.evictions", Unit: "count", Better: "lower", Moves: atScan},
	{Name: "buffer.disk_writes", Unit: "count", Better: "lower", Moves: atWrite + "; read_ms @ refresh_mix"},

	{Name: "skipcache.pages_skipped", Unit: "count", Better: "higher", Moves: atScan},
	{Name: "skipcache.skip_share", Unit: "ratio", Better: "higher", Moves: atScan + "; read_ms @ refresh_mix"},
	{Name: "skipcache.cold_pass_ms", Unit: "ms", Better: "lower", Moves: atSetup},
	{Name: "skipcache.canskip_ns", Unit: "ns", Better: "lower", Moves: atScan},
	{Name: "skipcache.record_ns", Unit: "ns", Better: "lower", Moves: atSetup},

	{Name: "network.net_bytes", Unit: "B", Better: "lower", Moves: atJoin},
	{Name: "network.net_messages", Unit: "count", Better: "lower", Moves: atJoin},
	{Name: "network.max_degree", Unit: "count", Better: "lower", Moves: atJoin},
	{Name: "network.fabric_mb_per_s", Unit: "MB/s", Better: "higher", Moves: atJoin},
	{Name: "network.fabric_msg_us", Unit: "us", Better: "lower", Moves: atJoin},
	{Name: "network.tcp_mb_per_s", Unit: "MB/s", Better: "higher", Moves: atJoin},
	{Name: "network.tcp_rtt_us", Unit: "us", Better: "lower", Moves: atJoin},

	{Name: "compress.lz4_encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: atSetup},
	{Name: "compress.lz4_decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: atScan},

	{Name: "srv.wire_rtt_us", Unit: "us", Better: "lower", Moves: atServe},
	{Name: "srv.admit_ns", Unit: "ns", Better: "lower", Moves: atServe},
	{Name: "srv.encode_us", Unit: "us", Better: "lower", Moves: atServe},
	{Name: "srv.queue_wait_p50_ms", Unit: "ms", Better: "lower", Moves: atServe},
	{Name: "srv.queue_wait_p95_ms", Unit: "ms", Better: "lower", Moves: "latency_p95_ms @ serve_short"},
	{Name: "srv.rejected", Unit: "count", Better: "lower", Moves: "qps @ serve_short"},
	{Name: "srv.latency_p99_ms", Unit: "ms", Better: "lower", Moves: "latency_p95_ms @ serve_short"},

	{Name: "txn.write_ms", Unit: "ms", Better: "lower", Moves: atWrite},
	{Name: "txn.update_ms", Unit: "ms", Better: "lower", Moves: atWrite},
	{Name: "txn.insert_ms", Unit: "ms", Better: "lower", Moves: atWrite},
	{Name: "txn.delete_ms", Unit: "ms", Better: "lower", Moves: atWrite},
	{Name: "wal.appends", Unit: "count", Better: "lower", Moves: atWrite},
	{Name: "wal.flushes", Unit: "count", Better: "lower", Moves: atWrite},
	{Name: "wal.flushes_per_write", Unit: "ratio", Better: "lower", Moves: atWrite},
	{Name: "twopc.commits", Unit: "count", Better: "higher", Moves: atWrite},
	{Name: "twopc.aborts", Unit: "count", Better: "lower", Moves: atWrite},

	{Name: "tpch.generate_s", Unit: "s", Better: "lower", Moves: atSetup},

	{Name: "host.cpu_s_per_pass", Unit: "s", Better: "lower", Moves: "pass_ms, qps @ all"},
	{Name: "host.cpu_util", Unit: "ratio", Better: "higher", Moves: "pass_ms, qps @ all"},
	{Name: "host.allocs_mb_per_pass", Unit: "MiB", Better: "lower", Moves: "peak_heap_mb @ all"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "latency_p95_ms @ serve_short"},
	{Name: "host.heap_mb_after", Unit: "MiB", Better: "lower", Moves: "peak_heap_mb @ all"},

	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Moves: "validity of the traced run"},
	{Name: "trace.other_share", Unit: "ratio", Better: "lower", Moves: "validity of the traced run"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Moves: "validity of the traced run"},
	{Name: "harness.verify_s", Unit: "s", Better: "lower", Moves: "none: the cross-check's own cost"},
}, queryMetricDefs()...)

// benchQueries is every TPC-H query some workload runs; a traced run
// reports 0 for the ones its workload does not.
var benchQueries = []string{"q1", "q2", "q3", "q5", "q6", "q7", "q9", "q11",
	"q12", "q14", "q16", "q18", "q19", "q20", "q21", "q22"}

func queryMetricDefs() []metricDef {
	var out []metricDef
	for _, q := range benchQueries {
		out = append(out, metricDef{Name: "query." + q + "_ms", Unit: "ms", Better: "lower", Moves: atAnyPass})
	}
	return out
}

// metricValue is one reported number; the JSON shape is the contract's.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report maps each declared metric to its measured value; a metric the run
// did not set reads 0, which per-layer metrics allow.
func report(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
