package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/compress"
	"repro/internal/network"
	"repro/internal/page"
	"repro/internal/skipcache"
	"repro/internal/srv"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Layer probes: short timed loops over one layer's public functions, and
// single-operator SQL statements through ExecSQL. They size a layer in
// isolation; the workloads say whether that size matters end to end.

// probeFor is how long each micro loop runs (the smoke test shortens it).
var probeFor = 40 * time.Millisecond

// perCall runs fn for about probeFor and returns nanoseconds per call.
func perCall(fn func()) float64 {
	fn() // warm
	n := 0
	start := time.Now()
	for time.Since(start) < probeFor {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// sqlProbes reach one operator each; operators are reached only this way
// and through the cursor CompileDistributed returns.
var sqlProbes = []struct{ name, sql string }{
	{"probe.scan_count_ms", `SELECT count(*) FROM lineitem`},
	{"probe.filter_sum_ms", `SELECT sum(l_extendedprice) FROM lineitem WHERE l_discount > 0.05`},
	{"probe.agg_lowcard_ms", `SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag`},
	{"probe.agg_highcard_ms", `SELECT count(*) FROM (SELECT l_orderkey, count(*) AS c FROM lineitem GROUP BY l_orderkey) AS t`},
	{"probe.agg_shuffle_ms", `SELECT count(*) FROM (SELECT l_partkey, count(*) AS c FROM lineitem GROUP BY l_partkey) AS t`},
	{"probe.join_copart_ms", `SELECT count(*) FROM customer, orders WHERE c_custkey = o_custkey`},
	{"probe.join_shuffle_ms", `SELECT count(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey`},
	{"probe.join_broadcast_ms", `SELECT count(*) FROM supplier, lineitem WHERE s_suppkey = l_suppkey`},
	{"probe.topk_ms", `SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10`},
	{"probe.sort_full_ms", `SELECT o_orderkey FROM orders ORDER BY o_totalprice`},
	{"probe.gather_rows_ms", `SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_quantity < 10`},
}

// skipProbe's predicate is on a column the table is not clustered by and
// that no workload query uses, so its first run finds the predicate cache
// cold and its later runs find it warm.
const skipProbe = `SELECT count(*) FROM lineitem WHERE l_extendedprice = 1234.5`

func probes(e *env, vals map[string]float64) error {
	timeSQL := func(sql string) (float64, error) {
		start := time.Now()
		_, err := e.c.ExecSQL(sql)
		return msSince(start), err
	}
	// twice runs sql once unmeasured and returns the mean of two more runs.
	twice := func(sql string) (float64, error) {
		var total float64
		for i := 0; i < 3; i++ {
			ms, err := timeSQL(sql)
			if err != nil {
				return 0, err
			}
			if i > 0 {
				total += ms
			}
		}
		return total / 2, nil
	}
	for _, p := range sqlProbes {
		ms, err := twice(p.sql)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		vals[p.name] = ms
	}
	cold, err := timeSQL(skipProbe)
	if err != nil {
		return fmt.Errorf("skip probe: %w", err)
	}
	vals["probe.skip_cold_ms"] = cold
	if vals["probe.skip_warm_ms"], err = twice(skipProbe); err != nil {
		return err
	}

	probePage(vals)
	probeCompress(e.seed, vals)
	probeSkipcache(vals)
	if err := probeNetwork(vals); err != nil {
		return err
	}
	return probeSrv(e, vals)
}

// fillPage appends gen(i) to a fresh 16 KiB column page until it is full.
func fillPage(gen func(i int) types.Value) page.ColumnPage {
	p := page.InitColumnPage(make([]byte, 16*1024))
	for i := 0; p.Append(gen(i)); i++ {
	}
	return p
}

// probePage times the typed batch decoders on full pages. Strings go
// through DecodeInto on a sealed (Huffman-packed) page: the typed string
// decoder needs a vec dictionary, which the benchmark may not import.
func probePage(vals map[string]float64) {
	mvals := func(p page.ColumnPage, ns float64) float64 { return float64(p.NumValues()) / ns * 1000 }

	ints := fillPage(func(i int) types.Value { return types.NewInt(int64(i * 7919)) })
	var i64 []int64
	vals["page.decode_int_mvals_per_s"] = mvals(ints, perCall(func() {
		i64, _ = ints.DecodeInt64s(types.KindInt, i64[:0], nil)
	}))

	floats := fillPage(func(i int) types.Value { return types.NewFloat(float64(i) * 1.25) })
	var f64 []float64
	vals["page.decode_float_mvals_per_s"] = mvals(floats, perCall(func() {
		f64, _ = floats.DecodeFloat64s(f64[:0], nil)
	}))

	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	strs := fillPage(func(i int) types.Value { return types.NewString(modes[i%len(modes)]) })
	strs.Seal()
	n := 0
	vals["page.decode_str_mvals_per_s"] = mvals(strs, perCall(func() {
		_ = strs.DecodeInto(func(v types.Value) bool { n += len(v.S); return true })
	}))
}

// probeCompress times LZ4 over encoded lineitem rows, the bytes the
// exchange codec and page files actually carry.
func probeCompress(seed int64, vals map[string]float64) {
	var src []byte
	for _, r := range tpch.Generate(0.001, seed).Lineitem {
		src = types.AppendRow(src, r)
	}
	var packed []byte
	mb := float64(len(src)) / 1e6
	vals["compress.lz4_encode_mb_per_s"] = mb / (perCall(func() { packed = compress.CompressLZ4(src) }) / 1e9)
	vals["compress.lz4_decode_mb_per_s"] = mb / (perCall(func() { _, _ = compress.DecompressLZ4(packed, len(src)) }) / 1e9)
}

func probeSkipcache(vals map[string]float64) {
	conj := skipcache.Conj{
		{Col: "l_shipdate", Op: skipcache.OpGe, Val: types.MustDate("1994-01-01")},
		{Col: "l_shipdate", Op: skipcache.OpLt, Val: types.MustDate("1995-01-01")},
		{Col: "l_discount", Op: skipcache.OpGe, Val: types.NewFloat(0.05)},
	}
	cache := skipcache.NewCache(64) // the per-page bound the storage layer uses
	next := uint32(0)
	vals["skipcache.record_ns"] = perCall(func() {
		cache.Record(page.Key{File: 1, Page: next}, conj)
		next++
	})
	at := uint32(0)
	vals["skipcache.canskip_ns"] = perCall(func() {
		cache.CanSkip(page.Key{File: 1, Page: at % next}, conj)
		at++
	})
}

// pump measures an endpoint pair: one-way throughput with 64 KiB payloads
// and the round trip of a small message (reported per message, i.e. halved).
func pump(a, b network.Endpoint) (mbPerS, msgUS float64, err error) {
	const n, size = 256, 64 << 10
	payload := make([]byte, size)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := b.Recv("bulk"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send(b.NodeID(), b.NodeID(), "bulk", payload); err != nil {
			return 0, 0, err
		}
	}
	if err := <-done; err != nil {
		return 0, 0, err
	}
	mbPerS = float64(n*size) / 1e6 / time.Since(start).Seconds()

	const pings = 500
	go func() {
		for i := 0; i < pings; i++ {
			if _, err := b.Recv("ping"); err != nil {
				done <- err
				return
			}
			if err := b.Send(a.NodeID(), a.NodeID(), "pong", payload[:64]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	start = time.Now()
	for i := 0; i < pings; i++ {
		if err := a.Send(b.NodeID(), b.NodeID(), "ping", payload[:64]); err != nil {
			return 0, 0, err
		}
		if _, err := a.Recv("pong"); err != nil {
			return 0, 0, err
		}
	}
	msgUS = float64(time.Since(start).Microseconds()) / pings / 2
	return mbPerS, msgUS, <-done
}

func probeNetwork(vals map[string]float64) error {
	f := network.NewFabric([]int{0, 1}, 0)
	defer f.CloseAll()
	a, err := f.Endpoint(0)
	if err != nil {
		return err
	}
	b, err := f.Endpoint(1)
	if err != nil {
		return err
	}
	if vals["network.fabric_mb_per_s"], vals["network.fabric_msg_us"], err = pump(a, b); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}

	peers := map[int]string{}
	ta, err := network.NewTCPEndpoint(0, "127.0.0.1:0", peers)
	if err != nil {
		return err
	}
	defer ta.Close()
	tb, err := network.NewTCPEndpoint(1, "127.0.0.1:0", peers)
	if err != nil {
		return err
	}
	defer tb.Close()
	peers[0], peers[1] = ta.Addr(), tb.Addr()
	var rtt float64
	if vals["network.tcp_mb_per_s"], rtt, err = pump(ta, tb); err != nil {
		return fmt.Errorf("tcp: %w", err)
	}
	vals["network.tcp_rtt_us"] = rtt * 2
	return nil
}

// probeSrv sizes the serving layer without the engine: a SHOW SESSIONS
// round trip is wire + session only, and Admit/Release is the scheduler's
// uncontended cost.
func probeSrv(e *env, vals map[string]float64) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s := srv.New(e.c, srv.Config{}, nil)
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	defer func() {
		_ = s.Shutdown()
		<-served
	}()
	c, err := dialWire(l.Addr().String())
	if err != nil {
		return err
	}
	defer c.conn.Close()
	var rtErr error
	vals["srv.wire_rtt_us"] = perCall(func() {
		if _, err := c.roundTrip("SHOW SESSIONS"); err != nil {
			rtErr = err
		}
	}) / 1000
	if rtErr != nil {
		return rtErr
	}
	adm := srv.NewAdmission(srv.AdmissionConfig{}, nil)
	vals["srv.admit_ns"] = perCall(func() {
		if g, err := adm.Admit(1); err == nil {
			adm.Release(g)
		}
	})
	return nil
}
