package perfmodel

import (
	"testing"

	"repro/internal/cluster"
)

func baseMetrics() cluster.RunMetrics {
	return cluster.RunMetrics{
		WorkRows:    1_000_000,
		PagesRead:   1000,
		PageBytes:   1000 * 16 * 1024,
		NetBytes:    50 << 20,
		NetMessages: 10_000,
		Connections: 56,
		MaxDegree:   7,
		Exchanges:   3,
		ResultRows:  100,
	}
}

func TestMoreNodesFaster(t *testing.T) {
	prof := Systems(0)["hrdbms"]
	mo := Model{Prof: prof}
	m := baseMetrics()
	t8 := mo.Estimate(m, Scale{DataFactor: 1000, Nodes: 8, MeasuredWorkers: 8})
	t64 := mo.Estimate(m, Scale{DataFactor: 1000, Nodes: 64, MeasuredWorkers: 64})
	if t64.Seconds >= t8.Seconds {
		t.Errorf("64 nodes (%f) should beat 8 nodes (%f)", t64.Seconds, t8.Seconds)
	}
}

func TestSystemOrderingAtSmallCluster(t *testing.T) {
	m := baseMetrics()
	sc := Scale{DataFactor: 1000, Nodes: 8, MeasuredWorkers: 8}
	systems := Systems(0)
	est := func(name string, mm cluster.RunMetrics) float64 {
		mo := Model{Prof: systems[name]}
		return mo.Estimate(mm, sc).Seconds
	}
	// Hive's runs carry materialization + stage startup; model that in its
	// measured metrics too.
	hiveM := m
	hiveM.SpillBytes = m.NetBytes * 2
	hiveM.Exchanges = 6
	hr := est("hrdbms", m)
	gp := est("greenplum", m)
	spark := est("sparksql", hiveM)
	hive := est("hive", hiveM)
	if !(hive > spark && spark > hr) {
		t.Errorf("ordering hive(%f) > spark(%f) > hrdbms(%f) violated", hive, spark, hr)
	}
	// Greenplum is competitive at small clusters (its per-node engine is a
	// bit faster; connection costs are still small).
	if gp > hr*2 {
		t.Errorf("greenplum (%f) should be within 2x of hrdbms (%f) at 8 nodes", gp, hr)
	}
}

func TestConnectionCostGrowsWithDegree(t *testing.T) {
	gp := Model{Prof: Systems(0)["greenplum"]}
	m := baseMetrics()
	small := m
	small.MaxDegree = 7
	big := m
	big.MaxDegree = 95
	sc := Scale{DataFactor: 1000, Nodes: 96, MeasuredWorkers: 96}
	a := gp.Estimate(small, sc)
	b := gp.Estimate(big, sc)
	if b.ConnSec <= a.ConnSec {
		t.Errorf("degree 95 conn cost (%f) should exceed degree 7 (%f)", b.ConnSec, a.ConnSec)
	}
}

func TestOOMBehaviour(t *testing.T) {
	m := baseMetrics()
	// Operator state whose scaled per-node share exceeds 24 GB:
	// 64 MB × 3000 / 8 × StateFactor = 72 GB.
	m.StateBytes = 64 << 20
	sc := Scale{DataFactor: 3000, Nodes: 8, MeasuredWorkers: 8}
	gp := Model{Prof: Systems(0)["greenplum"]}
	hr := Model{Prof: Systems(0)["hrdbms"]}
	if est := gp.Estimate(m, sc); !est.OOM {
		t.Error("greenplum should OOM at 3TB/8 nodes working set")
	}
	est := hr.Estimate(m, sc)
	if est.OOM {
		t.Error("hrdbms must not OOM — it spills")
	}
	// And spilling must cost time.
	smaller := hr.Estimate(m, Scale{DataFactor: 100, Nodes: 8, MeasuredWorkers: 8})
	if est.Seconds/30 <= smaller.Seconds/1 {
		// 30x the data should cost more than 30x the small runtime when
		// spilling kicks in (superlinear).
		t.Logf("spill penalty: %f vs %f (informational)", est.Seconds, smaller.Seconds)
	}
}

func TestGCPressurePenalty(t *testing.T) {
	spark := Model{Prof: Systems(0)["sparksql"]}
	m := baseMetrics()
	// Same data, more nodes → per-node pressure drops → less GC penalty,
	// superlinear speedup (the paper's Spark-at-8-nodes artifact).
	m.StateBytes = 32 << 20 // ×StateFactor: per-node pressure high at 8 nodes
	t8 := spark.Estimate(m, Scale{DataFactor: 2000, Nodes: 8, MeasuredWorkers: 8})
	t16 := spark.Estimate(m, Scale{DataFactor: 2000, Nodes: 16, MeasuredWorkers: 16})
	if t8.OOM || t16.OOM {
		t.Skip("OOM at this size; pressure test not applicable")
	}
	if t8.Seconds/t16.Seconds <= 2.0 {
		t.Errorf("Spark speedup 8→16 = %.2f; GC pressure should make it superlinear (>2)",
			t8.Seconds/t16.Seconds)
	}
}

func TestClusterProfileToggles(t *testing.T) {
	hr := ClusterProfile("hrdbms")
	if !hr.HierarchicalShuffle || !hr.UseSkipCache || !hr.EnforceLocality {
		t.Error("hrdbms profile should enable its novel features")
	}
	gp := ClusterProfile("greenplum")
	if gp.HierarchicalShuffle || gp.UseSkipCache {
		t.Error("greenplum profile must not use HRDBMS's novel features")
	}
	if !gp.EnforceLocality {
		t.Error("greenplum is an MPP: locality enforced")
	}
	hive := ClusterProfile("hive")
	if !hive.BlockingShuffle || !hive.MaterializeShuffle || hive.EnforceLocality {
		t.Error("hive profile: blocking materialized shuffle, no locality")
	}
	spark := ClusterProfile("sparksql")
	if spark.BlockingShuffle || !spark.MaterializeShuffle {
		t.Error("spark profile: pipelined but materialized shuffle")
	}
}

func TestAllSystemsDefined(t *testing.T) {
	systems := Systems(0)
	for _, name := range []string{"hrdbms", "greenplum", "sparksql", "hive", "hive-tez", "spark2"} {
		p, ok := systems[name]
		if !ok {
			t.Fatalf("missing system %s", name)
		}
		if p.RowsPerSec <= 0 || p.DiskBW <= 0 || p.LinkBW <= 0 {
			t.Errorf("%s has zero coefficients", name)
		}
		if p.MemBytes != 24<<30 {
			t.Errorf("%s default memory = %v", name, p.MemBytes)
		}
	}
}
