package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/tpch"
)

// verifier is the correctness cross-check: a second cluster with ONE worker
// loaded with the same rows must give the same result multiset for every
// statement of the workload. Its time is reported as verify_s, outside
// setup_s and the timed phase.
type verifier struct {
	c           *cluster.Cluster
	loadedBytes int64   // Data.TotalBytes() of the rows both clusters loaded
	acctbal     float64 // sum(c_acctbal) before any update
	checks      int
	mismatches  []string
	seconds     float64
}

func (v *verifier) check(ok bool, format string, args ...interface{}) {
	v.checks++
	if !ok {
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "bench: verify:", msg)
		v.mismatches = append(v.mismatches, msg)
	}
}

// compareReads runs the workload's queries on the reference and checks them
// against want (canonical lines per query id).
func (v *verifier) compareReads(e *env, want map[string][]resultRow, when string) error {
	queries := tpch.Queries()
	for _, q := range e.w.Queries {
		res, err := v.c.ExecSQL(queries[q])
		if err != nil {
			return fmt.Errorf("reference %s: %w", q, err)
		}
		d := diffResult(want[q], canonRows(res.Rows))
		v.check(d == "", "%s %s: 4-worker result differs from the 1-worker result: %s", q, when, d)
	}
	return nil
}

// verifyBefore builds the reference from a regenerated copy of the data
// (the main cluster's copy was dropped after its load) and compares the
// warm-up pass's results with it.
func verifyBefore(e *env, workRoot string) (*verifier, error) {
	start := time.Now()
	v := &verifier{}
	d := tpch.Generate(e.w.SF, e.seed)
	v.loadedBytes = d.TotalBytes()
	c, err := newCluster(filepath.Join(workRoot, "reference"), 1)
	if err != nil {
		return nil, err
	}
	v.c = c
	if err := loadAll(c, d); err != nil {
		v.close()
		return nil, err
	}
	if err := v.compareReads(e, e.first, "before timing"); err != nil {
		v.close()
		return nil, err
	}
	if e.w.Name == "refresh_mix" {
		if v.acctbal, err = scalar(e.c, "SELECT sum(c_acctbal) FROM customer"); err != nil {
			v.close()
			return nil, err
		}
	} else {
		v.close() // read-only workloads need the reference no longer
	}
	v.seconds = time.Since(start).Seconds()
	return v, nil
}

// verifyRefresh replays the same DML on the reference, then requires the
// same final reads on both clusters and the workload's three invariants on
// the main one.
func (v *verifier) verifyRefresh(e *env, cycles int, done *refresher) error {
	start := time.Now()
	defer func() { v.seconds += time.Since(start).Seconds() }()
	replay := newRefresher(e.seed, e.base)
	for cyc := 0; cyc < cycles; cyc++ {
		replay.writeHalf(v.c, cyc, func(kind string, _ float64, failed bool) {
			v.check(!failed, "reference %s in cycle %d failed", kind, cyc)
		})
	}
	final := map[string][]resultRow{}
	queries := tpch.Queries()
	for _, q := range e.w.Queries {
		res, err := e.c.ExecSQL(queries[q])
		if err != nil {
			return fmt.Errorf("final %s: %w", q, err)
		}
		final[q] = canonRows(res.Rows)
	}
	if err := v.compareReads(e, final, "after the refresh cycles"); err != nil {
		return err
	}
	for _, inv := range []struct {
		sql  string
		want float64
	}{
		{"SELECT count(*) FROM lineitem", float64(e.base.Lineitems + done.appendedLineitems)},
		{"SELECT sum(c_acctbal) FROM customer", v.acctbal + float64(done.updates)},
		{"SELECT count(*) FROM partsupp", float64(e.base.PartSupps)},
	} {
		got, err := scalar(e.c, inv.sql)
		if err != nil {
			return err
		}
		v.check(closeTo(got, inv.want), "%s = %v, want %v", inv.sql, got, inv.want)
	}
	return nil
}

func (v *verifier) close() {
	if v.c != nil {
		_ = v.c.Close()
		v.c = nil
	}
}
