// Package core is HRDBMS's public embedding API: open a cluster, execute
// SQL, load data, inspect plans. It wraps the cluster layer with the small
// surface a downstream application needs; examples/ and cmd/ build on it.
package core

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/external"
	"repro/internal/obs"
	"repro/internal/types"
)

// Config sizes a database instance. Zero values select sensible defaults.
type Config struct {
	// Workers is the number of worker nodes (default 4).
	Workers int
	// Coordinators is the number of coordinator nodes (default 1).
	Coordinators int
	// DisksPerWorker spreads each worker's data over this many directories
	// (default 2).
	DisksPerWorker int
	// Dir is the on-disk location for data, WALs, and spill files.
	Dir string
	// PageSize in bytes (default 32 KiB; the paper supports up to 64 MiB).
	PageSize int
	// Nmax is the communication neighbor limit enforced by the tree and
	// binomial-graph topologies (default 4).
	Nmax int
	// MemRows is the per-operator row budget before spilling.
	MemRows int
	// LockTimeout bounds lock waits (cross-node deadlock prevention).
	LockTimeout time.Duration
	// Profile toggles execution strategies; defaults to the full HRDBMS
	// feature set. Baseline profiles are available via the baseline and
	// perfmodel packages.
	Profile *cluster.ExecProfile
	// TraceQueries records a per-operator trace of every query, retained
	// for the /debug/queries endpoint. EXPLAIN ANALYZE traces its own
	// query regardless.
	TraceQueries bool
}

// DB is an open HRDBMS instance.
type DB struct {
	cluster *cluster.Cluster
}

// Result is the outcome of one statement.
type Result = cluster.Result

// Open starts a database instance.
func Open(cfg Config) (*DB, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("core: Config.Dir is required")
	}
	prof := cluster.HRDBMSProfile()
	if cfg.Profile != nil {
		prof = *cfg.Profile
	}
	c, err := cluster.New(cluster.Config{
		NumWorkers:      cfg.Workers,
		NumCoordinators: cfg.Coordinators,
		DisksPerWorker:  cfg.DisksPerWorker,
		PageSize:        cfg.PageSize,
		BaseDir:         cfg.Dir,
		Nmax:            cfg.Nmax,
		MemRows:         cfg.MemRows,
		LockTimeout:     cfg.LockTimeout,
		Profile:         prof,
		TraceQueries:    cfg.TraceQueries,
	})
	if err != nil {
		return nil, err
	}
	return &DB{cluster: c}, nil
}

// Exec runs any SQL statement (DDL, DML, SELECT, EXPLAIN, ANALYZE).
func (db *DB) Exec(sql string) (*Result, error) {
	return db.cluster.ExecSQL(sql)
}

// Query runs a SELECT and returns its rows.
func (db *DB) Query(sql string) ([]types.Row, types.Schema, error) {
	res, err := db.cluster.ExecSQL(sql)
	if err != nil {
		return nil, types.Schema{}, err
	}
	return res.Rows, res.Schema, nil
}

// Explain returns the optimized logical plan as text.
func (db *DB) Explain(sql string) (string, error) {
	res, err := db.cluster.ExecSQL("EXPLAIN " + sql)
	if err != nil {
		return "", err
	}
	var out string
	for _, r := range res.Rows {
		out += r[0].Str() + "\n"
	}
	return out, nil
}

// Load bulk-loads rows into a table, partitioning across workers.
func (db *DB) Load(table string, rows []types.Row) (int, error) {
	return db.cluster.Load(table, rows)
}

// Catalog exposes the metadata store (read-mostly).
func (db *DB) Catalog() *catalog.Catalog { return db.cluster.Catalog() }

// RegisterExternal registers a user-defined external table (UET) so scans
// of its partitions are distributed across workers.
func (db *DB) RegisterExternal(t external.Table) error {
	return db.cluster.External.Register(t)
}

// QueryExternal scans an external table with partitions distributed over
// workers, applying an optional WHERE clause.
func (db *DB) QueryExternal(name, where string) ([]types.Row, error) {
	return db.cluster.QueryExternal(name, where)
}

// Cluster exposes the underlying cluster for benchmarks and experiments.
func (db *DB) Cluster() *cluster.Cluster { return db.cluster }

// Registry exposes the instance's metrics registry (the /metrics source).
func (db *DB) Registry() *obs.Registry { return db.cluster.Reg }

// Traces exposes the recent-query trace store (the /debug/queries source).
func (db *DB) Traces() *obs.TraceStore { return db.cluster.Traces }

// Close shuts the instance down cleanly.
func (db *DB) Close() error { return db.cluster.Close() }
