// Package cluster wires HRDBMS's pieces into a running database: a set of
// coordinator nodes (metadata, query planning, XA management) and worker
// nodes (storage, execution, locking, logging), connected by the network
// fabric. Queries are planned on a coordinator, converted into per-worker
// dataflows (the paper's phases 2 and 3: fragment-local scans, operator
// push-down to workers, shuffle insertion and elimination, pre-aggregation
// splitting, topology enforcement), executed across the workers, and the
// results routed back through the coordinator.
//
// The cluster runs in one process — each node is a set of goroutines behind
// a network.Endpoint — which is the substitution this reproduction makes
// for the paper's 96-node deployment; all communication is metered so the
// performance model can reconstruct cluster-scale timing.
package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/external"
	"repro/internal/index"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/twopc"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// ExecProfile toggles the execution strategies that distinguish HRDBMS
// from the paper's comparison systems; the baseline package instantiates
// Hive/Spark/Greenplum-like profiles from these switches.
type ExecProfile struct {
	// HierarchicalShuffle routes shuffles over the binomial-graph ring
	// (bounded per-node connections); off = direct O(n) connections.
	HierarchicalShuffle bool
	// BlockingShuffle materializes (and sorts) each node's shuffle input
	// before any row is sent — the MapReduce shuffle model.
	BlockingShuffle bool
	// MaterializeShuffle spills received shuffle data to disk before the
	// consumer reads it (Hive always; Spark by default).
	MaterializeShuffle bool
	// UseSkipCache enables predicate-based data skipping.
	UseSkipCache bool
	// UseMinMax enables min-max (SMA) skipping.
	UseMinMax bool
	// EnforceLocality lets the planner use partitioning for co-located
	// joins and aggregations; off = always shuffle (no locality control).
	EnforceLocality bool
	// PreAggTree allows splitting aggregations into worker-side partials
	// merged over the tree topology.
	PreAggTree bool
	// Parallelism is the degree scans (morsel workers), hash-aggregate
	// builds (partitioned tables), sorts (run generation) and join probes
	// each request, granted from the node's shared budget
	// (exec.Ctx.AcquireWorkers). 0/1 = serial.
	Parallelism int
}

// HRDBMSProfile is the paper's system: everything on.
func HRDBMSProfile() ExecProfile {
	return ExecProfile{
		HierarchicalShuffle: true,
		UseSkipCache:        true,
		UseMinMax:           true,
		EnforceLocality:     true,
		PreAggTree:          true,
		Parallelism:         4,
	}
}

// Config sizes a cluster.
type Config struct {
	NumWorkers      int
	NumCoordinators int
	DisksPerWorker  int
	PageSize        int
	BaseDir         string
	Nmax            int // neighbor limit for tree and ring topologies
	MemRows         int // per-operator memory budget (rows)
	BatchRows       int // rows per slab on the vectorized path (0 = defaults)
	// MailboxCap bounds a fabric mailbox: how many messages a sender may
	// queue on one channel ahead of its reader (0 = 1024). A mailbox's
	// memory follows the messages it holds, not this bound.
	MailboxCap int
	// ParallelBudget is the per-worker pool of extra operator threads that
	// exec.Ctx.AcquireWorkers grants from. 0 derives it from the host CPU
	// count; a negative value pins the budget to zero (all operators serial
	// beyond their free first degree). Explicit values let benchmarks and
	// sweeps fix the degree independent of the machine they run on.
	ParallelBudget int
	LockTimeout    time.Duration
	Profile        ExecProfile
	// TraceQueries records a per-operator trace for every query run through
	// a Session (retained in Traces for /debug/queries). EXPLAIN ANALYZE
	// traces its own query regardless of this setting.
	TraceQueries bool
}

// Worker is one worker node.
type Worker struct {
	ID    int
	Store *storage.NodeStore
	Log   *wal.Log
	Txn   *txn.Manager
	Part  *twopc.Participant
	Ep    network.Endpoint

	frags    map[string]*storage.Fragment
	colFrags map[string]*storage.ColumnarFragment
	btreeIdx map[string]*index.BTree
	execCtx  *exec.Ctx
}

// CoordinatorNode is one coordinator.
type CoordinatorNode struct {
	ID  int
	Ep  network.Endpoint
	Cat *catalog.Catalog
	XA  *twopc.Coordinator
	Log *wal.Log
}

// Cluster is a running HRDBMS deployment.
type Cluster struct {
	Cfg      Config
	Fabric   *network.Fabric
	Workers  []*Worker
	Coords   []*CoordinatorNode
	External *external.Registry
	// Reg is the cluster's metrics registry: every subsystem's counters are
	// published into it at New time and read live at snapshot time.
	Reg *obs.Registry
	// Traces retains recent query traces for /debug/queries.
	Traces *obs.TraceStore

	// loadStats holds one streaming statistics builder per table so
	// successive Load batches accumulate into one distribution instead of
	// each batch replacing the last. ANALYZE swaps in a fresh builder.
	statsMu   sync.Mutex
	loadStats map[string]*catalog.StatsBuilder

	querySeq atomic.Uint64
	coordSeq atomic.Uint64
	txSeq    atomic.Uint64
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.NumWorkers < 1 {
		return nil, fmt.Errorf("cluster: need at least one worker")
	}
	if cfg.NumCoordinators < 1 {
		cfg.NumCoordinators = 1
	}
	if cfg.DisksPerWorker < 1 {
		cfg.DisksPerWorker = 2
	}
	if cfg.Nmax < 2 {
		cfg.Nmax = 4
	}
	if cfg.MemRows == 0 {
		cfg.MemRows = 1 << 20
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = 2 * time.Second
	}
	// Node IDs: coordinators 0..C-1, workers C..C+W-1.
	var ids []int
	for i := 0; i < cfg.NumCoordinators+cfg.NumWorkers; i++ {
		ids = append(ids, i)
	}
	c := &Cluster{
		Cfg:       cfg,
		Fabric:    network.NewFabric(ids, cfg.MailboxCap),
		External:  external.NewRegistry(),
		Reg:       obs.NewRegistry(),
		Traces:    obs.NewTraceStore(64),
		loadStats: map[string]*catalog.StatsBuilder{},
	}
	c.txSeq.Store(1)

	sharedCat := catalog.New()
	for i := 0; i < cfg.NumCoordinators; i++ {
		ep, err := c.Fabric.Endpoint(i)
		if err != nil {
			return nil, err
		}
		xalog, err := wal.Open(filepath.Join(cfg.BaseDir, fmt.Sprintf("coord%d.xa.log", i)))
		if err != nil {
			return nil, err
		}
		cat := sharedCat
		if i > 0 {
			// Each coordinator holds its own replica of the metadata; DDL
			// synchronizes them (Section VI).
			cat = sharedCat.Snapshot()
		}
		xa, err := twopc.NewCoordinator(ep, xalog, cfg.Nmax)
		if err != nil {
			return nil, fmt.Errorf("cluster: coordinator %d XA log replay: %w", i, err)
		}
		xa.Release = c.Fabric.ReleasePrefix
		cn := &CoordinatorNode{
			ID:  i,
			Ep:  ep,
			Cat: cat,
			XA:  xa,
		}
		cn.XA.Serve()
		c.Coords = append(c.Coords, cn)
	}
	for i := 0; i < cfg.NumWorkers; i++ {
		nodeID := cfg.NumCoordinators + i
		ep, err := c.Fabric.Endpoint(nodeID)
		if err != nil {
			return nil, err
		}
		log, err := wal.Open(filepath.Join(cfg.BaseDir, fmt.Sprintf("worker%d.wal", nodeID)))
		if err != nil {
			return nil, err
		}
		ns, err := storage.NewNodeStore(storage.NodeConfig{
			NodeID:    nodeID,
			BaseDir:   cfg.BaseDir,
			NumDisks:  cfg.DisksPerWorker,
			PageSize:  cfg.PageSize,
			BufFrames: 512,
			FlushHook: log.FlushUpTo,
		})
		if err != nil {
			return nil, err
		}
		mgr := txn.NewManager(log, txn.NewLockManager(cfg.LockTimeout), ns.Buf)
		part := twopc.NewParticipant(ep, mgr)
		part.Serve()
		w := &Worker{
			ID: nodeID, Store: ns, Log: log, Txn: mgr, Part: part, Ep: ep,
			frags:    map[string]*storage.Fragment{},
			colFrags: map[string]*storage.ColumnarFragment{},
			btreeIdx: map[string]*index.BTree{},
			execCtx:  exec.NewCtx(filepath.Join(cfg.BaseDir, fmt.Sprintf("tmp%d", nodeID)), cfg.MemRows),
		}
		w.execCtx.BatchRows = cfg.BatchRows
		// Worker-local resource management: a node-wide cap on extra
		// operator threads; concurrent queries share it and operators
		// degrade to fewer threads under load (Section I).
		budget := cfg.ParallelBudget
		if budget == 0 {
			budget = 2 * runtime.NumCPU() / cfg.NumWorkers
		}
		w.execCtx.SetParallelBudget(budget) // negative clamps to zero
		if err := ensureDir(w.execCtx.TempDir); err != nil {
			return nil, err
		}
		c.Workers = append(c.Workers, w)
	}
	registerClusterMetrics(c)
	return c, nil
}

func ensureDir(dir string) error {
	return os.MkdirAll(dir, 0o755)
}

// Catalog returns the primary coordinator's catalog.
func (c *Cluster) Catalog() *catalog.Catalog { return c.Coords[0].Cat }

// WorkerIDs returns all worker node IDs.
func (c *Cluster) WorkerIDs() []int {
	out := make([]int, len(c.Workers))
	for i, w := range c.Workers {
		out[i] = w.ID
	}
	return out
}

// CreateTable registers a table on every coordinator replica and opens its
// fragments on every worker. Metadata changes apply to all coordinators
// (the paper's coordinator metadata synchronization).
func (c *Cluster) CreateTable(def *catalog.TableDef) error {
	if def.PageSize == 0 {
		def.PageSize = c.Cfg.PageSize
	}
	for _, cn := range c.Coords {
		if err := cn.Cat.CreateTable(def); err != nil {
			return err
		}
	}
	for _, w := range c.Workers {
		if def.Columnar {
			fr, err := storage.OpenColumnarFragment(w.Store, def)
			if err != nil {
				return err
			}
			w.colFrags[def.Name] = fr
		} else {
			fr, err := storage.OpenFragment(w.Store, def)
			if err != nil {
				return err
			}
			w.frags[def.Name] = fr
		}
	}
	return nil
}

// Load bulk-loads rows into a table, partitioning them across workers per
// the table's strategy (hash, range, or replicated). Every value passes the
// check INSERT's and UPDATE's do (coerceToColumn) before it is placed or
// counted in the statistics. A columnar fragment keeps its partial tail sets
// open for the next Load (Close writes them).
func (c *Cluster) Load(table string, rows []types.Row) (int, error) {
	def, err := c.Catalog().Table(table)
	if err != nil {
		return 0, err
	}
	if rows, err = coerceRows(rows, def.Schema); err != nil {
		return 0, err
	}
	perWorker := make([][]types.Row, len(c.Workers))
	for _, r := range rows {
		nodes, err := def.NodeFor(r, len(c.Workers))
		if err != nil {
			return 0, err
		}
		for _, n := range nodes {
			perWorker[n] = append(perWorker[n], r)
		}
	}
	total := 0
	for wi, wRows := range perWorker {
		w := c.Workers[wi]
		if def.Columnar {
			n, err := w.colFrags[def.Name].Load(wRows)
			if err != nil {
				return total, err
			}
			total += n
		} else {
			n, err := w.frags[def.Name].Load(wRows)
			if err != nil {
				return total, err
			}
			total += n
		}
	}
	// Refresh statistics incrementally: each batch streams into the
	// table's persistent builder, so multi-batch loads see the whole
	// distribution (histogram from a reservoir, NDV from a sketch) without
	// the catalog ever holding the loaded rows.
	c.statsMu.Lock()
	sb := c.loadStats[def.Name]
	if sb == nil {
		sb = catalog.NewStatsBuilder(def.Schema)
		c.loadStats[def.Name] = sb
	}
	for _, r := range rows {
		sb.Add(r)
	}
	c.publishStats(def.Name, sb.Finish())
	c.statsMu.Unlock()
	if def.Part.Kind == catalog.PartReplicated {
		return total / len(c.Workers), nil
	}
	return total, nil
}

// publishStats gives every coordinator's catalog a table's statistics.
// Called under statsMu, so that of two Loads of one table the one that
// finished its builder last publishes last.
func (c *Cluster) publishStats(table string, stats *catalog.TableStats) {
	for _, cn := range c.Coords {
		cn.Cat.SetStats(table, stats)
	}
}

// coerceRows passes every value of rows through coerceToColumn. A row with a
// value to convert is copied, into a copy of the slice: the caller's rows
// stay as they were.
func coerceRows(rows []types.Row, sch types.Schema) ([]types.Row, error) {
	out, copied := rows, false
	for i, r := range rows {
		if len(r) != sch.Len() {
			return nil, fmt.Errorf("cluster: row arity %d != %d columns", len(r), sch.Len())
		}
		owned := false
		for j := range r {
			// coerceToColumn's first case, inline: a bulk load passes
			// millions of values, nearly all of their column's kind.
			if k := r[j].K; k == sch.Cols[j].Kind || k == types.KindNull {
				continue
			}
			cv, err := coerceToColumn(r[j], sch.Cols[j])
			if err != nil {
				return nil, err
			}
			if !copied {
				out, copied = append([]types.Row(nil), rows...), true
			}
			if !owned {
				out[i], owned = append(types.Row(nil), r...), true
			}
			out[i][j] = cv
		}
	}
	return out, nil
}

// Close shuts the cluster down, persisting predicate caches for reload at
// the next start and writing every columnar fragment's open sets, which
// Loads leave in memory, before the buffers are written back.
func (c *Cluster) Close() error {
	c.Traces.Close()
	c.Fabric.CloseAll()
	var firstErr error
	for _, w := range c.Workers {
		for _, fr := range w.frags {
			if err := fr.PersistPredCache(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, fr := range w.colFrags {
			if err := fr.Flush(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := w.Store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := w.Log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := w.Txn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := w.Part.Err(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: worker %d 2PC participant: %w", w.ID, err)
		}
	}
	for _, cn := range c.Coords {
		if cn.XA.XALog != nil {
			if err := cn.XA.XALog.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
