package cluster

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/opt"
	"repro/internal/page"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/types"
)

// Result is the outcome of one SQL statement.
type Result struct {
	Schema  types.Schema
	Rows    []types.Row
	Message string
}

// ExecSQL parses and executes one SQL statement against the cluster. Reads
// are planned by the coordinator's optimizer and executed across the
// workers; DML runs under a distributed transaction committed with
// hierarchical 2PC; DDL synchronizes coordinator metadata replicas.
func (c *Cluster) ExecSQL(sql string) (*Result, error) {
	return c.ExecSQLOpts(sql, nil)
}

// ExecSQLOpts executes one SQL statement with the serving layer's
// per-query controls (kill switch, batch sizing, parallelism clamp,
// admission annotation) threaded through read execution. A nil opts is
// exactly ExecSQL.
func (c *Cluster) ExecSQLOpts(sql string, opts *QueryOptions) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return c.execStmt(stmt, sql, opts)
}

// Prepared is a parsed statement a session holds for repeated execution:
// parse once, execute many times, each run with fresh per-query controls.
type Prepared struct {
	stmt sqlparse.Stmt
	sql  string
}

// Prepare parses a statement for later execution via ExecPrepared.
func (c *Cluster) Prepare(sql string) (*Prepared, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Prepared{stmt: stmt, sql: sql}, nil
}

// ExecPrepared executes a previously prepared statement, skipping the parse.
func (c *Cluster) ExecPrepared(p *Prepared, opts *QueryOptions) (*Result, error) {
	return c.execStmt(p.stmt, p.sql, opts)
}

// execStmt dispatches one parsed statement. Reads honor opts; DML/DDL run
// to completion once started (killing them mid-2PC would trade a clean
// rollback path for torn global transactions), so opts only gates their
// start.
func (c *Cluster) execStmt(stmt sqlparse.Stmt, sql string, opts *QueryOptions) (*Result, error) {
	if opts != nil && opts.Cancel != nil {
		if err := opts.Cancel.Err(); err != nil {
			return nil, err
		}
	}
	switch x := stmt.(type) {
	case *sqlparse.Select:
		return c.runSelect(x, sql, opts)
	case *sqlparse.Explain:
		if x.Analyze {
			return c.explainAnalyze(x.Query, sql)
		}
		return c.explain(x.Query)
	case *sqlparse.CreateTable:
		return c.createTableStmt(x)
	case *sqlparse.DropTable:
		indexes := c.Catalog().IndexesOn(x.Name)
		for _, cn := range c.Coords {
			if err := cn.Cat.DropTable(x.Name); err != nil {
				return nil, err
			}
		}
		for _, w := range c.Workers {
			delete(w.frags, x.Name)
			delete(w.colFrags, x.Name)
			for _, idx := range indexes {
				delete(w.btreeIdx, idx.Name)
			}
		}
		return &Result{Message: fmt.Sprintf("table %s dropped", x.Name)}, nil
	case *sqlparse.CreateIndex:
		return c.createIndexStmt(x)
	case *sqlparse.Insert:
		return c.insertStmt(x)
	case *sqlparse.Delete:
		return c.deleteStmt(x)
	case *sqlparse.Update:
		return c.updateStmt(x)
	case *sqlparse.Analyze:
		return c.analyzeStmt(x)
	case *sqlparse.Reorganize:
		return c.reorganizeStmt(x)
	default:
		return nil, fmt.Errorf("cluster: unsupported statement %T", stmt)
	}
}

// Plan builds and optimizes the logical plan for a SELECT.
func (c *Cluster) Plan(sel *sqlparse.Select) (plan.Node, error) {
	node, err := plan.Build(sel, c.Catalog())
	if err != nil {
		return nil, err
	}
	return opt.OptimizeOpts(node, c.Catalog(), c.optOptions())
}

// optOptions parameterizes the optimizer for this concrete cluster: the
// real worker count drives the network cost model.
func (c *Cluster) optOptions() opt.Options {
	return opt.Options{Workers: len(c.Workers)}
}

// querySecondsBounds buckets per-query latency for the query.seconds
// histogram (seconds, log-ish spacing).
var querySecondsBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

func (c *Cluster) runSelect(sel *sqlparse.Select, sql string, opts *QueryOptions) (*Result, error) {
	// Spread read queries over the coordinators (Section I: multiple
	// coordinators process requests in parallel; results route through the
	// coordinator that planned the query).
	coord := c.Coords[int(c.coordSeq.Add(1))%len(c.Coords)]
	node, err := plan.Build(sel, coord.Cat)
	if err != nil {
		return nil, err
	}
	node, err = opt.OptimizeOpts(node, coord.Cat, c.optOptions())
	if err != nil {
		return nil, err
	}
	// Both traced and untraced reads go through runMetered: it is the path
	// that threads per-query controls into distribution and frees the
	// query's fabric mailboxes afterwards — required for a server running
	// an unbounded stream of queries.
	rows, m, tr, err := c.runMetered(coord, node, c.Cfg.TraceQueries, sql, opts)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		c.Traces.Add(tr)
	}
	c.Reg.Histogram("query.seconds", querySecondsBounds).Observe(m.Wall.Seconds())
	return &Result{Schema: node.Schema(), Rows: rows}, nil
}

func (c *Cluster) explain(sel *sqlparse.Select) (*Result, error) {
	node, err := c.Plan(sel)
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	for _, line := range strings.Split(strings.TrimRight(plan.Explain(node), "\n"), "\n") {
		rows = append(rows, types.Row{types.NewString(line)})
	}
	return &Result{
		Schema: types.NewSchema(types.Column{Name: "plan", Kind: types.KindString}),
		Rows:   rows,
	}, nil
}

// explainAnalyze executes the query with per-operator tracing and returns
// the stitched span tree — one line per operator, grouped by node along the
// exchange boundaries — plus a totals footer from the run metrics.
func (c *Cluster) explainAnalyze(sel *sqlparse.Select, sql string) (*Result, error) {
	node, err := c.Plan(sel)
	if err != nil {
		return nil, err
	}
	rows, m, tr, err := c.RunTraced(node, sql)
	if err != nil {
		return nil, err
	}
	c.Traces.Add(tr)
	c.Reg.Histogram("query.seconds", querySecondsBounds).Observe(m.Wall.Seconds())
	var out []types.Row
	for _, line := range strings.Split(strings.TrimRight(tr.Render(), "\n"), "\n") {
		out = append(out, types.Row{types.NewString(line)})
	}
	totals := fmt.Sprintf(
		"Totals: rows=%d scanned=%d pages=%d skipped=%d net=%dB msgs=%d spill=%dB state=%dB wall=%.3fms",
		len(rows), m.ScanRows, m.PagesRead, m.PagesSkipped, m.NetBytes,
		m.NetMessages, m.SpillBytes, m.StateBytes, float64(m.Wall.Nanoseconds())/1e6)
	out = append(out, types.Row{types.NewString(totals)})
	return &Result{
		Schema: types.NewSchema(types.Column{Name: "plan", Kind: types.KindString}),
		Rows:   out,
	}, nil
}

func (c *Cluster) createTableStmt(x *sqlparse.CreateTable) (*Result, error) {
	def := &catalog.TableDef{
		Name:        x.Name,
		Schema:      types.Schema{Cols: x.Cols},
		Columnar:    x.Columnar,
		ClusterCols: x.ClusterCols,
	}
	switch x.PartKind {
	case "HASH":
		def.Part = catalog.Partitioning{Kind: catalog.PartHash, Cols: x.PartCols}
	case "RANGE":
		def.Part = catalog.Partitioning{Kind: catalog.PartRange, Cols: x.PartCols, Bounds: x.RangeBounds}
	case "REPLICATED":
		def.Part = catalog.Partitioning{Kind: catalog.PartReplicated}
	default:
		return nil, fmt.Errorf("cluster: unknown partitioning %q", x.PartKind)
	}
	if err := c.CreateTable(def); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("table %s created", def.Name)}, nil
}

func (c *Cluster) createIndexStmt(x *sqlparse.CreateIndex) (*Result, error) {
	def := &catalog.IndexDef{Name: x.Name, Table: x.Table, Cols: x.Cols}
	for _, cn := range c.Coords {
		if err := cn.Cat.CreateIndex(def); err != nil {
			return nil, err
		}
	}
	// Build the index on every worker's fragment.
	tbl, err := c.Catalog().Table(x.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Columnar {
		return nil, fmt.Errorf("cluster: secondary indexes require row tables")
	}
	offs, err := tbl.ColOffsets(x.Cols)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, w := range c.Workers {
		n, err := w.buildIndex(def, tbl, offs)
		if err != nil {
			return nil, err
		}
		total += n
	}
	return &Result{Message: fmt.Sprintf("index %s created (%d entries)", def.Name, total)}, nil
}

// buildIndex scans the worker's fragment into a fresh disk B+-tree.
func (w *Worker) buildIndex(def *catalog.IndexDef, tbl *catalog.TableDef, offs []int) (int, error) {
	fileID, err := w.Store.OpenFile(0, def.Name+".idx", true)
	if err != nil {
		return 0, err
	}
	bt, err := index.CreateBTree(index.NewBufferSpace(w.Store.Buf, fileID, w.Store.PageSize(), 0))
	if err != nil {
		return 0, err
	}
	w.btreeIdx[def.Name] = bt
	count := 0
	var insertErr error
	_, err = w.frags[tbl.Name].Scan(storage.ScanOptions{}, func(rid page.RID, r types.Row) bool {
		if insertErr = bt.Insert(r.Project(offs), rid); insertErr != nil {
			return false
		}
		count++
		return true
	})
	if err == nil {
		err = insertErr
	}
	return count, err
}

// evalLiteralRow evaluates an INSERT VALUES row and coerces to the schema.
func evalLiteralRow(exprs []expr.Expr, sch types.Schema) (types.Row, error) {
	if len(exprs) != sch.Len() {
		return nil, fmt.Errorf("cluster: INSERT arity %d != %d columns", len(exprs), sch.Len())
	}
	row := make(types.Row, len(exprs))
	for i, e := range exprs {
		v, err := e.Eval(nil)
		if err != nil {
			return nil, err
		}
		if row[i], err = coerceToColumn(v, sch.Cols[i]); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// coerceToColumn is the check every written value passes, INSERT's and
// UPDATE's alike: NULL and a value of the column's kind go through, an int
// becomes a float in a FLOAT column and days since the epoch in a DATE
// column, and any other kind is an error — stored, it would be a string in an
// INT column that scans return and sum() skips.
func coerceToColumn(v types.Value, col types.Column) (types.Value, error) {
	switch {
	case v.K == col.Kind || v.IsNull():
		return v, nil
	case v.K == types.KindInt && col.Kind == types.KindFloat:
		return types.NewFloat(float64(v.I)), nil
	case v.K == types.KindInt && col.Kind == types.KindDate:
		return types.NewDate(v.I), nil
	}
	return types.Null, fmt.Errorf("cluster: column %s is %s, cannot store %s value %s", col.Name, col.Kind, v.K, v)
}

// insertStmt routes rows to workers by partitioning and commits via 2PC.
func (c *Cluster) insertStmt(x *sqlparse.Insert) (*Result, error) {
	def, err := c.Catalog().Table(x.Table)
	if err != nil {
		return nil, err
	}
	if def.Columnar {
		// Columnar fragments are bulk-load only; route through Load.
		var rows []types.Row
		for _, re := range x.Rows {
			r, err := evalLiteralRow(re, def.Schema)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
		n, err := c.Load(x.Table, rows)
		if err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("%d rows loaded", n)}, nil
	}
	txid := c.txSeq.Add(1)
	involved := map[int]bool{}
	count := 0
	abort := func(e error) (*Result, error) {
		for wid := range involved {
			w := c.Workers[c.workerIndex(wid)]
			if tx, ok := w.Txn.Lookup(txid); ok {
				if rerr := w.Txn.Rollback(tx); rerr != nil {
					e = errors.Join(e, fmt.Errorf("cluster: rollback tx %d on worker %d: %w", txid, wid, rerr))
				}
			}
		}
		return nil, e
	}
	for _, re := range x.Rows {
		r, err := evalLiteralRow(re, def.Schema)
		if err != nil {
			return abort(err)
		}
		nodes, err := def.NodeFor(r, len(c.Workers))
		if err != nil {
			return abort(err)
		}
		for _, n := range nodes {
			w := c.Workers[n]
			tx, ok := w.Txn.Lookup(txid)
			if !ok {
				tx = w.Txn.BeginWithID(txid)
				involved[w.ID] = true
			}
			rid, err := w.frags[def.Name].Insert(tx, r)
			if err != nil {
				return abort(err)
			}
			if err := w.maintainIndexes(c.Catalog(), def, r, rid, true); err != nil {
				return abort(err)
			}
		}
		count++
	}
	var ids []int
	for wid := range involved {
		ids = append(ids, wid)
	}
	committed, err := c.Coords[0].XA.CommitGlobal(txid, ids)
	if err != nil {
		return nil, err
	}
	if !committed {
		return nil, fmt.Errorf("cluster: transaction %d rolled back", txid)
	}
	return &Result{Message: fmt.Sprintf("%d rows inserted", count)}, nil
}

// deleteStmt deletes matching rows on every worker under one global txn.
func (c *Cluster) deleteStmt(x *sqlparse.Delete) (*Result, error) {
	def, err := c.Catalog().Table(x.Table)
	if err != nil {
		return nil, err
	}
	if def.Columnar {
		return nil, fmt.Errorf("cluster: DELETE requires a row table (reorganize/reload columnar tables)")
	}
	var pred expr.Expr
	if x.Where != nil {
		if pred, err = plan.BindTable(x.Where, def.Name, def.Schema); err != nil {
			return nil, err
		}
	}
	txid := c.txSeq.Add(1)
	var ids []int
	total := 0
	for _, w := range c.Workers {
		fr := w.frags[def.Name]
		tx := w.Txn.BeginWithID(txid)
		ids = append(ids, w.ID)
		// Scan under exclusive page locks (write intent) so concurrent
		// writers serialize, then delete.
		var rids []page.RID
		scanErr := error(nil)
		_, err := fr.Scan(storage.ScanOptions{Tx: tx, LockExclusive: true},
			func(rid page.RID, r types.Row) bool {
				if pred != nil {
					ok, err := expr.EvalBool(pred, r)
					if err != nil {
						scanErr = err
						return false
					}
					if !ok {
						return true
					}
				}
				rids = append(rids, rid)
				return true
			})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return nil, errors.Join(err, c.abortGlobal(txid, ids))
		}
		for _, rid := range rids {
			old, hadOld, err := fr.Get(rid, nil, nil)
			if err != nil {
				return nil, errors.Join(err, c.abortGlobal(txid, ids))
			}
			deleted, err := fr.Delete(tx, rid)
			if err != nil {
				return nil, errors.Join(err, c.abortGlobal(txid, ids))
			}
			if !deleted {
				continue // lost the race to another committed delete
			}
			if hadOld {
				if err := w.maintainIndexes(c.Catalog(), def, old, rid, false); err != nil {
					return nil, errors.Join(err, c.abortGlobal(txid, ids))
				}
			}
			total++
		}
	}
	if len(ids) > 0 {
		committed, err := c.Coords[0].XA.CommitGlobal(txid, ids)
		if err != nil {
			return nil, err
		}
		if !committed {
			return nil, fmt.Errorf("cluster: transaction %d rolled back", txid)
		}
	}
	return &Result{Message: fmt.Sprintf("%d rows deleted", total)}, nil
}

// updateStmt implements out-of-place update: delete + reinsert (possibly
// on another worker if the partition key changed), in one global txn.
func (c *Cluster) updateStmt(x *sqlparse.Update) (*Result, error) {
	def, err := c.Catalog().Table(x.Table)
	if err != nil {
		return nil, err
	}
	if def.Columnar {
		return nil, fmt.Errorf("cluster: UPDATE requires a row table")
	}
	var pred expr.Expr
	if x.Where != nil {
		if pred, err = plan.BindTable(x.Where, def.Name, def.Schema); err != nil {
			return nil, err
		}
	}
	setExprs := map[int]expr.Expr{}
	for col, e := range x.Set {
		idx := def.Schema.Find(col)
		if idx < 0 {
			return nil, fmt.Errorf("cluster: UPDATE column %s not in %s", col, x.Table)
		}
		ec, err := plan.BindTable(e, def.Name, def.Schema)
		if err != nil {
			return nil, err
		}
		setExprs[idx] = ec
	}
	txid := c.txSeq.Add(1)
	involved := map[int]bool{}
	total := 0
	getTx := func(w *Worker) storage.TxHook {
		if tx, ok := w.Txn.Lookup(txid); ok {
			return tx
		}
		involved[w.ID] = true
		return w.Txn.BeginWithID(txid)
	}
	fail := func(err error) (*Result, error) {
		var ids []int
		for wid := range involved {
			ids = append(ids, wid)
		}
		return nil, errors.Join(err, c.abortGlobal(txid, ids))
	}
	for _, w := range c.Workers {
		fr := w.frags[def.Name]
		type change struct {
			rid    page.RID
			newRow types.Row
		}
		var changes []change
		tx := getTx(w)
		var scanErr error
		// Exclusive page locks during the scan: concurrent UPDATE
		// statements serialize instead of double-applying.
		_, err := fr.Scan(storage.ScanOptions{Tx: tx, LockExclusive: true},
			func(rid page.RID, r types.Row) bool {
				if pred != nil {
					ok, err := expr.EvalBool(pred, r)
					if err != nil {
						scanErr = err
						return false
					}
					if !ok {
						return true
					}
				}
				newRow := r.Clone()
				for idx, e := range setExprs {
					v, err := e.Eval(r)
					if err != nil {
						scanErr = err
						return false
					}
					if newRow[idx], err = coerceToColumn(v, def.Schema.Cols[idx]); err != nil {
						scanErr = err
						return false
					}
				}
				changes = append(changes, change{rid, newRow})
				return true
			})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return fail(err)
		}
		for _, ch := range changes {
			old, hadOld, err := fr.Get(ch.rid, nil, nil)
			if err != nil {
				return fail(err)
			}
			deleted, err := fr.Delete(tx, ch.rid)
			if err != nil {
				return fail(err)
			}
			if !deleted {
				continue // row vanished under a concurrent committed delete
			}
			if hadOld {
				if err := w.maintainIndexes(c.Catalog(), def, old, ch.rid, false); err != nil {
					return fail(err)
				}
			}
			nodes, err := def.NodeFor(ch.newRow, len(c.Workers))
			if err != nil {
				return fail(err)
			}
			for _, n := range nodes {
				dst := c.Workers[n]
				dtx := getTx(dst)
				rid, err := dst.frags[def.Name].Insert(dtx, ch.newRow)
				if err != nil {
					return fail(err)
				}
				if err := dst.maintainIndexes(c.Catalog(), def, ch.newRow, rid, true); err != nil {
					return fail(err)
				}
			}
			total++
		}
	}
	if len(involved) > 0 {
		var ids []int
		for wid := range involved {
			ids = append(ids, wid)
		}
		committed, err := c.Coords[0].XA.CommitGlobal(txid, ids)
		if err != nil {
			return nil, err
		}
		if !committed {
			return nil, fmt.Errorf("cluster: transaction %d rolled back", txid)
		}
	}
	return &Result{Message: fmt.Sprintf("%d rows updated", total)}, nil
}

// reorganizeStmt rewrites every fragment of a table: tombstones compact,
// clustering order is restored, and skipping caches reset (Section III).
func (c *Cluster) reorganizeStmt(x *sqlparse.Reorganize) (*Result, error) {
	def, err := c.Catalog().Table(x.Table)
	if err != nil {
		return nil, err
	}
	if def.Columnar {
		return nil, fmt.Errorf("cluster: REORGANIZE supports row tables (reload columnar tables)")
	}
	for _, w := range c.Workers {
		if err := w.frags[def.Name].Reorganize(); err != nil {
			return nil, err
		}
	}
	return &Result{Message: fmt.Sprintf("table %s reorganized", def.Name)}, nil
}

// abortGlobal rolls back a distributed statement's local transactions,
// reporting any rollback that itself failed (a worker whose undo failed
// may hold locks and divergent data until recovery).
func (c *Cluster) abortGlobal(txid uint64, ids []int) error {
	var firstErr error
	for _, wid := range ids {
		w := c.Workers[c.workerIndex(wid)]
		if tx, ok := w.Txn.Lookup(txid); ok {
			if err := w.Txn.Rollback(tx); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cluster: rollback tx %d on worker %d: %w", txid, wid, err)
			}
		}
	}
	return firstErr
}

// analyzeStmt recomputes table statistics from a full scan, streaming rows
// through the statistics builder so the table is never materialized at the
// coordinator: histograms come from a bounded reservoir sample, NDV from a
// fixed-size sketch, so ANALYZE memory is constant in table size.
func (c *Cluster) analyzeStmt(x *sqlparse.Analyze) (*Result, error) {
	def, err := c.Catalog().Table(x.Table)
	if err != nil {
		return nil, err
	}
	sel := &sqlparse.Select{
		Items: []sqlparse.SelectItem{{Star: true}},
		From:  []sqlparse.TableRef{{Table: def.Name}},
		Limit: -1,
	}
	node, err := plan.Build(sel, c.Catalog())
	if err != nil {
		return nil, err
	}
	op, err := c.CompileDistributed(node)
	if err != nil {
		return nil, err
	}
	sb := catalog.NewStatsBuilder(def.Schema)
	if err := op.Open(); err != nil {
		return nil, err
	}
	for {
		r, ok, err := op.Next()
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if !ok {
			break
		}
		sb.Add(r)
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	stats := sb.Finish()
	// The fresh full-scan builder supersedes the accumulated load-time one
	// (which drifts under deletes/updates); later loads extend it.
	c.statsMu.Lock()
	c.loadStats[def.Name] = sb
	c.statsMu.Unlock()
	for _, cn := range c.Coords {
		cn.Cat.SetStats(def.Name, stats)
	}
	return &Result{Message: fmt.Sprintf("analyzed %s: %d rows", def.Name, stats.RowCount)}, nil
}
