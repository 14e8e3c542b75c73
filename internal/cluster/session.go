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
	"repro/internal/txn"
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
		c.statsMu.Lock()
		delete(c.loadStats, x.Name)
		c.statsMu.Unlock()
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
	return c.planOn(c.Catalog(), sel)
}

// planOn builds and optimizes sel against cat, a coordinator's catalog. The
// cluster's real worker count drives the optimizer's network cost model.
func (c *Cluster) planOn(cat *catalog.Catalog, sel *sqlparse.Select) (plan.Node, error) {
	node, err := plan.Build(sel, cat)
	if err != nil {
		return nil, err
	}
	return opt.OptimizeOpts(node, cat, opt.Options{Workers: len(c.Workers)})
}

// querySecondsBounds buckets per-query latency for the query.seconds
// histogram (seconds, log-ish spacing).
var querySecondsBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

func (c *Cluster) runSelect(sel *sqlparse.Select, sql string, opts *QueryOptions) (*Result, error) {
	// Spread read queries over the coordinators (Section I: multiple
	// coordinators process requests in parallel; results route through the
	// coordinator that planned the query).
	coord := c.Coords[int(c.coordSeq.Add(1))%len(c.Coords)]
	node, err := c.planOn(coord.Cat, sel)
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
	_, err = w.frags[tbl.Name].Scan(storage.ScanOptions{}, func(rid page.RID, r types.Row) (bool, error) {
		if err := bt.Insert(r.Project(offs), rid); err != nil {
			return false, err
		}
		count++
		return true, nil
	})
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

// insertStmt routes rows to workers by partitioning and commits via 2PC; a
// columnar table takes them through Load.
func (c *Cluster) insertStmt(x *sqlparse.Insert) (*Result, error) {
	def, err := c.Catalog().Table(x.Table)
	if err != nil {
		return nil, err
	}
	rows := make([]types.Row, len(x.Rows))
	for i, re := range x.Rows {
		if rows[i], err = evalLiteralRow(re, def.Schema); err != nil {
			return nil, err
		}
	}
	if def.Columnar {
		n, err := c.Load(x.Table, rows)
		if err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("%d rows loaded", n)}, nil
	}
	wt := c.newWriteTx(def)
	err = func() error {
		for _, r := range rows {
			nodes, err := def.NodeFor(r, len(c.Workers))
			if err != nil {
				return err
			}
			for _, wi := range nodes {
				if err := wt.insert(wi, r); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	if err := wt.finish(err); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%d rows inserted", len(rows))}, nil
}

// deleteStmt deletes matching rows on every worker under one global txn.
func (c *Cluster) deleteStmt(x *sqlparse.Delete) (*Result, error) {
	def, pred, err := c.writeTarget(x.Table, x.Where, "DELETE")
	if err != nil {
		return nil, err
	}
	return c.rewrite(def, pred, nil, "deleted")
}

// updateStmt implements out-of-place update: delete + reinsert (on another
// worker if the partitioning key changed), in one global txn.
func (c *Cluster) updateStmt(x *sqlparse.Update) (*Result, error) {
	def, pred, err := c.writeTarget(x.Table, x.Where, "UPDATE")
	if err != nil {
		return nil, err
	}
	setExprs := map[int]expr.Expr{}
	for col, e := range x.Set {
		idx := def.Schema.Find(col)
		if idx < 0 {
			return nil, fmt.Errorf("cluster: UPDATE column %s not in %s", col, x.Table)
		}
		if setExprs[idx], err = plan.BindTable(e, def.Name, def.Schema); err != nil {
			return nil, err
		}
	}
	set := func(r types.Row) (types.Row, error) {
		nr := r.Clone()
		for idx, e := range setExprs {
			v, err := e.Eval(r)
			if err != nil {
				return nil, err
			}
			if nr[idx], err = coerceToColumn(v, def.Schema.Cols[idx]); err != nil {
				return nil, err
			}
		}
		return nr, nil
	}
	return c.rewrite(def, pred, set, "updated")
}

// writeTarget resolves a DELETE's or UPDATE's row table and binds its WHERE
// clause (nil when there is none).
func (c *Cluster) writeTarget(table string, where expr.Expr, verb string) (*catalog.TableDef, expr.Expr, error) {
	def, err := c.Catalog().Table(table)
	if err != nil {
		return nil, nil, err
	}
	if def.Columnar {
		return nil, nil, fmt.Errorf("cluster: %s requires a row table (reorganize/reload columnar tables)", verb)
	}
	if where == nil {
		return def, nil, nil
	}
	pred, err := plan.BindTable(where, def.Name, def.Schema)
	return def, pred, err
}

// rewrite is DELETE's and UPDATE's one loop, in one global transaction: it
// matches the rows pred selects on every worker that can hold one before it
// changes any — so a row an UPDATE moves onto a worker is never matched
// again there — then removes each and, when set is given, writes set's
// version of it back. A moved row goes where its new key places it; a
// replica is rewritten on its own worker and counted once.
func (c *Cluster) rewrite(def *catalog.TableDef, pred expr.Expr, set func(types.Row) (types.Row, error), verb string) (*Result, error) {
	wt := c.newWriteTx(def)
	replicated := def.Part.Kind == catalog.PartReplicated
	n := 0
	err := func() error {
		hits, err := wt.match(pred)
		if err != nil {
			return err
		}
		for _, h := range hits {
			var nr types.Row
			if set != nil {
				if nr, err = set(h.row); err != nil {
					return err
				}
			}
			if err := wt.remove(h); err != nil {
				return err
			}
			if nr != nil {
				dst := h.wi
				if !replicated {
					nodes, err := def.NodeFor(nr, len(c.Workers))
					if err != nil {
						return err
					}
					dst = nodes[0]
				}
				if err := wt.insert(dst, nr); err != nil {
					return err
				}
			}
			if !replicated || h.wi == 0 {
				n++
			}
		}
		return nil
	}()
	if err := wt.finish(err); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%d rows %s", n, verb)}, nil
}

// writeTx is one DML statement's global transaction: a local transaction on
// each worker it touches, all under one ID, committed together by 2PC.
type writeTx struct {
	c   *Cluster
	def *catalog.TableDef
	id  uint64
	txs []*txn.Tx // by worker index; nil until the worker is touched
}

func (c *Cluster) newWriteTx(def *catalog.TableDef) *writeTx {
	return &writeTx{c: c, def: def, id: c.txSeq.Add(1), txs: make([]*txn.Tx, len(c.Workers))}
}

// tx returns worker wi's local transaction, beginning it on first use.
func (t *writeTx) tx(wi int) *txn.Tx {
	if t.txs[wi] == nil {
		t.txs[wi] = t.c.Workers[wi].Txn.BeginWithID(t.id)
	}
	return t.txs[wi]
}

// hit is one row match selected: the worker holding it, its RID there, and
// the row.
type hit struct {
	wi  int
	rid page.RID
	row types.Row
}

// match reads the rows pred selects (all, when nil) on the workers that can
// hold one (owners), under exclusive page locks so that concurrent writers
// serialize instead of double-applying, and begins a local transaction on
// each of them. The scan decodes only the columns pred reads; a row that
// passes is then decoded whole from the scan's copy of its page.
func (t *writeTx) match(pred expr.Expr) ([]hit, error) {
	var mask []bool
	if pred != nil {
		mask = make([]bool, t.def.Schema.Len())
		expr.Walk(pred, func(x expr.Expr) {
			if c, ok := x.(*expr.Col); ok {
				mask[c.Index] = true
			}
		})
	}
	var hits []hit
	for _, wi := range t.owners(pred) {
		fr := t.c.Workers[wi].frags[t.def.Name]
		_, err := fr.ScanMatching(storage.ScanOptions{Tx: t.tx(wi), LockExclusive: true, Mask: mask},
			func(r types.Row) (bool, error) {
				if pred == nil {
					return true, nil
				}
				return expr.EvalBool(pred, r)
			},
			func(rid page.RID, r types.Row) error {
				hits = append(hits, hit{wi, rid, r})
				return nil
			})
		if err != nil {
			return nil, err
		}
	}
	return hits, nil
}

// owners lists the workers that can hold a row pred selects. When
// top-level `column = literal` conjuncts pin every column placement reads
// (a hash table's key, a range table's first column), that is the one
// worker a row of the pinned values is placed on; otherwise, and always for
// a replicated table, it is every worker.
func (t *writeTx) owners(pred expr.Expr) []int {
	all := make([]int, len(t.c.Workers))
	for i := range all {
		all[i] = i
	}
	cols := t.def.Part.Cols
	switch t.def.Part.Kind {
	case catalog.PartReplicated:
		return all
	case catalog.PartRange:
		cols = cols[:1]
	}
	offs, err := t.def.ColOffsets(cols)
	if err != nil {
		return all
	}
	place := make(types.Row, t.def.Schema.Len())
	for _, cj := range expr.Conjuncts(pred) {
		b, ok := cj.(*expr.Bin)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		col, v, _, ok := expr.ColConst(b)
		if !ok || v.IsNull() {
			continue
		}
		if v, err = coerceToColumn(v, t.def.Schema.Cols[col.Index]); err == nil {
			place[col.Index] = v
		}
	}
	for _, o := range offs {
		if place[o].IsNull() {
			return all
		}
	}
	nodes, err := t.def.NodeFor(place, len(t.c.Workers))
	if err != nil {
		return all
	}
	return nodes
}

// insert writes r on worker wi, with its index entries.
func (t *writeTx) insert(wi int, r types.Row) error {
	w := t.c.Workers[wi]
	rid, err := w.frags[t.def.Name].Insert(t.tx(wi), r)
	if err != nil {
		return err
	}
	return w.maintainIndexes(t.c.Catalog(), t.def, r, rid, true)
}

// remove deletes a row match found, with its index entries. The page lock
// match took keeps the row in place until then.
func (t *writeTx) remove(h hit) error {
	w := t.c.Workers[h.wi]
	if _, err := w.frags[t.def.Name].Delete(t.tx(h.wi), h.rid); err != nil {
		return err
	}
	return w.maintainIndexes(t.c.Catalog(), t.def, h.row, h.rid, false)
}

// finish ends the statement: on err it rolls back every touched worker and
// returns err joined with any rollback that itself failed (a worker whose
// undo failed may hold locks and divergent data until recovery); otherwise
// it commits the touched workers, in worker order, with one 2PC round.
func (t *writeTx) finish(err error) error {
	var ids []int
	for wi, tx := range t.txs {
		if tx == nil {
			continue
		}
		w := t.c.Workers[wi]
		ids = append(ids, w.ID)
		if err != nil {
			if rerr := w.Txn.Rollback(tx); rerr != nil {
				err = errors.Join(err, fmt.Errorf("cluster: rollback tx %d on worker %d: %w", t.id, w.ID, rerr))
			}
		}
	}
	if err != nil || len(ids) == 0 {
		return err
	}
	committed, err := t.c.Coords[0].XA.CommitGlobal(t.id, ids)
	if err != nil {
		return err
	}
	if !committed {
		return fmt.Errorf("cluster: transaction %d rolled back", t.id)
	}
	return nil
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
	c.publishStats(def.Name, stats)
	c.statsMu.Unlock()
	return &Result{Message: fmt.Sprintf("analyzed %s: %d rows", def.Name, stats.RowCount)}, nil
}
