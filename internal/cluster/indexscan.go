package cluster

import (
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/page"
	"repro/internal/plan"
	"repro/internal/skipcache"
	"repro/internal/storage"
	"repro/internal/types"
)

// Index-backed scans: the paper's phase-1 optimizer chooses between table
// and index scans. We apply the rule at distribution time: when a scan's
// predicate contains an equality on the leading column of a worker-local
// B+-tree (or skip-list) index and the equality is estimated highly
// selective, each worker probes its index instead of scanning pages.

// indexMatch describes a usable index access path for a scan.
type indexMatch struct {
	def *catalog.IndexDef
	key types.Value // equality constant on the leading index column
}

// findIndexPath looks for an equality conjunct col = const where col is
// the leading column of an index on the table.
func (q *queryExec) findIndexPath(x *plan.Scan) *indexMatch {
	if x.Pred == nil {
		return nil
	}
	conj, _ := expr.ToSkipConj(x.Pred, x.Table.Schema)
	indexes := q.c.Catalog().IndexesOn(x.Table.Name)
	for _, p := range conj {
		if p.Op != skipcache.OpEq {
			continue
		}
		for _, idx := range indexes {
			if len(idx.Cols) >= 1 && idx.Cols[0] == p.Col {
				return &indexMatch{def: idx, key: p.Val}
			}
		}
	}
	return nil
}

// indexScanOp probes one worker's index and re-fetches rows by RID,
// applying the scan's full residual predicate. Like the row scan, it
// decodes only the columns it emits or its predicate reads, into a scratch
// row, and copies out the emitted ones of a row that passes.
type indexScanOp struct {
	exec.Source // serves the fetched rows; Open fills Rows
	w           *Worker
	fr          *storage.Fragment
	def         *catalog.IndexDef
	key         types.Value
	pred        expr.Expr // bound to the table schema
	emit        []int     // table columns emitted (plan.Scan.Cols, or all)
	read        []bool    // by table column: emitted or read by pred
}

// Open implements exec.Operator: the probe happens here.
func (s *indexScanOp) Open() error {
	s.Rows = nil
	bt := s.w.btreeIdx[s.def.Name]
	if bt == nil {
		return nil // index not built on this worker: no rows here
	}
	rids, err := bt.Search(types.Row{s.key})
	if err != nil {
		return err
	}
	scratch := make(types.Row, s.fr.Def.Schema.Len())
	for _, rid := range rids {
		r, ok, err := s.fr.Get(rid, s.read, scratch)
		if err != nil {
			return err
		}
		if !ok {
			continue // tombstoned since indexing (logical delete)
		}
		if s.pred != nil {
			keep, err := expr.EvalBool(s.pred, r)
			if err != nil {
				return err
			}
			if !keep {
				continue
			}
		}
		s.Rows = append(s.Rows, r.Project(s.emit))
	}
	return s.Source.Open()
}

// maintainIndexes applies an insert or delete to every index on a table
// for one worker. Index updates piggyback on the data transaction's page
// writes; after a crash, indexes are rebuilt from the fragments (the
// standard recovery simplification — see DESIGN.md).
func (w *Worker) maintainIndexes(c *catalog.Catalog, tbl *catalog.TableDef, r types.Row, rid page.RID, insert bool) error {
	for _, idx := range c.IndexesOn(tbl.Name) {
		offs, err := tbl.ColOffsets(idx.Cols)
		if err != nil {
			return err
		}
		key := r.Project(offs)
		bt := w.btreeIdx[idx.Name]
		if bt == nil {
			continue
		}
		if insert {
			if err := bt.Insert(key, rid); err != nil {
				return err
			}
		} else if _, err := bt.Delete(key, rid); err != nil {
			return err
		}
	}
	return nil
}

// indexScan builds the per-worker index-backed stream for a scan node.
func (q *queryExec) indexScan(x *plan.Scan, m *indexMatch) (*dstream, error) {
	ds := &dstream{sch: x.Schema()}
	for _, w := range q.c.Workers {
		fr := w.frags[x.Table.Name]
		emit, _, read := exec.ScanColumns(fr.Def.Schema.Len(), x.Cols, x.Pred)
		op := q.wrap("IndexScan "+m.def.Name, w.ID, &indexScanOp{
			Source: exec.Source{Sch: x.Schema()},
			w:      w, fr: fr, def: m.def, key: m.key, pred: x.Pred, emit: emit, read: read,
		})
		ds.ops = append(ds.ops, op)
	}
	ds.dist = q.scanDist(x)
	return ds, nil
}

var _ exec.Operator = (*indexScanOp)(nil)
