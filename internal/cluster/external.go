package cluster

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/external"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

// QueryExternal scans a registered external table, distributing its
// horizontal partitions across the workers (Section III's external table
// framework: the UET exposes partitioning, the system spreads the scan).
// where is an optional SQL boolean expression over the table's columns.
func (c *Cluster) QueryExternal(name, where string) ([]types.Row, error) {
	tbl, ok := c.External.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("cluster: external table %s not registered", name)
	}
	var pred expr.Expr
	if where != "" {
		sel, err := sqlparse.ParseSelect("SELECT 1 FROM dual WHERE " + where)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad WHERE: %w", err)
		}
		if pred, err = plan.BindTable(sel.Where, tbl.Name(), tbl.Schema()); err != nil {
			return nil, err
		}
	}
	assign := external.AssignPartitions(tbl.Partitions(), len(c.Workers))
	q := c.newQueryExec(c.Coords[0], nil)
	defer q.releaseWhenQuiet()
	ds := &dstream{sch: tbl.Schema()}
	for wi := range c.Workers {
		ds.ops = append(ds.ops, exec.NewExternalScan(tbl, assign[wi], "", pred))
	}
	return exec.Collect(q.toCoord(ds).ops[0])
}
