package plan

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/types"
)

// TableProvider supplies scan operators for base tables; the cluster layer
// provides per-fragment scans, tests provide in-memory rows. The operator
// emits s.Schema(): the rows matching s.Pred, narrowed to s.Cols.
type TableProvider interface {
	ScanTable(s *Scan) (exec.Operator, error)
}

// MemProvider serves tables from memory (tests and the query-planning unit
// of the coordinator).
type MemProvider struct {
	Cat  *catalog.Catalog
	Rows map[string][]types.Row
}

// ScanTable implements TableProvider with a filtered, then narrowed, memory
// source.
func (m *MemProvider) ScanTable(s *Scan) (exec.Operator, error) {
	var op exec.Operator = exec.NewSource(s.TableSchema(), m.Rows[s.Table.Name])
	if s.Pred != nil {
		op = exec.NewFilter(nil, op, s.Pred)
	}
	if s.Cols != nil {
		out := s.Schema()
		names := make([]string, len(s.Cols))
		for i, c := range out.Cols {
			names[i] = c.Name
		}
		op = exec.NewProject(nil, op, exec.ColRefs(s.Cols...), names)
	}
	return op, nil
}

// Execute compiles a logical plan into a local operator tree. Scalar
// subqueries are materialized first (depth-first), exactly once per query.
func Execute(n Node, prov TableProvider, ctx *exec.Ctx) (exec.Operator, error) {
	if err := materializeScalars(n, prov, ctx); err != nil {
		return nil, err
	}
	return compile(n, prov, ctx)
}

// materializeScalars runs every uncorrelated scalar subquery plan embedded
// in the plan's expressions and freezes its value.
func materializeScalars(n Node, prov TableProvider, ctx *exec.Ctx) error {
	for _, s := range Scalars(n) {
		op, err := Execute(s.Plan, prov, ctx)
		if err != nil {
			return err
		}
		rows, err := exec.Collect(op)
		if err != nil {
			return err
		}
		if err := s.Resolve(rows); err != nil {
			return err
		}
	}
	return nil
}

func compile(n Node, prov TableProvider, ctx *exec.Ctx) (exec.Operator, error) {
	switch x := n.(type) {
	case *Scan:
		return prov.ScanTable(x)
	case *Filter:
		child, err := compile(x.Child, prov, ctx)
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(ctx, child, x.Pred), nil
	case *Project:
		child, err := compile(x.Child, prov, ctx)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(x.Names))
		for i, nm := range x.Names {
			names[i] = nm
		}
		return exec.NewProject(ctx, child, x.Exprs, names), nil
	case *Rename:
		child, err := compile(x.Child, prov, ctx)
		if err != nil {
			return nil, err
		}
		return &renameOp{Operator: child, sch: x.Schema()}, nil
	case *Join:
		left, err := compile(x.Left, prov, ctx)
		if err != nil {
			return nil, err
		}
		right, err := compile(x.Right, prov, ctx)
		if err != nil {
			return nil, err
		}
		if len(x.EquiLeft) == 0 {
			return exec.NewNestedLoopJoin(ctx, left, right, x.Residual, x.Type), nil
		}
		return exec.NewHashJoin(ctx, left, right, x.EquiLeft, x.EquiRight, x.Type, x.Residual, 1), nil
	case *Agg:
		child, err := compile(x.Child, prov, ctx)
		if err != nil {
			return nil, err
		}
		return exec.NewHashAggregate(ctx, child, x.GroupBy, AggSpecs(x.Aggs), exec.AggComplete), nil
	case *Sort:
		child, err := compile(x.Child, prov, ctx)
		if err != nil {
			return nil, err
		}
		return exec.NewSort(ctx, child, sortKeys(x.Keys)), nil
	case *Limit:
		// Sort+Limit collapses into the heap-based top-k.
		if s, ok := x.Child.(*Sort); ok && x.Offset == 0 {
			child, err := compile(s.Child, prov, ctx)
			if err != nil {
				return nil, err
			}
			return exec.NewTopK(ctx, child, sortKeys(s.Keys), int(x.N)), nil
		}
		child, err := compile(x.Child, prov, ctx)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(child, x.N, x.Offset), nil
	default:
		return nil, fmt.Errorf("plan: cannot compile %T", n)
	}
}

// AggSpecs are the executor's specs of plan aggregates.
func AggSpecs(aggs []AggItem) []exec.AggSpec {
	specs := make([]exec.AggSpec, len(aggs))
	for i, a := range aggs {
		specs[i] = exec.AggSpec{Kind: a.Kind, Arg: a.Arg, Distinct: a.Distinct, Name: a.Name}
	}
	return specs
}

func sortKeys(keys []SortItem) []exec.SortKey {
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		out[i] = exec.SortKey{Col: k.Col, Desc: k.Desc}
	}
	return out
}

// renameOp adjusts only the reported schema.
type renameOp struct {
	exec.Operator
	sch types.Schema
}

// Schema overrides the embedded operator's schema.
func (r *renameOp) Schema() types.Schema { return r.sch }
