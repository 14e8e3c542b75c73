package main

// slabown and vecown enforce the two batch-ownership contracts of
// internal/exec, with one analysis:
//
//   - slabown: the slab returned by NextBatch (internal/exec/operator.go) is
//     valid only until the next NextBatch or Close call. The row VALUES
//     inside it are immutable and may be retained (r := b[i] is fine); the
//     slice header — the slab or a sub-slice of it — must not outlive the
//     iteration.
//   - vecown: the *vec.Batch returned by NextVec (internal/exec/vector.go,
//     internal/vec), and every slab reachable from it (Sel, a column's
//     I/F/Codes/Nulls slices, a Col header copy), is the consumer's only
//     until it calls the batch's Release, which hands it back to the
//     process-wide pools for a later batch; the producer never touches a
//     batch it has shipped. Boxed values (Col.Value(i)) and materialized
//     rows (Batch.Materialize, Batch.ReadRow) are independent storage and
//     may be retained, as are scalars like b.N. Writes INTO the batch are
//     sanctioned — the contract lets the consumer rewrite b.Sel in place.
//
// The analysis is intra-procedural: it tracks the variables bound to the
// producer's result (and, to a fixpoint, their aliases and derived slabs)
// through the function and flags
//
//   - assignment of a tracked expression to a struct field or package-level
//     variable, and
//   - any use of a tracked variable inside a function literal that is not
//     invoked on the spot (a goroutine body, a stored callback): by the time
//     it runs, the producer (a slab) or the pools (a released batch) may
//     have reclaimed the memory.
//
// Copies are the sanctioned escape hatch: `copy(cp, b)`, `append(dst, b...)`
// and method-call results resolve to no tracked root, so they never trip
// either rule.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ownRule is one ownership contract: the five things slabown and vecown
// differ in.
type ownRule struct {
	name     string
	producer string                // the method whose result is tracked
	produces func(types.Type) bool // its first result's type
	// root resolves an expression to the variable it is derived from, or nil.
	root func(ast.Expr) *ast.Ident
	// hazard reports whether a value of the type can retain producer memory;
	// nil means every alias can.
	hazard func(types.Type) bool
	// writeInto sanctions stores whose destination is rooted at a tracked
	// variable (b.Sel = ...).
	writeInto bool
	what      string // the tracked thing, as the messages name it
	remedy    string
}

var slabownAnalyzer = &Analyzer{
	Name: "slabown",
	Doc:  "flags NextBatch slabs (or sub-slices) stored into fields, package vars, or escaping closures without a copy",
	Run: (&ownRule{
		name:     "slabown",
		producer: "NextBatch",
		produces: isRowSlice,
		root:     slabRoot,
		what:     "slab",
		remedy:   "copy the slice; row values are retainable, the slice is not",
	}).run,
}

var vecownAnalyzer = &Analyzer{
	Name: "vecown",
	Doc:  "flags NextVec batches (or their column slabs) stored into fields, package vars, or escaping closures",
	Run: (&ownRule{
		name:      "vecown",
		producer:  "NextVec",
		produces:  isVecBatchPtr,
		root:      vecRoot,
		hazard:    vecHazardType,
		writeInto: true,
		what:      "batch",
		remedy:    "materialize or copy; boxed values are retainable, slabs are not",
	}).run,
}

func (r *ownRule) run(p *Pass) {
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			r.checkTree(p, body)
		})
	}
}

// checkTree analyzes body and, each as its own scope for what is acquired
// inside it, every function literal nested in it.
func (r *ownRule) checkTree(p *Pass, body *ast.BlockStmt) {
	r.checkBody(p, body)
	for _, lit := range nestedFuncLits(body) {
		r.checkTree(p, lit.Body)
	}
}

// isRowSlice reports whether t is []types.Row.
func isRowSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	return ok && isNamedPtr(sl.Elem(), "internal/types", "Row")
}

// isVecBatchPtr reports whether t is *vec.Batch.
func isVecBatchPtr(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok && isNamedPtr(t, "internal/vec", "Batch")
}

// vecHazardType reports whether retaining a value of type t can retain
// producer-owned slab memory: the batch pointer itself, any slice (Sel,
// I/F/Codes/Nulls, Cols), any pointer derived from the batch, or a Col
// header copy (a struct of slice headers). Scalars and boxed values are
// safe.
func vecHazardType(t types.Type) bool {
	switch t.(type) {
	case *types.Slice, *types.Pointer:
		return true
	case *types.Named:
		return isNamedPtr(t, "internal/vec", "Col") || isNamedPtr(t, "internal/vec", "Batch")
	}
	return false
}

// slabRoot resolves an expression to the slab variable it aliases: the
// ident itself, or the root of a slice expression chain (b[i:j], b[:n]).
// Index expressions are NOT slabs — b[i] is a row value, retainable by
// contract.
func slabRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// vecRoot resolves an expression to the batch variable it is derived from:
// the ident itself, or the root of a selector/index/slice chain (b.Sel,
// b.Cols[i].I, b.Sel[:n], &b.Cols[i]). Call results are NOT derived —
// Value/Materialize/ReadRow produce independent storage by contract.
func vecRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkBody analyzes one function body (not descending into nested
// literals except to look for escaping uses of this body's tracked
// variables).
func (r *ownRule) checkBody(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info
	hazard := func(e ast.Expr) bool { return r.hazard == nil || r.hazard(info.TypeOf(e)) }

	// Pass 1: collect tracked objects — producer results and, to fixpoint,
	// their aliases and derived slabs. With a hazard filter, only
	// hazard-typed bindings are tracked: n := b.N copies a scalar.
	tracked := map[types.Object]bool{}
	ownLit := map[ast.Node]bool{} // nested literal subtrees, skipped in passes 1 and 2
	for _, lit := range nestedFuncLits(body) {
		ownLit[lit] = true
	}
	isTracked := func(e ast.Expr) bool {
		root := r.root(e)
		return root != nil && tracked[info.Uses[root]]
	}
	scan := func() bool {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			if ownLit[n] {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr) {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					return
				}
				if obj := defOrUse(info, id); obj != nil && !tracked[obj] {
					tracked[obj] = true
					changed = true
				}
			}
			if len(as.Rhs) == 1 {
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok && calleeName(call) == r.producer {
					if res := resultTuple(info, call); len(res) > 0 && r.produces(res[0]) {
						mark(as.Lhs[0])
						return true
					}
				}
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if hazard(rhs) && isTracked(rhs) {
						mark(as.Lhs[i])
					}
				}
			}
			return true
		})
		return changed
	}
	for scan() {
	}
	if len(tracked) == 0 {
		return
	}

	// Pass 2: flag stores into fields and package variables.
	ast.Inspect(body, func(n ast.Node) bool {
		if ownLit[n] {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !hazard(rhs) || !isTracked(rhs) {
				continue
			}
			switch lhs := as.Lhs[i].(type) {
			case *ast.SelectorExpr:
				if r.writeInto && isTracked(lhs) {
					continue // a write into the batch itself (b.Sel = sel)
				}
				p.Report(r.name, rhs.Pos(), fmt.Sprintf(
					"%s %s stored into field %s outlives the batch: it is only valid until the producer's next %s/Close (%s)",
					r.producer, r.what, lhs.Sel.Name, r.producer, r.remedy))
			case *ast.Ident:
				if obj := defOrUse(info, lhs); obj != nil && isPackageLevel(obj) {
					p.Report(r.name, rhs.Pos(), fmt.Sprintf(
						"%s %s stored into package variable %s outlives the batch: it is only valid until the producer's next %s/Close (%s)",
						r.producer, r.what, lhs.Name, r.producer, r.remedy))
				}
			}
		}
		return true
	})

	// Pass 3: flag tracked uses inside closures that are not invoked on the
	// spot.
	parents := parentMap(body)
	for _, lit := range nestedFuncLits(body) {
		if call, ok := parents[lit].(*ast.CallExpr); ok && call.Fun == lit {
			continue // immediately invoked: runs before the producer's next call
		}
		ast.Inspect(lit, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !tracked[info.Uses[id]] {
				return true
			}
			p.Report(r.name, id.Pos(), fmt.Sprintf(
				"%s %s %s captured by an escaping closure: the closure may run after the producer reclaims it (%s)",
				r.producer, r.what, id.Name, r.remedy))
			return false
		})
	}
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
