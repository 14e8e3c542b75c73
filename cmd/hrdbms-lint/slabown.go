package main

// slabown enforces the exec.Operator slab-ownership contract documented in
// internal/exec/operator.go: the slab returned by NextBatch is valid only
// until the next NextBatch or Close call. Storing the slab — or a
// sub-slice of it — into a struct field, a package variable, or a closure
// that outlives the statement retains memory the producer is about to
// reuse or truncate. The row VALUES inside a batch are immutable and may
// be retained (r := b[i] is fine); the slice header is what must not
// outlive the iteration.
//
// The analysis is intra-procedural: it tracks the variables bound to a
// NextBatch result (and their aliases and sub-slices) through the function
// and flags
//
//   - assignment of a slab expression to a struct field or package-level
//     variable, and
//   - any use of a slab variable inside a function literal that is not
//     invoked on the spot (a goroutine body, a stored callback): by the
//     time it runs, the slab may be gone.
//
// Copies are the sanctioned escape hatch: `copy(cp, b)` and
// `append(dst, b...)` produce independent storage and are not stores of
// the tracked slice, so they never trip the rule.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

var slabownAnalyzer = &Analyzer{
	Name: "slabown",
	Doc:  "flags NextBatch slabs (or sub-slices) stored into fields, package vars, or escaping closures without a copy",
	Run:  runSlabown,
}

func runSlabown(p *Pass) {
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkSlabBody(p, body)
			for _, lit := range nestedFuncLits(body) {
				checkSlabFuncLits(p, lit.Body)
			}
		})
	}
}

// checkSlabFuncLits recurses the per-literal analysis: each literal body is
// its own scope for slabs acquired inside it.
func checkSlabFuncLits(p *Pass, body *ast.BlockStmt) {
	checkSlabBody(p, body)
	for _, lit := range nestedFuncLits(body) {
		checkSlabFuncLits(p, lit.Body)
	}
}

// isRowSlice reports whether t is []types.Row.
func isRowSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Row" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/types")
}

// isNextBatchCall reports whether call is a NextBatch returning a row slab.
func isNextBatchCall(p *Pass, call *ast.CallExpr) bool {
	if calleeName(call) != "NextBatch" {
		return false
	}
	results := resultTuple(p.Pkg.Info, call)
	return len(results) > 0 && isRowSlice(results[0])
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

// checkSlabBody analyzes one function body (not descending into nested
// literals except to look for escaping uses of this body's slabs).
func checkSlabBody(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info

	// Pass 1: collect slab objects — NextBatch results and, to fixpoint,
	// their aliases and sub-slices.
	slabs := map[types.Object]bool{}
	ownLit := map[ast.Node]bool{} // nested literal subtrees, skipped in pass 1
	for _, lit := range nestedFuncLits(body) {
		ownLit[lit] = true
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
				if obj := defOrUse(info, id); obj != nil && !slabs[obj] {
					slabs[obj] = true
					changed = true
				}
			}
			if len(as.Rhs) == 1 {
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isNextBatchCall(p, call) {
					mark(as.Lhs[0])
					return true
				}
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if root := slabRoot(rhs); root != nil {
						if obj := info.Uses[root]; obj != nil && slabs[obj] {
							mark(as.Lhs[i])
						}
					}
				}
			}
			return true
		})
		return changed
	}
	for scan() {
	}
	if len(slabs) == 0 {
		return
	}

	isSlabExpr := func(e ast.Expr) bool {
		root := slabRoot(e)
		if root == nil {
			return false
		}
		obj := info.Uses[root]
		return obj != nil && slabs[obj]
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
			if !isSlabExpr(rhs) {
				continue
			}
			switch lhs := as.Lhs[i].(type) {
			case *ast.SelectorExpr:
				p.Report("slabown", rhs.Pos(), fmt.Sprintf(
					"NextBatch slab stored into field %s outlives the batch: the slab is only valid until the next NextBatch/Close (copy the slice; row values are retainable, the slice is not)",
					lhs.Sel.Name))
			case *ast.Ident:
				if obj := defOrUse(info, lhs); obj != nil && isPackageLevel(obj) {
					p.Report("slabown", rhs.Pos(), fmt.Sprintf(
						"NextBatch slab stored into package variable %s outlives the batch: the slab is only valid until the next NextBatch/Close (copy the slice)",
						lhs.Name))
				}
			}
		}
		return true
	})

	// Pass 3: flag slab uses inside closures that are not invoked on the
	// spot — by the time a goroutine or stored callback runs, the producer
	// may have reclaimed the slab.
	parents := parentMap(body)
	for _, lit := range nestedFuncLits(body) {
		if call, ok := parents[lit].(*ast.CallExpr); ok && call.Fun == lit {
			continue // immediately invoked: runs before the next NextBatch
		}
		ast.Inspect(lit, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := info.Uses[id]; obj != nil && slabs[obj] {
				p.Report("slabown", id.Pos(), fmt.Sprintf(
					"NextBatch slab %s captured by an escaping closure: the closure may run after the slab is reclaimed (copy the rows before capture)", id.Name))
				return false
			}
			return true
		})
	}
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
