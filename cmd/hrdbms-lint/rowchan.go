package main

import "go/ast"

// rowchanPkgs are the packages whose channels sit on the query hot path:
// a `chan types.Row` there reintroduces the per-row channel select the
// vectorized execution path exists to amortize away.
var rowchanPkgs = map[string]bool{
	"repro/internal/exec":    true,
	"repro/internal/cluster": true,
	"repro/internal/srv":     true,
}

// rowchanAnalyzer flags `chan types.Row` (any direction) in exec/cluster
// hot paths: rows must cross goroutine boundaries in slabs
// (`chan []types.Row`), one select per batch instead of per row.
var rowchanAnalyzer = &Analyzer{
	Name: "rowchan",
	Doc:  "flags per-row channels (chan types.Row) on execution hot paths; move rows in slabs",
	Run:  runRowchan,
}

func runRowchan(p *Pass) {
	if !rowchanPkgs[p.Pkg.Path] {
		return
	}
	for _, f := range p.Pkg.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ct, ok := n.(*ast.ChanType)
			if !ok {
				return true
			}
			tv, ok := p.Pkg.Info.Types[ct.Value]
			if !ok {
				return true
			}
			if isNamedPtr(tv.Type, "internal/types", "Row") {
				p.Report("rowchan", ct.Pos(),
					"chan types.Row on a hot path pays one channel select per row; "+
						"move rows in slabs (chan []types.Row, as exec.Operator does)")
			}
			return true
		})
	}
}
