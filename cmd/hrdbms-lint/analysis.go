package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding. Path, when set, is the concrete
// control-flow path the finding is about (path-sensitive rules).
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
	Path string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
	if d.Path != "" {
		s += " [" + d.Path + "]"
	}
	return s
}

// Pass carries one package through every analyzer and collects findings.
type Pass struct {
	Pkg   *Package
	Locks *LockIndex // module-level lock model (lockorder)
	diags []Diagnostic
}

// Analyzer is one lint rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// Analyzers is the full rule set, in reporting order.
var Analyzers = []*Analyzer{
	pinpairAnalyzer,
	txnpairAnalyzer,
	workerpairAnalyzer,
	spanpairAnalyzer,
	slabownAnalyzer,
	vecownAnalyzer,
	lockorderAnalyzer,
	walerrAnalyzer,
	sendstopAnalyzer,
	rowchanAnalyzer,
}

// Report records a finding unless a lint:ignore comment suppresses it.
func (p *Pass) Report(rule string, pos token.Pos, msg string) {
	p.ReportPath(rule, pos, msg, "")
}

// ReportPath records a finding carrying the concrete control-flow path it
// was proven on.
func (p *Pass) ReportPath(rule string, pos token.Pos, msg, path string) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{Pos: position, Rule: rule, Msg: msg, Path: path})
}

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+(.+)`)

// suppressionSet indexes the package's `//lint:ignore <rule> <reason>`
// comments: a directive suppresses the rule on its own line (trailing
// comment) and on the following line. The directive list is kept so unused
// directives can themselves be reported (staleignore).
type suppressionSet struct {
	byLine     map[string]map[int]map[string]bool // filename -> line -> rules
	directives []ignoreDirective
}

// ignoreDirective is one //lint:ignore comment.
type ignoreDirective struct {
	file string
	line int
	pos  token.Pos
	rule string
}

func suppressions(fset *token.FileSet, files []*ast.File) *suppressionSet {
	sup := &suppressionSet{byLine: map[string]map[int]map[string]bool{}}
	add := func(file string, line int, rule string) {
		if sup.byLine[file] == nil {
			sup.byLine[file] = map[int]map[string]bool{}
		}
		if sup.byLine[file][line] == nil {
			sup.byLine[file][line] = map[string]bool{}
		}
		sup.byLine[file][line][rule] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				sup.directives = append(sup.directives, ignoreDirective{
					file: pos.Filename, line: pos.Line, pos: c.Pos(), rule: m[1]})
				add(pos.Filename, pos.Line, m[1])
				add(pos.Filename, pos.Line+1, m[1])
			}
		}
	}
	return sup
}

// filterSuppressed drops diagnostics covered by lint:ignore comments,
// returning the survivors and the set of (file, line, rule) suppression
// hits that were actually exercised.
func filterSuppressed(diags []Diagnostic, sup *suppressionSet) ([]Diagnostic, map[string]bool) {
	used := map[string]bool{}
	var out []Diagnostic
	for _, d := range diags {
		if lines, ok := sup.byLine[d.Pos.Filename]; ok {
			if rules, ok := lines[d.Pos.Line]; ok && rules[d.Rule] {
				used[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Rule)] = true
				continue
			}
		}
		out = append(out, d)
	}
	return out, used
}

// staleSuppressions reports every //lint:ignore directive that silenced
// nothing this run: suppressions must not outlive the code they excused.
func staleSuppressions(pkg *Package, sup *suppressionSet, used map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range sup.directives {
		if used[fmt.Sprintf("%s:%d:%s", d.file, d.line, d.rule)] ||
			used[fmt.Sprintf("%s:%d:%s", d.file, d.line+1, d.rule)] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:  pkg.Fset.Position(d.pos),
			Rule: "staleignore",
			Msg:  fmt.Sprintf("//lint:ignore %s suppresses nothing here; remove it (or fix the rule name)", d.rule),
		})
	}
	return out
}

// sortDiags orders diagnostics by position for stable output.
func sortDiags(out []Diagnostic) []Diagnostic {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// RunAnalyzersWithIndex applies every analyzer to the package, using a
// shared module-level lock index, and returns the unsuppressed findings
// plus the rule names that were actually suppressed per file/line (for
// stale-suppression detection).
func RunAnalyzersWithIndex(pkg *Package, locks *LockIndex) []Diagnostic {
	pass := &Pass{Pkg: pkg, Locks: locks}
	for _, a := range Analyzers {
		a.Run(pass)
	}
	sup := suppressions(pkg.Fset, pkg.Files)
	out, used := filterSuppressed(pass.diags, sup)
	out = append(out, staleSuppressions(pkg, sup, used)...)
	return sortDiags(out)
}

// isTestFile reports whether the position is inside a _test.go file.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Pkg.Fset.Position(pos).Filename, "_test.go")
}

// parentMap records the enclosing node of every node under root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// calleeName returns the bare name of a call's function: the method name
// for selector calls, the identifier for direct calls, "" otherwise.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return ""
}

// calleeFunc resolves a call's static callee to its types.Func, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	case *ast.Ident:
		obj = info.Uses[fn]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// resultTuple returns the call's result types (handling single and tuple
// results uniformly), or nil when unknown.
func resultTuple(info *types.Info, call *ast.CallExpr) []types.Type {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		return []types.Type{t}
	}
}

// isNamedPtr reports whether t is a pointer to (or directly) the named type
// pkgSuffix.name, e.g. ("internal/buffer", "Frame").
func isNamedPtr(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// funcBodies yields every function body in the file with its descriptive
// name: declared functions/methods and (nested) function literals.
func funcBodies(f *ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn(fd.Name.Name, fd.Body)
	}
}
