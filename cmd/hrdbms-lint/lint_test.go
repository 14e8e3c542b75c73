package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"go/ast"
)

// exportMap builds the import-path → export-data map for the repo's
// internal packages and their transitive (stdlib) dependencies, shared by
// every fixture case.
func exportMap(t *testing.T) map[string]string {
	t.Helper()
	listed, err := goList(".", []string{"repro/internal/..."})
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// loadFixture parses and type-checks one testdata directory under the given
// package path, returning the package and the expected diagnostics as
// "line" → substring.
func loadFixture(t *testing.T, exports map[string]string, dir, pkgPath string) (*Package, map[int]string) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	wants := map[int]string{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants[i+1] = m[1]
			}
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	imp := newExportImporter(fset, exports)
	typesPkg, info, err := checkFiles(fset, pkgPath, files, imp)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", dir, err)
	}
	return &Package{Path: pkgPath, Fset: fset, Files: files, Types: typesPkg, Info: info}, wants
}

// RunAnalyzers is RunAnalyzersWithIndex with a lock index built from the
// single package, as a self-contained fixture needs.
func RunAnalyzers(pkg *Package) []Diagnostic {
	return RunAnalyzersWithIndex(pkg, BuildLockIndex([]*Package{pkg}))
}

// TestAnalyzersOnFixtures checks, per analyzer, that every marked violation
// is caught, that clean and suppressed code produces no findings, and that
// at least one true positive exists per rule.
func TestAnalyzersOnFixtures(t *testing.T) {
	exports := exportMap(t)
	cases := []struct {
		dir     string
		pkgPath string // package-gated rules load under the gated path
		rule    string
	}{
		{"pinpair", "fixtures/pinpair", "pinpair"},
		{"txnpair", "fixtures/txnpair", "txnpair"},
		{"workerpair", "repro/internal/cluster", "workerpair"},
		{"spanpair", "fixtures/spanpair", "spanpair"},
		{"slabown", "fixtures/slabown", "slabown"},
		{"vecown", "fixtures/vecown", "vecown"},
		{"lockorder", "fixtures/lockorder", "lockorder"},
		{"walerr", "fixtures/walerr", "walerr"},
		{"sendstop", "repro/internal/cluster", "sendstop"},
		{"rowchan", "repro/internal/exec", "rowchan"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, wants := loadFixture(t, exports, filepath.Join("testdata", tc.dir), tc.pkgPath)
			diags := RunAnalyzers(pkg)

			matched := map[int]bool{}
			caught := 0
			for _, d := range diags {
				want, ok := wants[d.Pos.Line]
				if !ok {
					t.Errorf("unexpected diagnostic (suppression or clean code misfired): %s", d)
					continue
				}
				if !strings.Contains(d.Msg, want) {
					t.Errorf("line %d: diagnostic %q does not contain %q", d.Pos.Line, d.Msg, want)
				}
				if d.Rule == tc.rule {
					caught++
				}
				matched[d.Pos.Line] = true
			}
			for line, want := range wants {
				if !matched[line] {
					t.Errorf("line %d: expected diagnostic containing %q, got none", line, want)
				}
			}
			if caught == 0 {
				t.Errorf("analyzer %s caught no violations in its fixture", tc.rule)
			}
		})
	}
}

// TestLeakPathReported pins the path-sensitive half of the pairing rules:
// a branch leak's diagnostic names the concrete line sequence it was
// proven on.
func TestLeakPathReported(t *testing.T) {
	exports := exportMap(t)
	pkg, _ := loadFixture(t, exports, filepath.Join("testdata", "pinpair"), "fixtures/pinpair")
	found := false
	for _, d := range RunAnalyzers(pkg) {
		if d.Rule != "pinpair" || !strings.Contains(d.Msg, "reported path") {
			continue
		}
		found = true
		if !strings.Contains(d.Path, "line ") {
			t.Errorf("leak diagnostic %s carries no concrete path (Path=%q)", d, d.Path)
		}
		if !strings.Contains(d.String(), "["+d.Path+"]") {
			t.Errorf("String() does not render the path: %s", d)
		}
	}
	if !found {
		t.Fatal("no path-sensitive pinpair leak found in the fixture")
	}
}

// TestSuppressionRequiresRuleMatch: a lint:ignore for one rule must not
// silence another rule on the same line, and exercised suppressions are
// reported back for staleness accounting.
func TestSuppressionRequiresRuleMatch(t *testing.T) {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "x.go", Line: 10}, Rule: "pinpair", Msg: "m"},
		{Pos: token.Position{Filename: "x.go", Line: 20}, Rule: "walerr", Msg: "m"},
	}
	sup := &suppressionSet{byLine: map[string]map[int]map[string]bool{
		"x.go": {10: {"walerr": true}, 20: {"walerr": true}},
	}}
	out, used := filterSuppressed(diags, sup)
	if len(out) != 1 || out[0].Rule != "pinpair" {
		t.Fatalf("filterSuppressed = %v, want only the pinpair finding", out)
	}
	if !used["x.go:20:walerr"] {
		t.Fatalf("used = %v, want the exercised walerr suppression recorded", used)
	}
	if used["x.go:10:walerr"] {
		t.Fatalf("used = %v, the rule-mismatched directive must not count as exercised", used)
	}
}

// TestStaleSuppressionReported: a //lint:ignore that silences nothing is
// itself a finding.
func TestStaleSuppressionReported(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

func f() {
	//lint:ignore pinpair this excuses nothing
	_ = 1
}
`
	f, err := parser.ParseFile(fset, "stale.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := suppressions(fset, []*ast.File{f})
	if len(sup.directives) != 1 {
		t.Fatalf("parsed %d directives, want 1", len(sup.directives))
	}
	out, used := filterSuppressed(nil, sup)
	if len(out) != 0 {
		t.Fatalf("no diagnostics in, got %v out", out)
	}
	stale := staleSuppressions(&Package{Fset: fset}, sup, used)
	if len(stale) != 1 || stale[0].Rule != "staleignore" {
		t.Fatalf("staleSuppressions = %v, want one staleignore finding", stale)
	}
	if !strings.Contains(stale[0].Msg, "pinpair") {
		t.Fatalf("stale finding does not name the dead rule: %s", stale[0].Msg)
	}
}

// TestLintCleanOnRepo runs the full linter over the repository — with the
// module-level lock index, exactly as main does — pinning the invariant
// that production code stays lint-clean (CI gate parity).
func TestLintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list over the whole module")
	}
	pkgs, err := loadPackages("../..", []string{"./..."}, false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	locks := BuildLockIndex(pkgs)
	var all []string
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzersWithIndex(pkg, locks) {
			all = append(all, d.String())
		}
	}
	if len(all) > 0 {
		t.Errorf("repo is not lint-clean:\n%s", strings.Join(all, "\n"))
	}
	if len(pkgs) < 20 {
		t.Errorf("loaded only %d packages; loader lost coverage", len(pkgs))
	}
}
