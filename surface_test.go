package hangdoctor

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedAllowlist names the exported declarations that stay exported
// although no non-test code uses them, each with who needs it. Keys are
// package name, then receiver type for methods, then the name.
var exportedAllowlist = map[string]string{
	"hangdoctor.MergeMetrics":          "root API: README's metrics section folds many Doctors' snapshots with it",
	"core.HeavyAdapt":                  "paper §3.3.1 heavy adaptation, driven only by tests until fleet-driven adaptation lands",
	"core.Doctor.WideData":             "the wide-event readings HeavyAdapt consumes, for the same adaptation",
	"core.BinaryDecoder.DecodeScratch": "CI's allocation-free and binary-vs-JSON decode gates time it",
	"simclock.Clock.RunUntilIdle":      "tests of the substrate packages (cpu, looper, render, perf, trace, app) drain the clock with it",
	"app.Device.Quiet":                 "tests in app and detect build interference-free devices from it",
	"corpus.SampledTraces":             "core's Trace Analyzer tests and benchmarks draw corpus-shaped traces from it",
}

// maxAllowlist caps the allowlist so it stays a list of exceptions.
const maxAllowlist = 10

// TestExportedSurface fails on any exported declaration of a non-main
// package that no non-test file uses and that is not on the allowlist, and
// on any allowlist entry that has gained a non-test use or names nothing.
// The scan matches identifiers by name across every .go file of the tree,
// cmd/bench's separate module included, so a method that shares its name
// with a used one passes.
func TestExportedSurface(t *testing.T) {
	if len(exportedAllowlist) > maxAllowlist {
		t.Errorf("allowlist has %d entries, want at most %d", len(exportedAllowlist), maxAllowlist)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for key, why := range exportedAllowlist {
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
		// A root-package entry is public API only if the README shows it.
		if name, ok := strings.CutPrefix(key, "hangdoctor."); ok && !strings.Contains(string(readme), name) {
			t.Errorf("allowlist entry %s is root API that README.md never mentions", key)
		}
	}
	problems, summary, err := checkExportedSurface(".", exportedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Log(summary)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExportedSurfaceScan drives the scan over a synthetic tree: a
// test-only or unused export is flagged, a use from another package or
// from a separate module clears it, an allowlisted name passes, and a
// stale or dangling allowlist entry fails.
func TestExportedSurfaceScan(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module demo\n")
	write("lib/lib.go", `package lib

type T struct{}

func (T) TestOnlyMethod() {}

func TestOnly()      {}
func Unused()        {}
func UsedInPackage() {}
func UsedElsewhere() {}
func UsedByBench()   {}
func Allowed()       {}
func StaleAllowed()  {}

func helper() { UsedInPackage() }
`)
	write("lib/lib_test.go", `package lib

func use() { T{}.TestOnlyMethod(); Allowed(); TestOnly() }
`)
	write("cmd/app/main.go", `package main

import "demo/lib"

func main() { lib.UsedElsewhere(); lib.StaleAllowed() }
`)
	write("bench/go.mod", "module demo/bench\n")
	write("bench/main.go", `package main

import "demo/lib"

func main() { lib.UsedByBench() }
`)
	// Dot-directories and testdata are not part of the tree.
	write(".cache/x.go", "package main\n\nfunc main() { lib.Unused() }\n")
	write("lib/testdata/x.go", "package main\n\nfunc main() { lib.Unused() }\n")

	allow := map[string]string{
		"lib.Allowed":      "needed by a test elsewhere",
		"lib.StaleAllowed": "no longer needed",
		"lib.Missing":      "names nothing",
	}
	problems, summary, err := checkExportedSurface(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist entry lib.Missing: names no exported declaration",
		"allowlist entry lib.StaleAllowed: non-test code uses it now; drop the entry",
		"lib.T.TestOnlyMethod: exported but only tests use it; " + fixTestOnly,
		"lib.TestOnly: exported but only tests use it; " + fixTestOnly,
		"lib.Unused: exported but nothing uses it; delete it",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
	// Flagged: the two test-only names, Unused and the allowlisted Allowed.
	if wantSummary := "scan flagged 4 exported declarations (1 unused, 3 used only by tests)"; summary != wantSummary {
		t.Errorf("summary = %q, want %q", summary, wantSummary)
	}
}

// surfaceDecl is one exported declaration of a non-main package.
type surfaceDecl struct {
	key, name string
}

// fixTestOnly lists the ways to resolve a test-only export.
const fixTestOnly = "delete it, unexport it, move it into a _test.go file or allowlist it with a reason"

// checkExportedSurface scans the tree under root and returns one line per
// exported declaration that no non-test file uses and allow does not list,
// and one per allow entry that is not such a declaration, with a summary
// of what the scan flagged.
func checkExportedSurface(root string, allow map[string]string) (problems []string, summary string, err error) {
	decls, nonTest, test, err := scanExportedSurface(root)
	if err != nil {
		return nil, "", err
	}
	declared := map[string]string{} // key → name
	flagged, unused := 0, 0
	for _, d := range decls {
		declared[d.key] = d.name
		if nonTest[d.name] > 0 {
			continue
		}
		flagged++
		if test[d.name] == 0 {
			unused++
		}
		if _, ok := allow[d.key]; ok {
			continue
		}
		if test[d.name] == 0 {
			problems = append(problems, d.key+": exported but nothing uses it; delete it")
		} else {
			problems = append(problems, d.key+": exported but only tests use it; "+fixTestOnly)
		}
	}
	for key := range allow {
		name, ok := declared[key]
		switch {
		case !ok:
			problems = append(problems, "allowlist entry "+key+": names no exported declaration")
		case nonTest[name] > 0:
			problems = append(problems, "allowlist entry "+key+": non-test code uses it now; drop the entry")
		}
	}
	sort.Strings(problems)
	summary = fmt.Sprintf("scan flagged %d exported declarations (%d unused, %d used only by tests)", flagged, unused, flagged-unused)
	return problems, summary, nil
}

// scanExportedSurface parses every .go file under root, skipping
// dot-directories and testdata, and returns the exported declarations of
// non-main packages (top-level functions, types, variables and constants,
// and methods of exported types) with the number of times each identifier
// name occurs in non-test and in test files, declarations' own names
// excluded.
func scanExportedSurface(root string) (decls []surfaceDecl, nonTest, test map[string]int, err error) {
	fset := token.NewFileSet()
	var files []*ast.File
	var isTest []bool
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		isTest = append(isTest, strings.HasSuffix(path, "_test.go"))
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	own := map[*ast.Ident]bool{}
	add := func(key string, id *ast.Ident) {
		decls = append(decls, surfaceDecl{key, id.Name})
		own[id] = true
	}
	for i, f := range files {
		pkg := f.Name.Name
		if isTest[i] || pkg == "main" {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(pkg+"."+d.Name.Name, d.Name)
				} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
					add(pkg+"."+recv+"."+d.Name.Name, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(pkg+"."+s.Name.Name, s.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(pkg+"."+n.Name, n)
							}
						}
					}
				}
			}
		}
	}
	nonTest, test = map[string]int{}, map[string]int{}
	for i, f := range files {
		uses := nonTest
		if isTest[i] {
			uses = test
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
	}
	return decls, nonTest, test, nil
}

// recvName returns the type name of a method receiver (T, *T, T[P] or *T[P]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
