package hangdoctor

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestCIPatternsNameFunctions fails when a go test command in the CI
// workflow selects with a -run, -bench or -fuzz pattern one of whose
// alternatives matches no test, benchmark or fuzz function in the packages
// the command names: a renamed or deleted test would otherwise turn that
// step into a silent no-op.
func TestCIPatternsNameFunctions(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	problems, commands, err := checkCIPatterns(".", string(yml))
	if err != nil {
		t.Fatal(err)
	}
	if commands == 0 {
		t.Error("found no go test command with a pattern in the CI workflow")
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestCIPatternsScan drives the check over a synthetic workflow and tree:
// a stale alternative is reported by name, continued lines and -C module
// directories are followed, and the XXX placeholder is exempt.
func TestCIPatternsScan(t *testing.T) {
	root := t.TempDir()
	for rel, src := range map[string]string{
		"go.mod":               "module demo\n",
		"a/a_test.go":          "package a\n\nfunc TestAlpha() {}\nfunc BenchmarkAlpha() {}\nfunc FuzzAlpha() {}\n",
		"b/b_test.go":          "package b\n\nfunc TestBeta() {}\n",
		"tool/go.mod":          "module demo/tool\n",
		"tool/tool_test.go":    "package main\n\nfunc TestTool() {}\n",
		"a/testdata/x_test.go": "package x\n\nfunc TestHidden() {}\n",
	} {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	yml := `      - run: go test -race -run 'Alpha|Gone' ./a/ ./b/
      - run: |
          go test -bench 'Alpha$' -benchtime 1x \
            -run 'XXX' ./a/ | tee /dev/stderr
          go test -fuzz FuzzAlpha -run XXX ./a/
          go test -run 'Beta|Tool' ./...
          go -C tool test -run 'Tool|Hidden' .
`
	problems, commands, err := checkCIPatterns(root, yml)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`go test -run alternative "Gone" matches no function in ./a/ ./b/`,
		`go test -run alternative "Hidden" matches no function in tool: .`,
		`go test -run alternative "Tool" matches no function in ./...`,
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
	if commands != 5 {
		t.Errorf("checked %d commands, want 5", commands)
	}
}

// ciPatternFlags maps each selecting flag of go test to the function
// prefixes its pattern chooses among.
var ciPatternFlags = map[string][]string{
	"run":   {"Test", "Fuzz", "Example"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// ciValueFlags are the go test flags, other than the selecting ones, that
// the workflow passes a separate value.
var ciValueFlags = map[string]bool{"benchtime": true, "fuzztime": true, "count": true, "timeout": true, "cpu": true}

// checkCIPatterns finds every go test command in yml, a workflow whose
// backslash-continued lines are joined first, and returns one line per
// alternative of a -run, -bench or -fuzz pattern (the XXX placeholder
// aside) that matches no function of the right kind in the packages the
// command names, with the number of commands that carried a pattern.
func checkCIPatterns(root, yml string) (problems []string, commands int, err error) {
	for _, line := range strings.Split(strings.ReplaceAll(yml, "\\\n", " "), "\n") {
		words := shellWords(line)
		for i := range words {
			dir, rest, ok := goTestArgs(words[i:])
			if !ok {
				continue
			}
			patterns, pkgs := parseGoTest(rest)
			if len(patterns) == 0 {
				continue
			}
			commands++
			funcs, err := testFuncs(filepath.Join(root, dir), pkgs)
			if err != nil {
				return nil, 0, err
			}
			where := strings.Join(pkgs, " ")
			if dir != "." {
				where = dir + ": " + where
			}
			for _, p := range patterns {
				for _, alt := range patternAlternatives(p.value) {
					re, err := regexp.Compile(alt)
					if err != nil {
						return nil, 0, fmt.Errorf("ci pattern %q: %w", p.value, err)
					}
					if !matchesAny(re, funcs, ciPatternFlags[p.flag]) {
						problems = append(problems, fmt.Sprintf("go test -%s alternative %q matches no function in %s", p.flag, alt, where))
					}
				}
			}
		}
	}
	sort.Strings(problems)
	return problems, commands, nil
}

// shellWords splits a command line into words, honouring single and double
// quotes, and stops at a comment.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '#' && !inWord:
			return words
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// goTestArgs recognizes "go test ..." and "go -C dir test ..." at the
// start of words and returns the module directory and the words after
// "test".
func goTestArgs(words []string) (dir string, rest []string, ok bool) {
	if len(words) < 2 || words[0] != "go" {
		return "", nil, false
	}
	dir, words = ".", words[1:]
	if len(words) >= 2 && words[0] == "-C" {
		dir, words = words[1], words[2:]
	}
	if len(words) == 0 || words[0] != "test" {
		return "", nil, false
	}
	return dir, words[1:], true
}

// ciPattern is one selecting flag of a go test command and its value.
type ciPattern struct{ flag, value string }

// parseGoTest splits go test's arguments into its selecting patterns and
// its package arguments, up to the first shell operator.
func parseGoTest(args []string) (patterns []ciPattern, pkgs []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			if strings.ContainsAny(a, "|&;>") {
				break
			}
			pkgs = append(pkgs, a)
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		_, selects := ciPatternFlags[name]
		if !hasValue && (selects || ciValueFlags[name]) && i+1 < len(args) {
			i++
			value = args[i]
		}
		if selects && value != "XXX" {
			patterns = append(patterns, ciPattern{name, value})
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return patterns, pkgs
}

// patternAlternatives returns the top-level alternatives of a go test
// pattern's first level, the part before any top-level slash that selects
// subtests.
func patternAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return append(alts, pattern[start:i])
			}
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// testFuncs returns the names of the top-level functions in the _test.go
// files of the packages pkgs names, relative to dir. A pattern ending in
// "/..." takes every package below it in dir's module: nested modules,
// dot-directories and testdata are skipped, as go test skips them.
func testFuncs(dir string, pkgs []string) ([]string, error) {
	var names []string
	addDir := func(d string) error {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	}
	for _, pkg := range pkgs {
		base, recursive := strings.CutSuffix(pkg, "/...")
		base = filepath.Join(dir, base)
		if !recursive {
			if err := addDir(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != base {
				if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return addDir(p)
		})
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}

// matchesAny reports whether re matches a name with one of the prefixes.
func matchesAny(re *regexp.Regexp, names, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}
