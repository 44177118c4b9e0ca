// Command benchgate turns `go test -bench -benchmem` output into a
// versioned JSON ledger and enforces the microbenchmark bars the system's
// low-overhead claims rest on.
//
// It reads the concatenated output of one or more `go test -bench` runs on
// stdin and writes the ledger to stdout: every row under its package, the
// ratios the bars divide, and the host the rows were measured on. It exits
// 1, naming each one on stderr, if any bar is violated. Build it with
// `go build`, not `go run`, so the ledger records the commit it was built
// from:
//
//	go build -o /tmp/benchgate ./cmd/benchgate
//	go test -bench BenchmarkObs -benchmem -run XXX ./internal/obs/ | /tmp/benchgate
//
// A bar applies when its package appears in the input, and a row it names
// must then be present, as must each row the ledgers record without a bar,
// so a renamed benchmark cannot silently stop being checked or recorded.
// Every package in the input must report at least one row.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// schemaVersion is the ledger layout's version. Versions 1 and 2 were the
// per-job layouts the ledgers had before this command wrote them.
const schemaVersion = 3

const (
	corePkg  = "hangdoctor/internal/core"
	fleetPkg = "hangdoctor/internal/fleet"
	obsPkg   = "hangdoctor/internal/obs"
	simPkg   = "hangdoctor/internal/sim"
)

// allocFree lists the rows that must report 0 allocs/op: every row whose
// name contains match, and each row in rows, which must be present.
var allocFree = []struct {
	pkg   string
	match string
	rows  []string
}{
	{pkg: corePkg, match: "BenchmarkAnalyzeTraces"},
	{pkg: corePkg, match: "BenchmarkCausalAnalyze"},
	{pkg: obsPkg, match: "CounterInc", rows: []string{"BenchmarkObsCounterInc", "BenchmarkObsCounterIncParallel"}},
	{pkg: obsPkg, match: "HistogramObserve", rows: []string{"BenchmarkObsHistogramObserve"}},
	{pkg: fleetPkg, rows: []string{"BenchmarkBinaryDecode"}},
	{pkg: simPkg, rows: []string{"BenchmarkSimEngine/tick", "BenchmarkSimEngine/tick-http"}},
}

// recorded lists rows the ledgers keep under no bar of their own. Like the
// rows a bar names, each must be present when its package is and, where
// with is set, the package holds a row whose name contains with: core's
// monitored-action rows ride in the diagnoser ledger, not the causal one.
var recorded = []struct {
	pkg, with string
	rows      []string
}{
	{corePkg, "BenchmarkAnalyzeTraces", []string{
		"BenchmarkMonitoredAction/filtered", "BenchmarkMonitoredAction/scheck",
		"BenchmarkMonitoredAction/diagnosing", "BenchmarkMonitoredAction/await",
		"BenchmarkMonitoredSession",
	}},
	{fleetPkg, "", []string{"BenchmarkSerialMerge", "BenchmarkRegionalPoll/full", "BenchmarkRegionalPoll/delta", "BenchmarkRegionalPoll/churn"}},
	{simPkg, "", []string{
		"BenchmarkSimEngine/inproc/workers=1", "BenchmarkSimEngine/inproc/workers=2",
		"BenchmarkSimEngine/inproc/workers=4", "BenchmarkSimEngine/inproc/workers=8",
		"BenchmarkSimEngine/sched/workers=2", "BenchmarkSimEngine/sched/workers=4",
		"BenchmarkSimEngineHTTP",
	}},
}

// speedups lists the bars on ns/op ratios: num's ns/op divided by den's must
// reach bar(gomaxprocs).
var speedups = []struct {
	pkg, num, den string
	bar           func(gomaxprocs int) float64
}{
	{fleetPkg, "BenchmarkIngest/json/shards=4", "BenchmarkIngest/binary/shards=4", flat(10)},
	{fleetPkg, "BenchmarkFold/cold", "BenchmarkFold/warm", flat(5)},
	{fleetPkg, "BenchmarkFold/cold", "BenchmarkFold/dirty1pct", flat(5)},
	{simPkg, "BenchmarkSimEngine/sched/workers=1", "BenchmarkSimEngine/sched/workers=8", schedBar},
}

func flat(bar float64) func(int) float64 { return func(int) float64 { return bar } }

// schedBar is the worker-scaling bar for the simulator's scheduler: 5x with
// 8 or more procs, 0.45x per proc on smaller hosts, and on one proc only
// that sharding costs at most a quarter of the throughput.
func schedBar(procs int) float64 {
	switch {
	case procs >= 8:
		return 5
	case procs >= 2:
		return 0.45 * float64(procs)
	default:
		return 0.75
	}
}

// ledger is what the gate writes.
type ledger struct {
	Version int  `json:"version"`
	Host    host `json:"host"`
	// Packages maps each package to its rows, and each row name, without
	// the GOMAXPROCS suffix, to its iteration count and its value per unit
	// ("ns/op", "B/op", "allocs/op", "MB/s" and any custom unit).
	Packages map[string]map[string]map[string]float64 `json:"packages"`
	Ratios   []ratio                                  `json:"ratios"`
}

type host struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"vcs.revision,omitempty"`
	Modified   string `json:"vcs.modified,omitempty"`
}

type ratio struct {
	Pkg   string  `json:"pkg"`
	Num   string  `json:"num"`
	Den   string  `json:"den"`
	Value float64 `json:"value"`
	Bar   float64 `json:"bar"`
}

func main() {
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr))
}

func run(stdin io.Reader, stdout, stderr io.Writer) int {
	l, failed, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	violations := check(l, failed)
	l.Host.Cores = runtime.NumCPU()
	l.Host.Go = runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				l.Host.Revision = s.Value
			case "vcs.modified":
				l.Host.Modified = s.Value
			}
		}
	}
	out, err := json.MarshalIndent(l, "", "  ")
	if err == nil {
		_, err = stdout.Write(append(out, '\n'))
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	for _, v := range violations {
		fmt.Fprintln(stderr, "benchgate: FAIL:", v)
	}
	if len(violations) > 0 {
		return 1
	}
	return 0
}

var procsSuffix = regexp.MustCompile(`-([0-9]+)$`)

// parse reads go test -bench output into a ledger without the host facts
// the gate reads from itself, and lists the packages go test reported FAIL
// for. A package is in the input when a `pkg:` header or go test's closing
// ok or FAIL line names it.
func parse(r io.Reader) (l *ledger, failed []string, err error) {
	l = &ledger{Version: schemaVersion, Packages: map[string]map[string]map[string]float64{}, Ratios: []ratio{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case len(f) < 2:
		case strings.HasPrefix(line, "pkg: "):
			pkg = f[1]
			if l.Packages[pkg] == nil {
				l.Packages[pkg] = map[string]map[string]float64{}
			}
		case strings.HasPrefix(line, "cpu: "):
			if l.Host.CPU == "" {
				l.Host.CPU = strings.TrimSpace(line[len("cpu: "):])
			}
		case strings.HasPrefix(line, "ok  \t"), strings.HasPrefix(line, "FAIL\t"):
			if l.Packages[f[1]] == nil {
				l.Packages[f[1]] = map[string]map[string]float64{}
			}
			if f[0] == "FAIL" {
				failed = append(failed, f[1])
			}
		case strings.HasPrefix(line, "Benchmark"):
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				continue // a name printed ahead of a benchmark's log lines
			}
			if pkg == "" {
				return nil, nil, fmt.Errorf("row %s before any pkg: header", f[0])
			}
			if len(f)%2 != 0 {
				return nil, nil, fmt.Errorf("%s: row %s: a value without a unit", pkg, f[0])
			}
			row := map[string]float64{"iterations": float64(n)}
			for i := 2; i < len(f); i += 2 {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("%s: row %s: %s: %v", pkg, f[0], f[i+1], err)
				}
				row[f[i+1]] = v
			}
			if _, dup := l.Packages[pkg][f[0]]; dup {
				return nil, nil, fmt.Errorf("%s: row %s appears twice (run with -count 1)", pkg, f[0])
			}
			l.Packages[pkg][f[0]] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}

	// Go appends -N to every row name when GOMAXPROCS is N > 1. Row names
	// may end in digits themselves, so the suffix is read as GOMAXPROCS
	// only when every row of the package carries the same one.
	for _, p := range sortedKeys(l.Packages) {
		rows := l.Packages[p]
		if len(rows) == 0 {
			continue
		}
		procs, suffix := 1, ""
		for name := range rows {
			m := procsSuffix.FindStringSubmatch(name)
			if m == nil || (suffix != "" && m[1] != suffix) {
				suffix = ""
				break
			}
			suffix = m[1]
		}
		if suffix != "" {
			procs, _ = strconv.Atoi(suffix)
			stripped := map[string]map[string]float64{}
			for name, row := range rows {
				stripped[strings.TrimSuffix(name, "-"+suffix)] = row
			}
			l.Packages[p] = stripped
		}
		if l.Host.GOMAXPROCS != 0 && procs != l.Host.GOMAXPROCS {
			return nil, nil, fmt.Errorf("%s ran at GOMAXPROCS %d, a package before it at %d", p, procs, l.Host.GOMAXPROCS)
		}
		l.Host.GOMAXPROCS = procs
	}
	if l.Host.GOMAXPROCS == 0 {
		l.Host.GOMAXPROCS = 1
	}
	return l, failed, nil
}

// check adds the ratios the bars divide to l and lists every violated bar.
func check(l *ledger, failed []string) []string {
	var bad []string
	if len(l.Packages) == 0 {
		bad = append(bad, "the input names no package")
	}
	for _, p := range sortedKeys(l.Packages) {
		if len(l.Packages[p]) == 0 {
			bad = append(bad, fmt.Sprintf("%s: no benchmark rows", p))
		}
	}
	for _, p := range failed {
		bad = append(bad, fmt.Sprintf("%s: go test reported FAIL", p))
	}

	// lookup returns the row, or records it as missing.
	lookup := func(pkg, name string) map[string]float64 {
		row := l.Packages[pkg][name]
		if row == nil {
			bad = append(bad, fmt.Sprintf("%s: row %s is missing", pkg, name))
		}
		return row
	}
	zeroAllocs := func(pkg, name string, row map[string]float64) {
		if allocs, ok := row["allocs/op"]; !ok {
			bad = append(bad, fmt.Sprintf("%s: %s reports no allocs/op (run with -benchmem)", pkg, name))
		} else if allocs != 0 {
			bad = append(bad, fmt.Sprintf("%s: %s makes %g allocs/op, want 0", pkg, name, allocs))
		}
	}
	for _, b := range allocFree {
		rows, ok := l.Packages[b.pkg]
		if !ok {
			continue
		}
		for _, name := range b.rows {
			lookup(b.pkg, name)
		}
		for _, name := range sortedKeys(rows) {
			if (b.match != "" && strings.Contains(name, b.match)) || slices.Contains(b.rows, name) {
				zeroAllocs(b.pkg, name, rows[name])
			}
		}
	}
	for _, r := range recorded {
		if rows, ok := l.Packages[r.pkg]; ok && hasRow(rows, r.with) {
			for _, name := range r.rows {
				lookup(r.pkg, name)
			}
		}
	}
	procs := l.Host.GOMAXPROCS
	for _, s := range speedups {
		if _, ok := l.Packages[s.pkg]; !ok {
			continue
		}
		num, den := lookup(s.pkg, s.num), lookup(s.pkg, s.den)
		if num == nil || den == nil {
			continue
		}
		if num["ns/op"] <= 0 || den["ns/op"] <= 0 {
			bad = append(bad, fmt.Sprintf("%s: %s or %s reports no positive ns/op", s.pkg, s.num, s.den))
			continue
		}
		v, bar := num["ns/op"]/den["ns/op"], s.bar(procs)
		if v < bar {
			bad = append(bad, fmt.Sprintf("%s: %s ÷ %s = %.3f in ns/op, below the %g bar at GOMAXPROCS %d",
				s.pkg, s.num, s.den, v, bar, procs))
		}
		l.Ratios = append(l.Ratios, ratio{Pkg: s.pkg, Num: s.num, Den: s.den, Value: math.Round(v*100) / 100, Bar: bar})
	}
	return bad
}

// hasRow reports whether rows holds a row whose name contains sub; every
// set of rows holds one for an empty sub.
func hasRow(rows map[string]map[string]float64, sub string) bool {
	if sub == "" {
		return true
	}
	for name := range rows {
		if strings.Contains(name, sub) {
			return true
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
