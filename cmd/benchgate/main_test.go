package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The captures in testdata are the output of CI's six benchmark commands,
// recorded on a 2-vCPU Intel Xeon VM (GOMAXPROCS 2) in the same runs as
// the committed ledgers, BENCH_<capture>.json at the repository root:
//
//	experiments  go test -bench=. -benchtime=1x -benchmem -run XXX .
//	diagnoser    go test -bench BenchmarkAnalyzeTraces -benchtime 1s -benchmem -run XXX ./internal/core/
//	causal       go test -bench BenchmarkCausalAnalyze -benchtime 1s -benchmem -run XXX ./internal/core/
//	obs          go test -bench BenchmarkObs -benchtime 1s -benchmem -run XXX ./internal/obs/
//	fleet        go test -bench 'Ingest|BinaryDecode|SerialMerge|Fold|RegionalPoll|Compact|Replay' -benchtime 1s -benchmem -run XXX ./internal/fleet/
//	sim          go test -bench 'BenchmarkSimEngine(HTTP)?$' -benchtime 100000x -benchmem -run XXX ./internal/sim/
var captures = []string{"experiments", "diagnoser", "causal", "obs", "fleet", "sim"}

func readCapture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// gate parses text and checks it, failing the test on an input error.
func gate(t *testing.T, text string) (*ledger, []string) {
	t.Helper()
	l, failed, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return l, check(l, failed)
}

// editRows applies edit to the fields of every row line of text whose name,
// without its GOMAXPROCS suffix, is row ("" edits every row), and drops the
// line if edit returns nil.
func editRows(text, row string, edit func(f []string) []string) string {
	lines := strings.Split(text, "\n")
	out := lines[:0]
	for _, line := range lines {
		f := strings.Fields(line)
		if strings.HasPrefix(line, "Benchmark") && len(f) > 2 &&
			(row == "" || procsSuffix.ReplaceAllString(f[0], "") == row) {
			if f = edit(f); f == nil {
				continue
			}
			line = strings.Join(f, "\t")
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// setMetric sets row's value for unit.
func setMetric(t *testing.T, text, row, unit string, v float64) string {
	t.Helper()
	found := false
	text = editRows(text, row, func(f []string) []string {
		for i := 3; i < len(f); i += 2 {
			if f[i] == unit {
				f[i-1] = strconv.FormatFloat(v, 'f', -1, 64)
				found = true
			}
		}
		return f
	})
	if !found {
		t.Fatalf("no row %s with unit %s", row, unit)
	}
	return text
}

// metric returns row's value for unit as text reports it.
func metric(t *testing.T, text, pkg, row, unit string) float64 {
	t.Helper()
	l, _ := gate(t, text)
	v, ok := l.Packages[pkg][row][unit]
	if !ok {
		t.Fatalf("%s: no row %s with unit %s", pkg, row, unit)
	}
	return v
}

// atProcs rewrites every row name as go test prints it at GOMAXPROCS n.
func atProcs(text string, n int) string {
	return editRows(text, "", func(f []string) []string {
		f[0] = procsSuffix.ReplaceAllString(f[0], "")
		if n > 1 {
			f[0] += "-" + strconv.Itoa(n)
		}
		return f
	})
}

// oneViolation fails the test unless violations is exactly one that names
// every string in want.
func oneViolation(t *testing.T, violations []string, want ...string) {
	t.Helper()
	if len(violations) != 1 {
		t.Fatalf("got %d violations, want 1: %q", len(violations), violations)
	}
	for _, w := range want {
		if !strings.Contains(violations[0], w) {
			t.Fatalf("violation %q does not name %q", violations[0], w)
		}
	}
}

func TestCapturesPass(t *testing.T) {
	var all strings.Builder
	for _, name := range captures {
		all.WriteString(readCapture(t, name))
	}
	for _, name := range append(captures, "all") {
		text := all.String()
		if name != "all" {
			text = readCapture(t, name)
		}
		t.Run(name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(strings.NewReader(text), &out, &errw); code != 0 {
				t.Fatalf("exit %d:\n%s", code, errw.String())
			}
			var l ledger
			if err := json.Unmarshal(out.Bytes(), &l); err != nil {
				t.Fatal(err)
			}
			if l.Version != schemaVersion || l.Host.GOMAXPROCS != 2 || l.Host.CPU == "" || len(l.Packages) == 0 {
				t.Fatalf("ledger header: version %d, host %+v, %d packages", l.Version, l.Host, len(l.Packages))
			}
			for pkg, rows := range l.Packages {
				for name, row := range rows {
					if row["iterations"] <= 0 || row["ns/op"] <= 0 {
						t.Errorf("%s: row %s = %v", pkg, name, row)
					}
				}
			}
		})
	}
}

// TestGOMAXPROCSSuffix: the rows Go prints at GOMAXPROCS 1 (no suffix)
// and at N > 1 (a -N suffix on every row) are the same rows, and the host
// block records N.
func TestGOMAXPROCSSuffix(t *testing.T) {
	for _, name := range captures {
		text := readCapture(t, name)
		want, _ := gate(t, text)
		for _, n := range []int{1, 2, 8} {
			got, _ := gate(t, atProcs(text, n))
			if !reflect.DeepEqual(got.Packages, want.Packages) {
				t.Errorf("%s at GOMAXPROCS %d: rows differ from the capture's", name, n)
			}
			if got.Host.GOMAXPROCS != n {
				t.Errorf("%s at GOMAXPROCS %d: host records %d", name, n, got.Host.GOMAXPROCS)
			}
		}
	}
	// A suffix that only some rows carry is part of their names.
	text := "pkg: p\nBenchmarkA-3\t10\t5 ns/op\nBenchmarkB\t10\t5 ns/op\n"
	l, _ := gate(t, text)
	if _, ok := l.Packages["p"]["BenchmarkA-3"]; !ok || l.Host.GOMAXPROCS != 1 {
		t.Fatalf("partial suffix was stripped: %v, GOMAXPROCS %d", l.Packages["p"], l.Host.GOMAXPROCS)
	}
}

// TestAllocBars makes one row allocate under each 0 allocs/op bar.
func TestAllocBars(t *testing.T) {
	for _, tc := range []struct{ capture, row string }{
		{"diagnoser", "BenchmarkAnalyzeTraces/app=SageMath/samples=64"},
		{"causal", "BenchmarkCausalAnalyze/main=256/worker=128"},
		{"obs", "BenchmarkObsCounterIncParallel"},
		{"obs", "BenchmarkObsHistogramObserve"},
		{"fleet", "BenchmarkBinaryDecode"},
		{"sim", "BenchmarkSimEngine/tick-http"},
	} {
		t.Run(tc.row, func(t *testing.T) {
			text := setMetric(t, readCapture(t, tc.capture), tc.row, "allocs/op", 1)
			_, bad := gate(t, text)
			oneViolation(t, bad, tc.row, "1 allocs/op")
		})
	}
	// A variant the obs rules match by name is held at 0 without being listed.
	text := editRows(readCapture(t, "obs"), "BenchmarkObsSnapshot", func(f []string) []string {
		f[0] = "BenchmarkObsLabeledCounterInc-2"
		return f
	})
	_, bad := gate(t, text)
	oneViolation(t, bad, "BenchmarkObsLabeledCounterInc", "33 allocs/op")
}

// TestSpeedupBars puts each ratio bar just out of reach.
func TestSpeedupBars(t *testing.T) {
	fleet := readCapture(t, "fleet")
	for _, tc := range []struct {
		name, num, den string
		ratio          float64
	}{
		{"binary", "BenchmarkIngest/json/shards=4", "BenchmarkIngest/binary/shards=4", 9.9},
		{"warm", "BenchmarkFold/cold", "BenchmarkFold/warm", 4.9},
		{"dirty1pct", "BenchmarkFold/cold", "BenchmarkFold/dirty1pct", 4.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			num := metric(t, fleet, fleetPkg, tc.num, "ns/op")
			_, bad := gate(t, setMetric(t, fleet, tc.den, "ns/op", num/tc.ratio))
			oneViolation(t, bad, tc.num, tc.den, "below the")
		})
	}
	sim := readCapture(t, "sim")
	for _, tc := range []struct {
		procs int
		bar   float64
	}{{1, 0.75}, {2, 0.9}, {8, 5}} {
		t.Run("sched/GOMAXPROCS="+strconv.Itoa(tc.procs), func(t *testing.T) {
			text := atProcs(sim, tc.procs)
			w1 := metric(t, text, simPkg, "BenchmarkSimEngine/sched/workers=1", "ns/op")
			_, bad := gate(t, setMetric(t, text, "BenchmarkSimEngine/sched/workers=8", "ns/op", w1/(tc.bar*0.99)))
			oneViolation(t, bad, "sched/workers=8", "GOMAXPROCS "+strconv.Itoa(tc.procs))
		})
	}
	// At the bar passes.
	binary := metric(t, fleet, fleetPkg, "BenchmarkIngest/binary/shards=4", "ns/op")
	if _, bad := gate(t, setMetric(t, fleet, "BenchmarkIngest/json/shards=4", "ns/op", 10*binary)); len(bad) != 0 {
		t.Fatalf("binary at exactly 10x JSON: %q", bad)
	}
}

// TestMissingRow deletes, one at a time, each row that must be there when
// its package is: every row a bar names, and the serial merge, regional
// poll and simulator rows the ledgers record without a bar.
func TestMissingRow(t *testing.T) {
	required := map[string][]string{
		"obs": {"BenchmarkObsCounterInc", "BenchmarkObsCounterIncParallel", "BenchmarkObsHistogramObserve"},
		"fleet": {"BenchmarkBinaryDecode", "BenchmarkIngest/json/shards=4", "BenchmarkIngest/binary/shards=4",
			"BenchmarkFold/cold", "BenchmarkFold/warm", "BenchmarkFold/dirty1pct",
			"BenchmarkSerialMerge", "BenchmarkRegionalPoll/full", "BenchmarkRegionalPoll/delta", "BenchmarkRegionalPoll/churn"},
		"sim": {"BenchmarkSimEngine/tick", "BenchmarkSimEngine/tick-http", "BenchmarkSimEngineHTTP"},
	}
	for _, group := range []string{"inproc", "sched"} {
		for _, w := range []string{"1", "2", "4", "8"} {
			required["sim"] = append(required["sim"], "BenchmarkSimEngine/"+group+"/workers="+w)
		}
	}
	for capture, rows := range required {
		for _, row := range rows {
			t.Run(row, func(t *testing.T) {
				text := editRows(readCapture(t, capture), row, func([]string) []string { return nil })
				_, bad := gate(t, text)
				if len(bad) == 0 {
					t.Fatal("passed")
				}
				for _, v := range bad {
					if !strings.Contains(v, ": row "+row+" is missing") {
						t.Errorf("violation %q does not name %s as missing", v, row)
					}
				}
			})
		}
	}
}

func TestPackageWithoutRows(t *testing.T) {
	// What go test prints when -bench matches nothing in the package.
	_, bad := gate(t, "PASS\nok  \thangdoctor/internal/core\t0.012s\n")
	oneViolation(t, bad, corePkg, "no benchmark rows")
	_, bad = gate(t, readCapture(t, "obs")+"--- FAIL: BenchmarkObsSnapshot\nFAIL\n"+"FAIL\thangdoctor/internal/obs\t4.1s\n")
	oneViolation(t, bad, obsPkg, "FAIL")
	_, bad = gate(t, "")
	oneViolation(t, bad, "no package")
}

func TestMalformedInput(t *testing.T) {
	fleet := readCapture(t, "fleet")
	for name, text := range map[string]string{
		"no pkg header":    "BenchmarkA-2\t10\t5 ns/op\n",
		"unit missing":     "pkg: p\nBenchmarkA-2\t10\t5 ns/op\t7\n",
		"bad value":        "pkg: p\nBenchmarkA-2\t10\tfive ns/op\n",
		"duplicate row":    fleet + fleet,
		"mixed procs":      fleet + atProcs(readCapture(t, "sim"), 8),
		"mixed procs at 1": atProcs(fleet, 1) + readCapture(t, "sim"),
	} {
		if _, _, err := parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}
