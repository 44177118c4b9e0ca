// Package chaos is the fault harness. It injects seeded faults into one
// plane of the system at a time, one cell per fault rate, and checks that
// plane's contract in every cell. cmd/chaos is its command-line front end.
//
// The measurement plane (Measure): Hang Doctor runs over corpus apps while
// perf sessions fail to open, counters drop, the render thread goes dark,
// and stack samples are missed, truncated or late. Faults may cost recall,
// because missing data defers verdicts, but no rate may produce a false
// positive that the sweep's first rate did not.
//
// The storage plane (Differential): the crash-recovery differential of a
// durable fleet node. Six submitters load the node through write faults
// (torn writes, failed fsyncs, a full disk), and the node is crashed at a
// seeded ack count. A second node recovers the directory through read
// faults (short reads, bit rot). Every acknowledged upload must have
// survived, and resending the unacknowledged ones converges to a serial
// merge of every upload. Short reads are transparent to replay. Bit rot is
// the one fault allowed to lose data, because the loss is physical, but
// replay must detect it: a corrupt record skipped, a tail truncated, or a
// base refused.
//
// The fleetscale plane (Fleetscale): the virtual-time fleet simulator
// floods a durable node whose log sits on a disk with write faults. Every
// upload is acknowledged or fails loudly, whatever the node acknowledged
// survives a close and reopen byte-identically, and a fault-free cell
// folds byte-identically to a clean in-memory run of the same fleet.
//
// In every plane but the measurement one, a cell with a nonzero rate that
// injected no fault tested nothing, and fails.
package chaos

import (
	"fmt"
	"strings"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/fault"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/simclock"
)

// Rates maps a measurement fault kind at one rate to the injector's rates.
func Rates(kind string, rate float64) (fault.Rates, error) {
	switch kind {
	case "open":
		return fault.Rates{PerfOpenFail: rate}, nil
	case "counter":
		return fault.Rates{CounterDrop: rate}, nil
	case "render":
		return fault.Rates{RenderLoss: rate}, nil
	case "stack":
		return fault.Rates{StackMiss: rate}, nil
	case "trunc":
		return fault.Rates{StackTruncate: rate}, nil
	case "overrun":
		return fault.Rates{SamplerOverrun: rate}, nil
	case "worker":
		return fault.Rates{WorkerStackMiss: rate}, nil
	case "all":
		return fault.Rates{
			PerfOpenFail: rate, CounterDrop: rate, RenderLoss: rate,
			StackMiss: rate, StackTruncate: rate, SamplerOverrun: rate,
			WorkerStackMiss: rate,
		}, nil
	}
	return fault.Rates{}, fmt.Errorf("unknown fault kind %q (want open|counter|render|stack|trunc|overrun|worker|all)", kind)
}

// StorageRates maps a storage fault kind at one rate to the injector's
// rates. "all" is the three write faults together; the read faults have
// their own cells because their contracts differ.
func StorageRates(kind string, rate float64) (fault.StorageRates, error) {
	switch kind {
	case "torn":
		return fault.StorageRates{TornWrite: rate}, nil
	case "fsync":
		return fault.StorageRates{FsyncFail: rate}, nil
	case "full":
		return fault.StorageRates{DiskFull: rate}, nil
	case "short":
		return fault.StorageRates{ShortRead: rate}, nil
	case "corrupt":
		return fault.StorageRates{CorruptRead: rate}, nil
	case "all":
		return fault.StorageRates{TornWrite: rate, FsyncFail: rate, DiskFull: rate}, nil
	}
	return fault.StorageRates{}, fmt.Errorf("unknown storage fault kind %q (want torn|fsync|full|short|corrupt|all)", kind)
}

// FleetscaleRates is StorageRates restricted to the write faults: the
// fleetscale plane reopens on a clean disk.
func FleetscaleRates(kind string, rate float64) (fault.StorageRates, error) {
	switch kind {
	case "torn", "fsync", "full", "all":
		return StorageRates(kind, rate)
	}
	return fault.StorageRates{}, fmt.Errorf("unknown fleetscale fault kind %q (want torn|fsync|full|all)", kind)
}

// CellSeed is the seed of cell i of a storage or fleetscale sweep seeded
// with seed, so every cell is reproducible on its own.
func CellSeed(seed uint64, i int) uint64 { return seed + uint64(i)*7919 }

// MeasureRow is one rate of a measurement sweep, summed over its apps.
type MeasureRow struct {
	Rate       float64
	TP, FP, FN int
	Overhead   float64 // mean over the apps, percent
	Health     core.Health
}

// Precision is TP / (TP + FP), or 1 with no detection.
func (r MeasureRow) Precision() float64 {
	if r.TP+r.FP == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FP)
}

// Recall is TP / (TP + FN), or 0 with no bug.
func (r MeasureRow) Recall() float64 {
	if r.TP+r.FN == 0 {
		return 0
	}
	return float64(r.TP) / float64(r.TP+r.FN)
}

// Measure runs a measurement sweep: every app under Hang Doctor for n
// actions at each rate of fault kind. It returns one row per rate and the
// metrics of every (app, rate) Doctor merged into one snapshot.
func Measure(kind string, rates []float64, apps []string, n int, seed uint64) ([]MeasureRow, obs.Snapshot, error) {
	rows := make([]MeasureRow, 0, len(rates))
	var snaps []obs.Snapshot
	for _, rate := range rates {
		fr, err := Rates(kind, rate)
		if err != nil {
			return nil, obs.Snapshot{}, err
		}
		row := MeasureRow{Rate: rate}
		for ai, name := range apps {
			// A fresh corpus per run isolates the known-blocking feedback
			// loop between configurations.
			a := corpus.Build().MustApp(strings.TrimSpace(name))
			d := core.New(core.Config{})
			h, err := detect.NewHarness(a, app.LGV10(), seed, d)
			if err != nil {
				return nil, obs.Snapshot{}, err
			}
			// Each (app, rate) cell has its own fault stream.
			h.Session.SetFaults(fault.New(seed+uint64(ai)*1000003, fr))
			h.Run(corpus.Trace(a, seed, n), simclock.Second)
			ev := h.Evaluate(d)
			row.TP += ev.TP
			row.FP += ev.FP
			row.FN += ev.FN
			row.Overhead += h.Overhead(d).Avg() / float64(len(apps))
			row.Health.Add(d.Health())
			snaps = append(snaps, d.Metrics())
		}
		rows = append(rows, row)
	}
	return rows, obs.MergeSnapshots(snaps...), nil
}

// CheckMeasure returns the measurement contract the sweep broke, or nil:
// no row may have more false positives than the first.
func CheckMeasure(rows []MeasureRow) error {
	for _, r := range rows[1:] {
		if r.FP > rows[0].FP {
			return fmt.Errorf("fault rate %.2f produced %d new false positives", r.Rate, r.FP-rows[0].FP)
		}
	}
	return nil
}
