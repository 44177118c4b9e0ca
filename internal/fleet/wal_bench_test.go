package fleet_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"hangdoctor/internal/fleet"
)

// The WAL benchmarks time the two ends of a durable node's life at the
// per-node state of cmd/bench's region workload: 3,000 uploads of 16
// entries on 8 shards, from 2,048 devices (a node's half of region's
// 4,096). They use only the package's exported API.
const (
	walBenchUploads = 3000
	walBenchEntries = 16
	walBenchDevices = 2048
)

func walBenchCfg(dir string) fleet.Config {
	return fleet.Config{Shards: 8, QueueDepth: 1024,
		WAL: &fleet.WALConfig{Dir: dir, Sync: fleet.SyncBatch}}
}

// walBenchNode lays down, in a fresh directory, a node that acknowledged
// every benchmark upload and then either crashed, leaving its whole state
// in the log tail, or closed, compacting it. It returns the directory and
// the node's entry count.
func walBenchNode(b *testing.B, crash bool) (string, int) {
	b.Helper()
	dir := filepath.Join(b.TempDir(), "node")
	agg, err := fleet.Open(walBenchCfg(dir))
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < walBenchUploads; i = int(next.Add(1) - 1) {
				rep := fleet.SyntheticUpload(int64(i), fmt.Sprintf("dev-%04d", i%walBenchDevices), walBenchEntries)
				if errs[w] = agg.SubmitDurable(rep, fleet.UploadID{}); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	entries := agg.Fold().Len()
	if crash {
		agg.Crash()
	} else {
		agg.Close()
	}
	return dir, entries
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(b *testing.B, dir string) int64 {
	b.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// copyDir copies the files of src into a new directory dst.
func copyDir(b *testing.B, src, dst string) {
	b.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact times the final compaction a clean Close writes. Each
// iteration reopens a copy of a crashed node, whose replay leaves every
// upload in the log tail, and times its Close. The node is durable, has 8
// shards and SyncBatch, and holds the per-node state of cmd/bench's region
// workload (3,000 SyntheticUpload uploads × 16 entries from 2,048 devices,
// 27,424 entries); 'walbytes' is the WAL directory's size after Close. The
// row is recorded, not gated.
//
// History: this benchmark uses only the exported API, so it ran unchanged
// on the commit before the compacted log became the snapshot, whose node
// kept a JSON node.snap beside node.wal. Medians of 5 alternating runs on
// a 2-vCPU Intel Xeon VM (GOMAXPROCS 2): 400.3 ms, 142.5 MB and 55,494
// allocs per compaction and a 6,295,528-byte directory before; 96.1 ms,
// 8.8 MB, 22,081 allocs and 773,236 bytes after.
func BenchmarkCompact(b *testing.B) {
	crashed, entries := walBenchNode(b, true)
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "node")
		copyDir(b, crashed, dir)
		agg, err := fleet.Open(walBenchCfg(dir))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		agg.Close()
		b.StopTimer()
		size = dirBytes(b, dir)
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(size), "walbytes")
	b.ReportMetric(float64(entries), "entries")
}

// BenchmarkReplay times Open of a cleanly closed node's directory: the
// recovery every restart after a drain runs before intake opens. The node
// is BenchmarkCompact's; the row is recorded, not gated.
//
// History, measured as BenchmarkCompact's: 336.8 ms, 92.4 MB and 477,417
// allocs per replay with the JSON node.snap; 77.5 ms, 56.9 MB and 138,006
// allocs with one node.wal opening with a binary base.
func BenchmarkReplay(b *testing.B) {
	dir, entries := walBenchNode(b, false)
	size := dirBytes(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := fleet.Open(walBenchCfg(dir))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := agg.Fold().Len(); n != entries {
			b.Fatalf("replayed %d entries, want %d", n, entries)
		}
		agg.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(size), "walbytes")
	b.ReportMetric(float64(entries), "entries")
}
