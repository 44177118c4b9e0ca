package sim

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"hangdoctor/internal/fleet"
	"hangdoctor/internal/golden"
)

func foldBytes(t *testing.T, agg *fleet.Aggregator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := agg.Fold().Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runInproc(t *testing.T, workers int, cfg Config) ([]byte, Stats) {
	t.Helper()
	agg := fleet.NewAggregator(fleet.Config{Shards: 4})
	cfg.Agg = agg
	cfg.Workers = workers
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	agg.Close()
	return foldBytes(t, agg), st
}

// TestDeterminismAcrossWorkerCounts is the satellite determinism test:
// the same seed must produce a byte-identical folded fleet report — and
// identical upload/resync counts — whether the fleet is simulated on 1,
// 4, or 8 workers. Run under -race in CI.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	cfg := Config{
		Devices:      2000,
		Uploads:      10_000,
		Entries:      3,
		Seed:         42,
		RestartEvery: 64,
		Batch:        16,
	}
	base, baseStats := runInproc(t, 1, cfg)
	if baseStats.Uploads != cfg.Uploads {
		t.Fatalf("workers=1 delivered %d uploads, want %d", baseStats.Uploads, cfg.Uploads)
	}
	if baseStats.Failed != 0 {
		t.Fatalf("workers=1 failed=%d", baseStats.Failed)
	}
	for _, w := range []int{4, 8} {
		got, st := runInproc(t, w, cfg)
		if st.Failed != 0 {
			t.Fatalf("workers=%d failed=%d", w, st.Failed)
		}
		if st.Uploads != baseStats.Uploads {
			t.Fatalf("workers=%d uploads=%d, want %d", w, st.Uploads, baseStats.Uploads)
		}
		if st.Resyncs != baseStats.Resyncs {
			t.Fatalf("workers=%d resyncs=%d, want %d", w, st.Resyncs, baseStats.Resyncs)
		}
		if st.Entries != baseStats.Entries {
			t.Fatalf("workers=%d entries=%d, want %d", w, st.Entries, baseStats.Entries)
		}
		if !bytes.Equal(base, got) {
			t.Fatalf("workers=%d fold diverges from workers=1 (%d vs %d bytes)", w, len(got), len(base))
		}
	}
}

// TestDeterminismAcrossBatchSizes: inproc batching coalesces uploads into
// shared submissions, which must never change the folded result.
func TestDeterminismAcrossBatchSizes(t *testing.T) {
	cfg := Config{Devices: 500, Uploads: 2500, Entries: 4, Seed: 7}
	var base []byte
	for i, batch := range []int{1, 4, 64} {
		c := cfg
		c.Batch = batch
		got, st := runInproc(t, 3, c)
		if st.Failed != 0 {
			t.Fatalf("batch=%d failed=%d", batch, st.Failed)
		}
		if i == 0 {
			base = got
			continue
		}
		if !bytes.Equal(base, got) {
			t.Fatalf("batch=%d fold diverges from batch=1", batch)
		}
	}
}

// TestInprocFoldGolden pins the in-process fold at one fixed config to a
// committed digest.
func TestInprocFoldGolden(t *testing.T) {
	cfg := Config{Devices: 500, Uploads: 2500, Entries: 4, Seed: 7, RestartEvery: 64, Batch: 16}
	fold, st := runInproc(t, 2, cfg)
	if st.Failed != 0 || st.Uploads != cfg.Uploads {
		t.Fatalf("run: %s", st)
	}
	golden.Check(t, "inproc-fold.json", fold)
}

// TestHTTPMatchesInproc pins cross-mode determinism: the same config
// driven over the real binary HTTP protocol — including dictionary
// deltas, device restarts, and server-side 409 resyncs forced by a tiny
// dictionary cache — folds byte-identical to the in-process run, against
// a memory-only node and a durable one alike.
func TestHTTPMatchesInproc(t *testing.T) {
	cfg := Config{
		Devices:      300,
		Uploads:      1800,
		Entries:      3,
		Seed:         1234,
		RestartEvery: 32,
	}
	wantFold, wantStats := runInproc(t, 2, cfg)

	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			fcfg := fleet.Config{Shards: 4}
			if durable {
				fcfg.WAL = &fleet.WALConfig{Dir: t.TempDir()}
			}
			agg, err := fleet.Open(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			// A dictionary cache far smaller than the fleet forces evictions
			// and 409 resync round trips on the steady state.
			srv := httptest.NewServer(fleet.NewServerDict(agg, 64).Handler())
			defer srv.Close()

			c := cfg
			c.Nodes = []string{srv.URL}
			c.Workers = 3
			eng, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			st, err := eng.Run()
			if err != nil {
				t.Fatalf("http run: %v", err)
			}
			if st.Failed != 0 {
				t.Fatalf("http run failed=%d (throttled=%d)", st.Failed, st.Throttled)
			}
			if st.Uploads != wantStats.Uploads {
				t.Fatalf("http uploads=%d, want %d", st.Uploads, wantStats.Uploads)
			}
			if st.ServerResyncs == 0 {
				t.Fatal("expected 409 resyncs with a 64-device dictionary cache")
			}
			if st.WireBytes == 0 {
				t.Fatal("http run reported no wire bytes")
			}
			if h := eng.Registry().Snapshot().Histogram("hangdoctor_sim_upload_rtt_ms"); h.Count < uint64(st.Uploads+st.ServerResyncs) {
				t.Fatalf("round-trip histogram saw %d attempts, want at least %d", h.Count, st.Uploads+st.ServerResyncs)
			}
			agg.Close()
			if got := foldBytes(t, agg); !bytes.Equal(got, wantFold) {
				t.Fatalf("HTTP fold diverges from inproc fold (%d vs %d bytes)", len(got), len(wantFold))
			}
		})
	}
}

// TestCrashUnblocksRun: tearing the aggregator down mid-run must unwind
// every worker — no goroutine stuck on a buffer ack or the barrier.
func TestCrashUnblocksRun(t *testing.T) {
	agg := fleet.NewAggregator(fleet.Config{Shards: 2, QueueDepth: 4})
	eng, err := New(Config{
		Devices: 5000,
		Uploads: 5_000_000,
		Entries: 4,
		Seed:    9,
		Workers: 4,
		Agg:     agg,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Stats, 1)
	go func() {
		st, _ := eng.Run()
		done <- st
	}()
	time.Sleep(20 * time.Millisecond)
	agg.Crash()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after aggregator crash")
	}
}

// TestStopWindsDown: Stop ends the run at the next epoch boundary with
// partial stats and no error.
// TestQuotaSpread: the upload budget must land exactly, spread across
// devices, and the engine must refuse to run twice.
func TestQuotaSpread(t *testing.T) {
	agg := fleet.NewAggregator(fleet.Config{Shards: 2})
	eng, err := New(Config{Devices: 7, Uploads: 23, Entries: 1, Seed: 5, Workers: 3, Agg: agg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Uploads != 23 {
		t.Fatalf("uploads=%d, want 23", st.Uploads)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("second Run must fail")
	}
	agg.Close()
	rep := agg.Fold()
	// Every device with a nonzero quota must appear in the fold.
	devs := map[string]bool{}
	for _, e := range rep.Wire().Entries {
		for _, d := range e.Devices {
			devs[d] = true
		}
	}
	if len(devs) != 7 {
		t.Fatalf("fold covers %d devices, want 7", len(devs))
	}
}

// TestFourHeapProperty drives the heap against a reference model.
func TestFourHeapProperty(t *testing.T) {
	var h fourHeap
	const n = 500
	h.init(n)
	r := tickRand{x: 99}
	type ev struct {
		dev uint32
		key int64
	}
	model := make([]ev, 0, n)
	for i := 0; i < n; i++ {
		k := int64(r.next() % 100_000)
		h.push(uint32(i), k)
		model = append(model, ev{uint32(i), k})
	}
	h.heapify()
	sortModel := func() {
		sort.Slice(model, func(i, j int) bool { return model[i].key < model[j].key })
	}
	for step := 0; step < 5000 && h.len() > 0; step++ {
		sortModel()
		if h.minKey() != model[0].key {
			t.Fatalf("step %d: heap min key %d, model %d", step, h.minKey(), model[0].key)
		}
		// The heap may order equal keys differently than the model; only
		// the key order is contractual.
		if r.next()%8 == 0 {
			// Pop: drop the model element matching the heap's choice.
			d := h.minDev()
			h.popMin()
			for i := range model {
				if model[i].dev == d {
					model = append(model[:i], model[i+1:]...)
					break
				}
			}
		} else {
			adv := int64(1 + r.next()%5000)
			d := h.minDev()
			h.advanceMin(adv)
			for i := range model {
				if model[i].dev == d {
					model[i].key += adv
					break
				}
			}
		}
	}
}

// TestHugeResidency is the 10M-device residency check from the tentpole:
// build the full SoA fleet and run a sparse upload pass over it. Gated
// behind SIM_HUGE=1 — it commits several GB.
func TestHugeResidency(t *testing.T) {
	if os.Getenv("SIM_HUGE") != "1" {
		t.Skip("set SIM_HUGE=1 to run the 10M-device residency test")
	}
	agg := fleet.NewAggregator(fleet.Config{Shards: 8})
	eng, err := New(Config{
		Devices: 10_000_000,
		Uploads: 1_000_000,
		Entries: 4,
		Seed:    11,
		Workers: runtime.GOMAXPROCS(0),
		Agg:     agg,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 || st.Uploads != 1_000_000 {
		t.Fatalf("huge run: %s", st)
	}
	agg.Close()
	t.Logf("10M devices resident: %s", st)
}
