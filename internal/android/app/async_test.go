package app

import (
	"testing"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// asyncTestApp builds a minimal app with one awaited async op so sessions
// get a worker pool.
func asyncTestApp(reg *api.Registry) *App {
	query, _ := reg.API("android.database.sqlite.SQLiteDatabase.query")
	a := &App{
		Name: "AsyncApp", Commit: "fffffff", Category: "Tools",
		Registry: reg,
		Actions: []*Action{{
			Name: "Load",
			Events: []*InputEvent{{
				Name: "evt0",
				Ops: []*Op{{
					Name:  "load",
					API:   query,
					Heavy: IOHeavy(6*simclock.Millisecond, 1, 6*simclock.Millisecond),
					Async: &Async{
						Task:  IOHeavy(30*simclock.Millisecond, 6, 20*simclock.Millisecond),
						Await: true,
					},
				}},
			}},
		}},
	}
	if err := a.Finalize(); err != nil {
		panic(err)
	}
	return a
}

// TestSampleTaggedWorkerProvenance pins the tagging contract: busy workers
// are sampled with their origin and Worker set, idle workers are skipped.
func TestSampleTaggedWorkerProvenance(t *testing.T) {
	s, err := NewSession(asyncTestApp(api.NewRegistry()), LGV10(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.WorkerThreads()) != 2 {
		t.Fatalf("pool width = %d, want default 2", len(s.WorkerThreads()))
	}
	st := stack.New(stack.Frame{Class: "com.demo.db.Store", Method: "query", File: "Store.java", Line: 10})
	s.MainThread().Enqueue(cpu.Compute(simclock.Duration(1e12), nil, st))

	// Only worker 0 is busy; worker 1 stays idle and must not be sampled.
	origin := stack.Origin{ActionUID: "AsyncApp/Load", Site: "com.demo.db.Store.query", Kind: "submit"}
	s.pool.tasks[0] = &poolTask{origin: origin}
	s.pool.threads[0].Enqueue(cpu.Compute(simclock.Duration(1e12), nil, st))

	out, missed, truncated, lost := s.SampleTagged(nil)
	if missed || truncated != 0 || lost != 0 {
		t.Fatalf("fault-free sample degraded: missed=%v truncated=%d lost=%d", missed, truncated, lost)
	}
	if len(out) != 2 {
		t.Fatalf("sampled %d stacks, want main + 1 busy worker", len(out))
	}
	if out[0].Worker || !out[0].Origin.IsZero() {
		t.Fatalf("main sample mis-tagged: %+v", out[0])
	}
	if !out[1].Worker || out[1].Origin != origin {
		t.Fatalf("worker sample mis-tagged: %+v", out[1])
	}
}

// TestSampleTaggedZeroAlloc pins the sampler hot path of the causal
// extension: a warm SampleTagged into a reused buffer — main thread plus
// busy pool workers — must not allocate.
func TestSampleTaggedZeroAlloc(t *testing.T) {
	s, err := NewSession(asyncTestApp(api.NewRegistry()), LGV10(), 7)
	if err != nil {
		t.Fatal(err)
	}
	st := stack.New(stack.Frame{Class: "com.demo.db.Store", Method: "query", File: "Store.java", Line: 10})
	s.MainThread().Enqueue(cpu.Compute(simclock.Duration(1e12), nil, st))
	for i, th := range s.pool.threads {
		s.pool.tasks[i] = &poolTask{origin: stack.Origin{ActionUID: "AsyncApp/Load", Site: "com.demo.db.Store.query", Kind: "submit"}}
		th.Enqueue(cpu.Compute(simclock.Duration(1e12), nil, st))
	}
	buf := make([]stack.Tagged, 0, 64)
	out, missed, truncated, lost := s.SampleTagged(buf)
	if missed || truncated != 0 || lost != 0 {
		t.Fatalf("fault-free sample degraded: missed=%v truncated=%d lost=%d", missed, truncated, lost)
	}
	if len(out) != 1+len(s.pool.threads) {
		t.Fatalf("sampled %d stacks, want main + %d workers", len(out), len(s.pool.threads))
	}
	allocs := testing.AllocsPerRun(100, func() {
		out, _, _, _ := s.SampleTagged(buf[:0])
		if len(out) == 0 {
			t.Fatal("no samples")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SampleTagged allocates %.1f objects per tick, want 0", allocs)
	}
}
