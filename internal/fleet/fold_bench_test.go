package fleet

// fold_bench_test.go measures the incremental read path against the
// from-scratch serial fold it replaced. All rows run at the same state
// size so they are directly comparable:
//
//	BenchmarkFold/cold      — coldFold: every shard snapshot deep-copied,
//	                          then one serial FoldReports (the
//	                          pre-incremental cost, the baseline)
//	BenchmarkFold/warm      — Fold with nothing changed: cached COW shard
//	                          snapshots + version-vector fold cache hit
//	BenchmarkFold/dirty1pct — Fold after ~1% of entries churned: COW
//	                          re-clone of the dirty set, re-merge of the
//	                          touched shards only
//
//	BenchmarkRegionalPoll/full  — ForceResync + PollDelta: every node
//	                              refetched as a full snapshot
//	BenchmarkRegionalPoll/delta — steady-state delta poll of the same nodes
//
// CI gates warm and dirty1pct at ≥5x faster than cold (ns/op), so the
// "reads scale with change, not state" property is pinned, not asserted.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"hangdoctor/internal/core"
)

// benchState loads one aggregator with a deterministic fleet: `devices`
// devices × `entries` draws from the bounded synthetic key pool. Returns
// after every merge completed, so shard state is fixed.
func benchState(b *testing.B, shards, devices, entries int) *Aggregator {
	b.Helper()
	agg := NewAggregator(Config{Shards: shards, QueueDepth: 4096, BatchSize: 16})
	for d := 0; d < devices; d++ {
		rep := SyntheticUpload(int64(100+d), fmt.Sprintf("device-%04d", d), entries)
		id, err := ReportUploadID(rep)
		if err != nil {
			b.Fatal(err)
		}
		for {
			err := agg.SubmitDurable(rep, id)
			if err == ErrQueueFull {
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	return agg
}

// churn merges one small upload (~1% of the fleet's entry count) and
// returns after the merge, dirtying a handful of shards.
func churn(b *testing.B, agg *Aggregator, seq int, entries int) {
	b.Helper()
	rep := SyntheticUpload(int64(1_000_000+seq), fmt.Sprintf("device-churn-%04d", seq%64), entries)
	id, err := ReportUploadID(rep)
	if err != nil {
		b.Fatal(err)
	}
	for {
		err := agg.SubmitDurable(rep, id)
		if err == ErrQueueFull {
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		break
	}
}

// coldFold is the uncached read: a deep copy of every shard snapshot,
// folded serially — what every Fold cost before versioned snapshots.
func coldFold(a *Aggregator) *core.Report {
	a.mu.RLock()
	snaps, _, ok := a.gather(nil)
	a.mu.RUnlock()
	if !ok {
		return core.NewReport()
	}
	for i, s := range snaps {
		snaps[i] = s.Clone()
	}
	return core.FoldReports(snaps...)
}

func BenchmarkFold(b *testing.B) {
	// 512 devices × 120 draws from the bounded key pool: ~13k distinct
	// entries whose hot keys accumulate hundreds-strong device sets — the
	// shape where from-scratch folding (device-set deep copies) hurts and
	// map-header-sharing COW reads pay off.
	const shards, devices, entries = 8, 512, 120
	agg := benchState(b, shards, devices, entries)
	defer agg.Close()
	total := agg.Fold().Len()
	// ~1% of distinct entries per churn upload (each draw yields ~1 entry).
	churnEntries := total / 100
	if churnEntries < 1 {
		churnEntries = 1
	}
	b.Logf("state: %d entries across %d shards, churn=%d entries/op", total, shards, churnEntries)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if coldFold(agg).Len() != total {
				b.Fatal("cold fold lost entries")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		agg.Fold() // prime the caches
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if agg.Fold().Len() != total {
				b.Fatal("warm fold lost entries")
			}
		}
	})
	b.Run("dirty1pct", func(b *testing.B) {
		agg.Fold()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churn(b, agg, i, churnEntries)
			b.StartTimer()
			if agg.Fold().Len() < total {
				b.Fatal("dirty fold lost entries")
			}
		}
	})
}

func BenchmarkRegionalPoll(b *testing.B) {
	const nodes = 2
	var urls []string
	for n := 0; n < nodes; n++ {
		agg := benchState(b, 4, 128, 120)
		defer agg.Close()
		ts := httptest.NewServer(NewServer(agg).Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	ctx := context.Background()

	b.Run("full", func(b *testing.B) {
		reg := NewRegional(urls, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.ForceResync()
			res := reg.PollDelta(ctx)
			if res.Failed != 0 {
				b.Fatalf("poll failed: %v", res.Errs)
			}
			if res.Report.Len() == 0 {
				b.Fatal("empty regional poll")
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		reg := NewRegional(urls, nil)
		if res := reg.PollDelta(ctx); res.Failed != 0 {
			b.Fatalf("prime poll failed: %v", res.Errs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := reg.PollDelta(ctx)
			if res.Failed != 0 {
				b.Fatalf("poll failed: %v", res.Errs)
			}
			if res.Report.Len() == 0 {
				b.Fatal("empty regional poll")
			}
		}
	})
}
