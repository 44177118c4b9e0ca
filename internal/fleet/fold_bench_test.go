package fleet

// fold_bench_test.go measures the incremental read path against the
// from-scratch serial fold it replaced. All rows run at the same state
// size so they are directly comparable:
//
//	BenchmarkFold/cold      — coldFold: every shard snapshot deep-copied,
//	                          then one serial FoldReports (the
//	                          pre-incremental cost, the baseline)
//	BenchmarkFold/warm      — Fold with nothing changed: cached shard
//	                          snapshots + version-vector fold cache hit
//	BenchmarkFold/dirty1pct — Fold after ~1% of entries churned: each
//	                          moved shard hands out its live trie, and the
//	                          fold cache re-merges the moved shards in one
//	                          batch. The churn's merge, which copied the
//	                          entries it wrote, runs outside the timer
//
//	BenchmarkRegionalPoll/full  — forceResync + PollDelta: every node
//	                              refetched as a full snapshot
//	BenchmarkRegionalPoll/delta — steady-state delta poll of the same nodes,
//	                              which never change
//	BenchmarkRegionalPoll/churn — delta poll after ~1% of the region's
//	                              entries changed, at BenchmarkFold's state
//	                              size: the node delta, the regional apply
//	                              and RefreshKeys all carry changed entries
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
	return benchFleet(b, 1, shards, devices, entries)[0]
}

// benchFleet is benchState spread over nodes aggregators: device d
// uploads to node d % nodes.
func benchFleet(b *testing.B, nodes, shards, devices, entries int) []*Aggregator {
	b.Helper()
	aggs := make([]*Aggregator, nodes)
	for n := range aggs {
		aggs[n] = NewAggregator(Config{Shards: shards, QueueDepth: 4096, BatchSize: 16})
	}
	for d := 0; d < devices; d++ {
		rep := SyntheticUpload(int64(100+d), fmt.Sprintf("device-%04d", d), entries)
		id, err := ReportUploadID(rep)
		if err != nil {
			b.Fatal(err)
		}
		for {
			err := aggs[d%nodes].SubmitDurable(rep, id)
			if err == ErrQueueFull {
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	return aggs
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
	snaps, _, ok := a.gather()
	a.mu.RUnlock()
	if !ok {
		return core.NewReport()
	}
	for i, s := range snaps {
		snaps[i] = core.FoldReports(s)
	}
	return core.FoldReports(snaps...)
}

// BenchmarkFold times the read path at one state size (8 shards, 512
// devices × 120 draws, ~30.6k distinct entries). 'cold' deep-copies every
// shard snapshot and folds the copies serially with core.FoldReports, the
// cost every read paid before the incremental fold; 'warm' is Fold with
// the version vector unchanged (cached shard snapshots and a fold-cache
// hit); 'dirty1pct' is Fold after ~1% of entries churned, where each shard
// snapshot is its predecessor plus the re-cloned changed keys and the fold
// cache rewrites only the leaves where a moved shard's trie differs from
// the one it last folded. cmd/benchgate holds warm and dirty1pct at ≥5×
// faster than cold in CI.
//
// History: when reports moved to the persistent entry trie, the parent
// commit measured cold 95.95 ms, warm 8.66 µs and dirty1pct 9.73 ms on a
// 2-vCPU Intel Xeon VM (GOMAXPROCS 2, medians of 3).
func BenchmarkFold(b *testing.B) {
	// 512 devices × 120 draws from the bounded key pool: ~30k distinct
	// entries, the shape where from-scratch folding (device-set deep
	// copies) hurts and structure-sharing reads pay off.
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

// BenchmarkRegionalPoll compares a forced full resync of 2 nodes
// (ForceResync + PollDelta) against a steady-state delta poll of the same
// nodes, which never change; 'churn' is a delta poll after ~1% of the
// region's entries changed, over 2 nodes holding BenchmarkFold's 512 × 120
// fleet between them (~30.6k regional entries, ~300 changed per round).
// The rows are recorded, not gated.
//
// History: when reports moved to the persistent entry trie, the parent
// commit measured full 176.2 ms, delta 103.2 µs and churn 17.47 ms on a
// 2-vCPU Intel Xeon VM (GOMAXPROCS 2, medians of 3).
func BenchmarkRegionalPoll(b *testing.B) {
	const nodes = 2
	// serve puts each aggregator behind an HTTP server torn down with the
	// benchmark.
	serve := func(aggs ...*Aggregator) (urls []string) {
		for _, agg := range aggs {
			ts := httptest.NewServer(NewServer(agg).Handler())
			b.Cleanup(func() {
				ts.Close()
				agg.Close()
			})
			urls = append(urls, ts.URL)
		}
		return urls
	}
	// Both nodes hold the same 128 devices x 120 draws.
	urls := serve(benchState(b, 4, 128, 120), benchState(b, 4, 128, 120))
	ctx := context.Background()

	b.Run("full", func(b *testing.B) {
		reg := NewRegional(urls, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.forceResync()
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

	// BenchmarkFold's 512 devices x 120 draws, split across the nodes.
	churnAggs := benchFleet(b, nodes, 4, 512, 120)
	churnURLs := serve(churnAggs...)
	b.Run("churn", func(b *testing.B) {
		reg := NewRegional(churnURLs, nil)
		res := reg.PollDelta(ctx)
		if res.Failed != 0 {
			b.Fatalf("prime poll failed: %v", res.Errs)
		}
		total := res.Report.Len()
		churnEntries := max(total/100, 1)
		b.Logf("state: %d regional entries, churn=%d entries/op", total, churnEntries)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churn(b, churnAggs[i%nodes], i, churnEntries)
			b.StartTimer()
			res := reg.PollDelta(ctx)
			if res.Failed != 0 {
				b.Fatalf("poll failed: %v", res.Errs)
			}
			if res.Deltas != nodes || res.Report.Len() < total {
				b.Fatalf("churn round: %d delta nodes, %d entries (want %d, >= %d)", res.Deltas, res.Report.Len(), nodes, total)
			}
		}
	})
}
