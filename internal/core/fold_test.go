package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hangdoctor/internal/simclock"
)

// foldFixture builds a report with entries spread over several apps, actions
// and devices, plus nonzero health, so partitioning has something to chew on.
func foldFixture() *Report {
	r := NewReport()
	for i := 0; i < 40; i++ {
		app := fmt.Sprintf("app-%d", i%3)
		action := fmt.Sprintf("%s/Action-%d", app, i%7)
		diag := Diagnosis{
			RootCause:  fmt.Sprintf("com.example.Op%02d.run", i%11),
			File:       fmt.Sprintf("Op%02d.java", i%11),
			Line:       10 + i,
			Occurrence: 0.7,
		}
		for d := 0; d < 1+i%4; d++ {
			r.Add(app, fmt.Sprintf("device-%d", (i+d)%9), action, diag,
				simclock.Duration(120+10*i)*simclock.Millisecond)
		}
	}
	r.Health = Health{PerfOpenFailures: 5, StacksDropped: 2, LowConfidence: 1}
	return r
}

func exportBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardParts partitions a wire view as a fleet node routes an upload: its
// entries by ShardIndex, its health on part 0. Each part is a report of
// its own, nil when it holds nothing.
func shardParts(wr *WireReport, shards int) []*Report {
	runs := make([]WireReport, shards)
	runs[0].Health = wr.Health
	for _, e := range wr.Entries {
		s := ShardIndex(e.App, e.ActionUID, e.RootCause, shards)
		runs[s].Entries = append(runs[s].Entries, e)
	}
	parts := make([]*Report, shards)
	for i := range runs {
		if len(runs[i].Entries) > 0 || !runs[i].Health.Zero() {
			parts[i] = runs[i].Report()
		}
	}
	return parts
}

// TestSplitFoldRoundTrip: splitting a report's wire view into any number of
// fragments and folding them back must reproduce the original
// byte-for-byte, and must leave the source untouched.
func TestSplitFoldRoundTrip(t *testing.T) {
	r := foldFixture()
	want := exportBytes(t, r)
	for _, shards := range []int{1, 2, 3, 8, 32} {
		frags := shardParts(r.Wire(), shards)
		hangs := 0
		for _, f := range frags {
			if f != nil {
				hangs += f.TotalHangs()
			}
		}
		if hangs != r.TotalHangs() {
			t.Errorf("shards=%d: fragment hang totals sum to %d, want %d", shards, hangs, r.TotalHangs())
		}
		folded := FoldReports(frags...)
		if got := exportBytes(t, folded); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: fold round trip diverged:\n--- want ---\n%s\n--- got ---\n%s", shards, want, got)
		}
		if folded.Render() != r.Render() {
			t.Errorf("shards=%d: rendered fold differs from source", shards)
		}
	}
	if got := exportBytes(t, r); !bytes.Equal(got, want) {
		t.Error("Wire mutated its receiver")
	}
}

// TestCloneIsIndependent: a fold of one report is a copy of it, and
// mutating that copy must not leak into the source.
func TestCloneIsIndependent(t *testing.T) {
	r := foldFixture()
	want := exportBytes(t, r)
	c := FoldReports(r)
	if got := exportBytes(t, c); !bytes.Equal(got, want) {
		t.Fatal("a fold of one report does not export identically to its source")
	}
	c.Add("new-app", "new-dev", "new-app/Act",
		Diagnosis{RootCause: "com.example.New.run", File: "New.java", Line: 9}, simclock.Second)
	c.Health.Quarantines++
	if got := exportBytes(t, r); !bytes.Equal(got, want) {
		t.Error("mutating a fold of one report changed its source")
	}
}

// TestShardIndexStable: the hash is deterministic and in range, and spreads
// a realistic population of identities over more than one shard.
func TestShardIndexStable(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		app, action, root := fmt.Sprintf("a%d", i%5), fmt.Sprintf("act%d", i), fmt.Sprintf("r%d", i%13)
		idx := ShardIndex(app, action, root, 8)
		if idx < 0 || idx >= 8 {
			t.Fatalf("ShardIndex out of range: %d", idx)
		}
		if idx != ShardIndex(app, action, root, 8) {
			t.Fatal("ShardIndex not deterministic")
		}
		seen[idx] = true
	}
	if len(seen) < 2 {
		t.Errorf("100 identities all hashed to %d shard(s)", len(seen))
	}
	if ShardIndex("a", "b", "c", 1) != 0 || ShardIndex("a", "b", "c", 0) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
}

// TestShardIndexMatchesJoinedKey: routing over the three fields picks the
// shard the FNV-1a hash of their joined EntryKey picks, so every entry
// lands on the same shard as when uploads carried that string, for
// fields holding \x00 too.
func TestShardIndexMatchesJoinedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	field := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = "ab\x00\xffz"[rng.Intn(5)]
		}
		return string(b)
	}
	for i := 0; i < 5000; i++ {
		app, action, root := field(), field(), field()
		n := 1 + rng.Intn(40)
		want := int(fnv64a(fnvOffset, EntryKey(app, action, root)) % uint64(n))
		if got := ShardIndex(app, action, root, n); got != want {
			t.Fatalf("ShardIndex(%q, %q, %q, %d) = %d, the joined key's hash picks %d", app, action, root, n, got, want)
		}
	}
}
