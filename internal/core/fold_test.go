package core

import (
	"bytes"
	"fmt"
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

// TestSplitFoldRoundTrip: splitting a report into any number of fragments
// and folding them back must reproduce the original byte-for-byte, and must
// leave the source untouched.
func TestSplitFoldRoundTrip(t *testing.T) {
	r := foldFixture()
	want := exportBytes(t, r)
	for _, shards := range []int{1, 2, 3, 8, 32} {
		frags := r.Split(shards)
		if len(frags) != shards {
			t.Fatalf("Split(%d) returned %d fragments", shards, len(frags))
		}
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
		t.Error("Split mutated its receiver")
	}
}

// TestSplitSkipsEmptyFragments: an upload with nothing for a shard yields a
// nil fragment so the router can skip the send entirely.
func TestSplitSkipsEmptyFragments(t *testing.T) {
	r := NewReport()
	diag := Diagnosis{RootCause: "com.example.Only.run", File: "Only.java", Line: 1}
	r.Add("app", "dev", "app/Act", diag, 200*simclock.Millisecond)
	frags := r.Split(64)
	nonNil := 0
	for _, f := range frags {
		if f != nil {
			nonNil++
		}
	}
	if nonNil != 1 {
		t.Errorf("single-entry report split into %d non-nil fragments, want 1", nonNil)
	}
	if empty := NewReport().Split(4); func() bool {
		for _, f := range empty {
			if f != nil {
				return false
			}
		}
		return true
	}() == false {
		t.Error("empty zero-health report produced non-nil fragments")
	}
}

// TestCloneIsIndependent: mutating a clone must not leak into the source.
func TestCloneIsIndependent(t *testing.T) {
	r := foldFixture()
	want := exportBytes(t, r)
	c := r.Clone()
	if got := exportBytes(t, c); !bytes.Equal(got, want) {
		t.Fatal("clone does not export identically to its source")
	}
	c.Add("new-app", "new-dev", "new-app/Act",
		Diagnosis{RootCause: "com.example.New.run", File: "New.java", Line: 9}, simclock.Second)
	c.Health.Quarantines++
	if got := exportBytes(t, r); !bytes.Equal(got, want) {
		t.Error("mutating a clone changed the source report")
	}
}

// TestShardIndexStable: the hash is deterministic and in range, and spreads
// a realistic key population over more than one shard.
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
		t.Errorf("100 keys all hashed to %d shard(s)", len(seen))
	}
	if ShardIndex("a", "b", "c", 1) != 0 || ShardIndex("a", "b", "c", 0) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
}
