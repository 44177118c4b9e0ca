package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/golden"
)

// writeUploadDir fills a temp directory with synthetic device uploads plus
// one corrupt file, returning the directory and the valid reports in sorted
// file order.
func writeUploadDir(t *testing.T, n int) (string, []*core.Report) {
	t.Helper()
	dir := t.TempDir()
	reps := make([]*core.Report, n)
	for i := range reps {
		reps[i] = fleet.SyntheticUpload(int64(40+i), fmt.Sprintf("device-%03d", i), 35)
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("device-%03d.json", i)))
		if err != nil {
			t.Fatal(err)
		}
		err = reps[i].Export(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "zz-corrupt.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, reps
}

// TestImportDirMatchesSerialMerge: the parallel worker-pool import through
// the shard layer must produce byte-identical output to the old serial
// loop, for any worker and shard count.
func TestImportDirMatchesSerialMerge(t *testing.T) {
	dir, reps := writeUploadDir(t, 12)
	serial := core.NewReport()
	serial.Merge(reps...)
	var want bytes.Buffer
	if err := serial.Export(&want); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 9} {
		for _, shards := range []int{1, 5} {
			t.Run(fmt.Sprintf("workers=%d/shards=%d", workers, shards), func(t *testing.T) {
				res, err := importDir(dir, workers, shards)
				if err != nil {
					t.Fatal(err)
				}
				if res.imported != 12 || res.total != 13 {
					t.Errorf("imported %d of %d, want 12 of 13", res.imported, res.total)
				}
				if len(res.skipped) != 1 || !bytes.Contains([]byte(res.skipped[0]), []byte("zz-corrupt.json")) {
					t.Errorf("skipped = %v, want only the corrupt file", res.skipped)
				}
				var got bytes.Buffer
				if err := res.fleet.Export(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Error("parallel import diverged from serial merge")
				}
				if res.fleet.Render() != serial.Render() {
					t.Error("rendered fleet report diverged from serial merge")
				}
			})
		}
	}
}

// TestImportDirSkipOrderDeterministic: error lines come out in sorted file
// order no matter which worker hit them.
func TestImportDirSkipOrderDeterministic(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.json", "m.json", "z.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("broken"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := importDir(dir, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.imported != 0 || len(res.skipped) != 3 {
		t.Fatalf("imported=%d skipped=%d, want 0/3", res.imported, len(res.skipped))
	}
	if !sort.SliceIsSorted(res.skipped, func(i, j int) bool { return res.skipped[i] < res.skipped[j] }) {
		t.Errorf("skip messages not in sorted file order: %v", res.skipped)
	}
}

// TestDemoGolden pins the merged -demo report, as the command prints it
// and as a JSON export, to committed digests.
func TestDemoGolden(t *testing.T) {
	dir := t.TempDir()
	if err := writeDemoUploads(dir); err != nil {
		t.Fatal(err)
	}
	res, err := importDir(dir, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "demo-report.txt", []byte(render(res)))
	var buf bytes.Buffer
	if err := res.fleet.Export(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "demo-report.json", buf.Bytes())
}
