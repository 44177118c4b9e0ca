package fault

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFaultyFSPassthrough: no injector (or all-zero rates) must return the
// base FS unchanged, so the fault-free path has literally no wrapper.
func TestFaultyFSPassthrough(t *testing.T) {
	if got := FaultyFS(DiskFS, nil); got != DiskFS {
		t.Error("nil injector did not pass the base FS through")
	}
	if got := FaultyFS(DiskFS, NewStorage(1, StorageRates{})); got != DiskFS {
		t.Error("zero-rate injector did not pass the base FS through")
	}
	if got := FaultyFS(DiskFS, NewStorage(1, StorageRates{TornWrite: 0.5})); got == DiskFS {
		t.Error("non-zero rates returned the bare base FS")
	}
}

// writePattern performs n fixed-size writes to path through fsys and
// returns which of them drew an injected write fault.
func writePattern(t *testing.T, fsys FS, path string, n int) []bool {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := bytes.Repeat([]byte{0x5A}, 64)
	faults := make([]bool, n)
	for i := range faults {
		_, err := f.Write(buf)
		faults[i] = errors.Is(err, ErrTornWrite) || errors.Is(err, ErrDiskFull)
	}
	return faults
}

// TestStorageDeterminism: the same (seed, rates, file name, op sequence)
// draws the same faults — the reproducibility contract chaos runs rely on.
func TestStorageDeterminism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	rates := StorageRates{TornWrite: 0.3, DiskFull: 0.1}
	a := writePattern(t, FaultyFS(DiskFS, NewStorage(42, rates)), path, 200)
	b := writePattern(t, FaultyFS(DiskFS, NewStorage(42, rates)), path, 200)
	if !equalBools(a, b) {
		t.Error("same seed and name produced different fault sequences")
	}
	c := writePattern(t, FaultyFS(DiskFS, NewStorage(43, rates)), path, 200)
	if equalBools(a, c) {
		t.Error("different seeds produced identical fault sequences")
	}
	if countTrue(a) == 0 || countTrue(a) == len(a) {
		t.Errorf("fault rate unreasonable: %d of %d writes faulted", countTrue(a), len(a))
	}
}

// TestStorageStreamsContinueAcrossReopen: reopening a file continues its
// decision stream rather than replaying it, so a fault is never pinned to
// a file offset forever (retry-after-reopen can make progress), while the
// whole-run sequence is still a pure function of (seed, name).
func TestStorageStreamsContinueAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	rates := StorageRates{TornWrite: 0.4}

	oneOpen := writePattern(t, FaultyFS(DiskFS, NewStorage(7, rates)), path, 100)

	split := FaultyFS(DiskFS, NewStorage(7, rates))
	twoOpens := append(writePattern(t, split, path, 50), writePattern(t, split, path, 50)...)
	if !equalBools(oneOpen, twoOpens) {
		t.Error("reopening restarted the decision stream instead of continuing it")
	}
}

// TestShortReadIsLossless: a short read returns fewer bytes, it does not
// consume bytes it failed to report — reading the file to the end through
// heavy short-read injection must still yield every byte in order.
func TestShortReadIsLossless(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	want := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewStorage(11, StorageRates{ShortRead: 0.9})
	f, err := FaultyFS(DiskFS, in).OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(readerFunc(f.Read))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("short reads corrupted the stream: got %d bytes, want %d", len(got), len(want))
	}
	if in.Stats().ShortReads == 0 {
		t.Error("no short reads delivered at rate 0.9")
	}
}

// TestShortReadDrawsPerPage: a short read is drawn once per 4 KiB page
// requested, so one 64 KiB read (replay's buffer size) at a modest rate
// is almost always short (1 - 0.75^16, about 99%), and it always returns
// at least one byte. The temporary path keys the fault streams, so the
// bound leaves room: fewer than 24 of 32 short reads is all but
// impossible here, and one draw per Read gives about 8.
func TestShortReadDrawsPerPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	if err := os.WriteFile(path, make([]byte, 1<<16), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewStorage(17, StorageRates{ShortRead: 0.25})
	short := 0
	for i := 0; i < 32; i++ {
		f, err := FaultyFS(DiskFS, in).OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Read(make([]byte, 1<<16))
		f.Close()
		if err != nil || n == 0 {
			t.Fatalf("read %d: n=%d err=%v", i, n, err)
		}
		if n < 1<<16 {
			short++
		}
	}
	if got := in.Stats().ShortReads; got != int64(short) || short < 24 {
		t.Errorf("%d of 32 reads short, %d counted; want at least 24, all counted", short, got)
	}
}

// TestCorruptReadFlipsBits: corrupt reads must actually change bytes,
// each byte at the configured rate however few reads deliver them, and
// count them, never changing lengths.
func TestCorruptReadFlipsBits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	want := bytes.Repeat([]byte{0x00}, 1<<16)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.01, 0.5} {
		in := NewStorage(13, StorageRates{CorruptRead: rate})
		f, err := FaultyFS(DiskFS, in).OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(readerFunc(f.Read))
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("rate %v: corrupt reads changed the length: %d, want %d", rate, len(got), len(want))
		}
		flipped := 0
		for i := range got {
			if got[i] != want[i] {
				flipped++
			}
		}
		if n := in.Stats().CorruptBytes; n != int64(flipped) {
			t.Errorf("rate %v: %d bytes flipped, %d counted", rate, flipped, n)
		}
		if exp := rate * float64(len(want)); float64(flipped) < exp/2 || float64(flipped) > exp*2 {
			t.Errorf("rate %v: %d of %d bytes flipped, want about %.0f", rate, flipped, len(want), exp)
		}
	}
}

// TestStorageStatsAndSync: delivered faults are counted per kind, and a
// nil injector reports zeros.
func TestStorageStatsAndSync(t *testing.T) {
	var nilIn *StorageInjector
	if nilIn.Stats() != (StorageStats{}) {
		t.Error("nil injector must report zero stats")
	}

	path := filepath.Join(t.TempDir(), "log")
	in := NewStorage(5, StorageRates{FsyncFail: 1.0})
	f, err := FaultyFS(DiskFS, in).OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, ErrFsyncFail) {
			t.Fatalf("Sync at rate 1.0: err=%v, want ErrFsyncFail", err)
		}
	}
	if got := in.Stats().FsyncFails; got != 3 {
		t.Errorf("FsyncFails = %d, want 3", got)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
