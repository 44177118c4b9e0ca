package fault

// storage.go extends the fault-injection substrate from the measurement
// plane to the storage plane: the fleet WAL writes and reads through the
// FS/File seam below, and a StorageInjector wraps that seam with seeded
// write/read/sync faults so crash recovery is chaos-tested exactly like
// the Doctor's degraded modes. The modeled failures are the ones durable
// logs actually meet in the field:
//
//   - torn write: the process (or kernel) dies mid-append and only a
//     prefix of the record reaches the platter;
//   - disk full: the append is refused outright (ENOSPC);
//   - fsync failure: the write landed in the page cache but the barrier
//     failed, so durability was never promised;
//   - short read: a read returns fewer bytes than asked with no error —
//     contract-legal for io.Reader, and exactly the case sloppy decoders
//     mishandle;
//   - corrupt read: bit rot flips a byte, which the WAL's per-record CRC
//     must catch.
//
// Decision streams derive from (seed, file name) and persist across
// reopens of the same name, so a run draws one reproducible sequence per
// file no matter how shards interleave or how often recovery reopens a
// log — a fault is a property of the stream's position, never a curse on
// a fixed file offset that would make every retry fail identically.
// The node WAL has a single writer, which keeps the per-operation
// decision path lock-free (the only lock is at OpenFile, off the hot
// path); the delivered-fault counters are atomics.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"

	"hangdoctor/internal/simrand"
)

// File is the handle surface a WAL needs: sequential reads for replay,
// appends for the log, Truncate to repair a torn tail, Sync for the
// durability barrier.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem seam durable state is written through. The
// production implementation is DiskFS; tests and the chaos harness wrap
// any FS with FaultyFS to inject storage faults beneath an unchanged
// caller.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics (flag is a
	// combination of os.O_RDONLY, os.O_WRONLY, os.O_CREATE, os.O_APPEND,
	// os.O_TRUNC, ...). A directory opened O_RDONLY yields a handle whose
	// Sync makes the renames inside it durable.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath (the commit point
	// of WAL compaction).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
}

// DiskFS is the real, os-backed FS.
var DiskFS FS = diskFS{}

type diskFS struct{}

func (diskFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (diskFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (diskFS) Remove(name string) error                     { return os.Remove(name) }
func (diskFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// Injected-fault sentinel errors. Callers must treat them like the real
// thing (ENOSPC, EIO); tests match on them to tell injected failures from
// genuine ones.
var (
	ErrTornWrite = errors.New("fault: injected torn write")
	ErrDiskFull  = errors.New("fault: injected disk full")
	ErrFsyncFail = errors.New("fault: injected fsync failure")
)

// StorageRates holds one independent probability per storage fault; the
// zero value injects nothing.
type StorageRates struct {
	// TornWrite is the per-Write probability that only a random prefix of
	// the buffer reaches the file before the write errors out.
	TornWrite float64
	// ShortRead is the per-Read probability that fewer bytes than
	// available are returned with a nil error.
	ShortRead float64
	// FsyncFail is the per-Sync probability that the durability barrier
	// reports failure.
	FsyncFail float64
	// DiskFull is the per-Write probability of an up-front ENOSPC-style
	// refusal (nothing written).
	DiskFull float64
	// CorruptRead is the per-Read probability that one returned byte has
	// a bit flipped (bit rot the CRC must catch).
	CorruptRead float64
}

// Zero reports whether every rate is zero.
func (r StorageRates) Zero() bool {
	return r.TornWrite == 0 && r.ShortRead == 0 && r.FsyncFail == 0 &&
		r.DiskFull == 0 && r.CorruptRead == 0
}

// String renders the non-zero rates compactly ("torn=0.10 fsync=0.50").
func (r StorageRates) String() string {
	s := ""
	add := func(name string, v float64) {
		if v != 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%.2f", name, v)
		}
	}
	add("torn", r.TornWrite)
	add("shortread", r.ShortRead)
	add("fsync", r.FsyncFail)
	add("full", r.DiskFull)
	add("corrupt", r.CorruptRead)
	if s == "" {
		return "none"
	}
	return s
}

// StorageStats counts the storage faults actually delivered, the chaos
// harness's ground truth.
type StorageStats struct {
	TornWrites   int64
	ShortReads   int64
	FsyncFails   int64
	DiskFulls    int64
	CorruptReads int64
}

// StorageInjector makes storage-fault decisions. Unlike the measurement
// plane's Injector (single-threaded per Doctor), files are opened and
// used from many shard goroutines, so the delivered-fault counters are
// atomics; the random decision streams stay lock-free because each
// opened file derives its own private sub-streams from (seed, name).
type StorageInjector struct {
	seed  uint64
	rates StorageRates

	// files caches the per-name decision streams so reopening a file
	// continues its sequence instead of restarting it. Guarded by mu;
	// taken only at OpenFile. Two concurrently open handles on one name
	// would share streams — callers (the node WAL) never do that.
	mu    sync.Mutex
	files map[string]*fileStreams

	tornWrites   atomic.Int64
	shortReads   atomic.Int64
	fsyncFails   atomic.Int64
	diskFulls    atomic.Int64
	corruptReads atomic.Int64
}

// NewStorage builds a storage injector whose per-file decisions are a
// pure function of (seed, file name, operation sequence on that file).
func NewStorage(seed uint64, rates StorageRates) *StorageInjector {
	return &StorageInjector{seed: seed, rates: rates, files: make(map[string]*fileStreams)}
}

// fileStreams is one file's private decision streams, one per fault kind.
type fileStreams struct {
	torn, short, fsync, full, corrupt *simrand.Rand
}

// streams returns name's decision streams, creating them on first open.
func (in *StorageInjector) streams(name string) *fileStreams {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.files[name]
	if st == nil {
		root := simrand.New(in.seed).Derive("fault/storage").Derive(name)
		st = &fileStreams{
			torn:    root.Derive("torn-write"),
			short:   root.Derive("short-read"),
			fsync:   root.Derive("fsync-fail"),
			full:    root.Derive("disk-full"),
			corrupt: root.Derive("corrupt-read"),
		}
		in.files[name] = st
	}
	return st
}

// Rates returns the configured rates (zero for a nil injector).
func (in *StorageInjector) Rates() StorageRates {
	if in == nil {
		return StorageRates{}
	}
	return in.rates
}

// Stats returns the faults delivered so far (zero for a nil injector).
func (in *StorageInjector) Stats() StorageStats {
	if in == nil {
		return StorageStats{}
	}
	return StorageStats{
		TornWrites:   in.tornWrites.Load(),
		ShortReads:   in.shortReads.Load(),
		FsyncFails:   in.fsyncFails.Load(),
		DiskFulls:    in.diskFulls.Load(),
		CorruptReads: in.corruptReads.Load(),
	}
}

// FaultyFS wraps fs so every file opened through it draws storage faults
// from in. A nil injector (or all-zero rates) returns fs unchanged, so
// the fault-free configuration is bit-identical to no wrapper at all.
func FaultyFS(base FS, in *StorageInjector) FS {
	if in == nil || in.rates.Zero() {
		return base
	}
	return &faultyFS{base: base, in: in}
}

type faultyFS struct {
	base FS
	in   *StorageInjector
}

func (f *faultyFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: file, in: f.in, s: f.in.streams(name)}, nil
}

func (f *faultyFS) Rename(oldpath, newpath string) error { return f.base.Rename(oldpath, newpath) }
func (f *faultyFS) Remove(name string) error             { return f.base.Remove(name) }
func (f *faultyFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.base.MkdirAll(path, perm)
}

// faultyFile injects faults on one handle. Each fault kind draws from its
// own derived sub-stream, as everywhere else in this package.
type faultyFile struct {
	f  File
	in *StorageInjector
	s  *fileStreams
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if fire(f.s.torn, f.in.rates.TornWrite) {
		f.in.tornWrites.Add(1)
		// A random strict prefix lands; the rest is lost mid-write.
		n := 0
		if len(p) > 1 {
			n = f.s.torn.Intn(len(p))
		}
		if n > 0 {
			if wn, err := f.f.Write(p[:n]); err != nil {
				return wn, err
			}
		}
		return n, ErrTornWrite
	}
	if fire(f.s.full, f.in.rates.DiskFull) {
		f.in.diskFulls.Add(1)
		return 0, ErrDiskFull
	}
	return f.f.Write(p)
}

func (f *faultyFile) Read(p []byte) (int, error) {
	if len(p) > 1 && fire(f.s.short, f.in.rates.ShortRead) {
		// Shrink the request before it reaches the file: a short read
		// returns fewer bytes with a nil error (io.Reader-legal, the case
		// sloppy decoders mishandle) — it never consumes bytes it does not
		// report, which would be data loss rather than a short read.
		f.in.shortReads.Add(1)
		p = p[:1+f.s.short.Intn(len(p)-1)]
	}
	n, err := f.f.Read(p)
	if n > 0 && fire(f.s.corrupt, f.in.rates.CorruptRead) {
		f.in.corruptReads.Add(1)
		p[f.s.corrupt.Intn(n)] ^= 0x40
	}
	return n, err
}

func (f *faultyFile) Sync() error {
	if fire(f.s.fsync, f.in.rates.FsyncFail) {
		f.in.fsyncFails.Add(1)
		return ErrFsyncFail
	}
	return f.f.Sync()
}

func (f *faultyFile) Truncate(size int64) error { return f.f.Truncate(size) }
func (f *faultyFile) Close() error              { return f.f.Close() }
