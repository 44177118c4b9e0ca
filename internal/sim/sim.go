// Package sim is the fleet device simulator: a sharded virtual-time
// engine that drives the Hang Doctor fleet plane with millions of
// synthetic devices — each uploading Hang Bug Reports on a realistic
// cadence (about one per simulated hour, jittered) — orders of magnitude
// faster than wall time. It is the promotion of the single-goroutine,
// single-heap scheduler that lived inside cmd/fleetload (PR 7) into a
// real subsystem.
//
// Architecture (DESIGN.md §15):
//
//   - Devices are partitioned across W workers by the same consistent-hash
//     function that routes devices to fleet nodes (fleet.RingHash), so one
//     worker's devices target a stable node set in HTTP mode.
//   - Each worker schedules its partition with a private 4-ary index heap
//     (heap.go) and advances virtual time in bounded epochs: Δ simulated
//     ms of free running, then a barrier (barrier.go). No global lock, no
//     global clock.
//   - Device state is struct-of-arrays (state.go); the warm tick mutates
//     preallocated templates and per-worker buffers and allocates
//     nothing.
//   - Three sinks: in-process (each worker coalesces Batch uploads into
//     its one buffer and submits it with fleet.Aggregator.SubmitWire,
//     whose shards merge the entries where the worker wrote them; the
//     worker refills the buffer once the submit returns), HTTP (binary
//     protocol with dictionary deltas against real fleetd nodes, one
//     tuned transport per worker), and discard (scheduler calibration,
//     benchmarks).
//
// Every draw a device makes is a pure function of (Seed, device, upload
// sequence), so the folded fleet report is byte-identical across worker
// counts and across the inproc/HTTP modes — the determinism tests pin
// both.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/fleet"
	"hangdoctor/internal/obs"
)

// Config parameterizes an Engine. Devices and Uploads are required; zero
// values elsewhere take the documented defaults. Exactly one of Agg or
// Nodes selects the sink (both nil is the discard sink, which schedules
// and encodes but delivers nowhere — calibration and benchmark use).
type Config struct {
	// Devices is the fleet size (dense ids 0..Devices-1).
	Devices int
	// Uploads is the total upload budget, spread uniformly: every device
	// uploads Uploads/Devices times (the first Uploads%Devices devices one
	// more), then the engine drains and Run returns.
	Uploads int64
	// Entries is the number of hang entries per upload (1..63, default 4).
	Entries int
	// Workers is the shard count W (default GOMAXPROCS, max 256).
	Workers int
	// Seed fixes every draw in the run.
	Seed int64
	// EpochMS is the virtual-time barrier interval (default 60_000): no
	// worker's clock runs more than one epoch ahead of another's.
	EpochMS int64
	// RestartEvery gives each upload a 1/RestartEvery chance of being
	// preceded by a device restart, which resets the device's dictionary
	// (a full upload follows in HTTP mode). Default 512; 0 or 1 disables.
	RestartEvery int64
	// Batch is how many device uploads the in-process sink coalesces into
	// one aggregator submission (default 64). Merging is commutative, so
	// batching never changes the folded result — it amortizes submission
	// overhead (admission, routing, one shard lock per run) across the
	// batch.
	Batch int

	// Agg selects the in-process sink.
	Agg *fleet.Aggregator
	// Nodes selects the HTTP sink: fleetd base URLs ("http://host:port"),
	// consistent-hashed per device like a real fleet client.
	Nodes []string
	// MaxRetries bounds per-upload HTTP retries (429/409/transport,
	// default 8); an upload still failing after that counts as Failed.
	MaxRetries int

	// discardHTTP selects the encode-and-drop calibration mode (full
	// binary document per upload, no delivery). In-package benchmarks
	// only — unexported so it cannot be set from outside.
	discardHTTP bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Devices <= 0 {
		return c, errors.New("sim: Config.Devices must be positive")
	}
	if c.Uploads <= 0 {
		return c, errors.New("sim: Config.Uploads must be positive")
	}
	if c.Entries == 0 {
		c.Entries = 4
	}
	if c.Entries < 1 || c.Entries > maxEntries {
		return c, fmt.Errorf("sim: Config.Entries must be 1..%d", maxEntries)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > 256 {
		c.Workers = 256
	}
	if c.EpochMS <= 0 {
		c.EpochMS = 60_000
	}
	if c.RestartEvery == 0 {
		c.RestartEvery = 512
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.Agg != nil && len(c.Nodes) > 0 {
		return c, errors.New("sim: Config.Agg and Config.Nodes are mutually exclusive")
	}
	return c, nil
}

// Stats is one run's outcome. Counts are exact and — given equal config
// and seed — identical across worker counts when Failed is zero.
type Stats struct {
	// Uploads is successfully delivered device uploads.
	Uploads int64
	// Entries is hang entries across delivered uploads.
	Entries int64
	// Failed is uploads lost to sink errors (aggregator full, closed or
	// crashed, a durability error, HTTP retries exhausted).
	Failed int64
	// Resyncs is client-side dictionary resets (simulated device
	// restarts) that forced a full upload.
	Resyncs int64
	// ServerResyncs is server-initiated 409 dictionary resyncs.
	ServerResyncs int64
	// Throttled is 429 backpressure responses absorbed.
	Throttled int64
	// WireBytes is bytes of binary documents put on the wire (HTTP mode).
	WireBytes int64
	// DeviceMS is total simulated device time advanced, summed over
	// devices — the numerator of the engine's headline throughput.
	DeviceMS int64
	// Epochs is the virtual-time epoch count the slowest-finishing worker
	// passed through.
	Epochs int64
	// Wall is the run's wall-clock duration.
	Wall time.Duration
}

// DeviceSecondsPerSec is the headline rate: simulated device-seconds
// advanced per wall-clock second.
func (s Stats) DeviceSecondsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return (float64(s.DeviceMS) / 1e3) / s.Wall.Seconds()
}

func (s Stats) String() string {
	return fmt.Sprintf("uploads=%d entries=%d failed=%d resyncs=%d server-resyncs=%d throttled=%d wire-bytes=%d epochs=%d simdev-s/s=%.3g wall=%s",
		s.Uploads, s.Entries, s.Failed, s.Resyncs, s.ServerResyncs, s.Throttled, s.WireBytes, s.Epochs, s.DeviceSecondsPerSec(), s.Wall)
}

// Engine is a configured simulation: fleet state is built (and memory
// committed) in New; Run executes the upload budget once.
type Engine struct {
	cfg        Config
	mode       int8
	seed       int64
	entriesPer int

	// Struct-of-arrays device state, indexed by dense device id.
	names []string
	seq   []uint32
	left  []uint32
	tmpl  []tmplEntry
	// HTTP mode only.
	dictLen  []uint8 // dictionary length the server has committed (0 = none)
	dictSize []uint8 // full dictionary size incl. the device name
	nodeIdx  []uint8 // ring-routed node index
	nodeURL  []string

	pool    *contentPool
	workers []worker
	bar     *barrier
	reg     *obs.Registry
	started atomic.Bool
	wg      sync.WaitGroup
}

// A device uploads once per simulated hour on average: each reschedule
// draws its gap from periodMS ± 10 % (jitterMS wide).
const (
	periodMS = 3_600_000
	jitterMS = periodMS / 5
)

const (
	modeDiscard = int8(iota) // schedule + draw, deliver nowhere
	modeInproc
	modeHTTP
	modeDiscardHTTP // full binary encode, deliver nowhere (calibration)
)

// New builds an engine: interned content pools, per-device templates and
// quotas, ring-consistent worker partitions, and per-worker heaps. All
// fleet memory is committed here — Run itself allocates nothing on the
// device steady state.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		seed:       cfg.Seed,
		entriesPer: cfg.Entries,
		pool:       content(),
		reg:        obs.NewRegistry(),
	}
	switch {
	case cfg.Agg != nil:
		e.mode = modeInproc
	case cfg.discardHTTP:
		e.mode = modeDiscardHTTP
	case len(cfg.Nodes) > 0:
		e.mode = modeHTTP
		e.nodeURL = make([]string, len(cfg.Nodes))
		for i, n := range cfg.Nodes {
			e.nodeURL[i] = n + "/v1/upload"
		}
	}

	D, K := cfg.Devices, cfg.Entries
	e.names = make([]string, D)
	e.seq = make([]uint32, D)
	e.left = make([]uint32, D)
	e.tmpl = make([]tmplEntry, D*K)
	if e.mode == modeHTTP || e.mode == modeDiscardHTTP {
		e.dictLen = make([]uint8, D)
		e.dictSize = make([]uint8, D)
		e.nodeIdx = make([]uint8, D)
	}

	// Quotas: uniform spread of the upload budget.
	quota, extra := cfg.Uploads/int64(D), int(cfg.Uploads%int64(D))
	if quota > int64(^uint32(0)) {
		return nil, errors.New("sim: per-device upload quota exceeds uint32")
	}
	for dev := range e.left {
		q := quota
		if dev < extra {
			q++
		}
		e.left[dev] = uint32(q)
	}

	// Build SoA state in parallel chunks (disjoint ranges, no locks).
	initAt := make([]int64, D)
	build := runtime.GOMAXPROCS(0)
	if build > D {
		build = D
	}
	var bw sync.WaitGroup
	for b := 0; b < build; b++ {
		lo, hi := D*b/build, D*(b+1)/build
		bw.Add(1)
		go func() {
			defer bw.Done()
			e.buildRange(lo, hi, initAt)
		}()
	}
	bw.Wait()

	// Partition devices across workers, consistent with the fleet ring.
	W := cfg.Workers
	var ring *fleet.Ring
	if e.mode == modeHTTP {
		ring = fleet.NewRing(cfg.Nodes, 0)
	}
	wkOf := make([]uint8, D)
	N := len(cfg.Nodes)
	nodePos := map[string]int{}
	for i, n := range cfg.Nodes {
		nodePos[n] = i
	}
	counts := make([]int, W)
	for dev := 0; dev < D; dev++ {
		h := fleet.RingHash(e.names[dev])
		var wk int
		if ring != nil {
			// Workers are split into contiguous runs per node; a device
			// lands on a worker inside its node's run, so every worker's
			// devices target one stable node.
			ni := nodePos[ring.Node(e.names[dev])]
			e.nodeIdx[dev] = uint8(ni)
			lo, hi := ni*W/N, (ni+1)*W/N
			if hi <= lo {
				wk = ni % W
			} else {
				wk = lo + int(h%uint64(hi-lo))
			}
		} else {
			wk = int(h % uint64(W))
		}
		wkOf[dev] = uint8(wk)
		if e.left[dev] > 0 {
			counts[wk]++
		}
	}

	e.workers = make([]worker, W)
	e.bar = newBarrier(W)
	for i := range e.workers {
		e.workers[i].init(e, i, counts[i])
	}
	for dev := 0; dev < D; dev++ {
		if e.left[dev] == 0 {
			continue
		}
		e.workers[wkOf[dev]].h.push(uint32(dev), initAt[dev])
	}
	var hw sync.WaitGroup
	for i := range e.workers {
		hw.Add(1)
		go func(w *worker) {
			defer hw.Done()
			w.h.heapify()
		}(&e.workers[i])
	}
	hw.Wait()

	e.registerMetrics()
	return e, nil
}

// Registry returns the engine's own registry, which its metrics live in.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return len(e.workers) }

// Run executes the configured upload budget and returns the run's stats.
// An engine runs once. The error is non-nil when the sink failed out from
// under the run (the aggregator closed or crashed) — partial stats are
// still returned.
func (e *Engine) Run() (Stats, error) {
	if !e.started.CompareAndSwap(false, true) {
		return Stats{}, errors.New("sim: engine already ran")
	}
	start := time.Now()
	for i := range e.workers {
		e.wg.Add(1)
		go e.workers[i].run()
	}
	e.wg.Wait()
	var st Stats
	var err error
	for i := range e.workers {
		w := &e.workers[i]
		st.Uploads += w.uploads.Load()
		st.Entries += w.entriesN.Load()
		st.Failed += w.failed.Load()
		st.Resyncs += w.resyncs.Load()
		st.ServerResyncs += w.serverResyncs.Load()
		st.Throttled += w.throttled.Load()
		st.WireBytes += w.wireBytes.Load()
		st.DeviceMS += w.deviceMS.Load()
		if ep := w.epochNum.Load(); ep > st.Epochs {
			st.Epochs = ep
		}
		if w.abortErr != nil && err == nil {
			err = w.abortErr
		}
	}
	st.Wall = time.Since(start)
	return st, err
}
