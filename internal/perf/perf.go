// Package perf models the performance-event counter infrastructure Hang
// Doctor accesses through simpleperf (§3.5 of the paper): a catalog of 46
// events split into kernel software events (generated by scheduler
// mechanics, always exact) and PMU events (counted by a limited number of
// hardware registers and therefore subject to multiplexing error when
// over-subscribed — the 37-events-vs-6-registers problem the paper cites as
// a reason to select few events).
//
// A Session attaches to one or more simulated threads, snapshots their
// counters, and on Stop (or on periodic Sample for time series like the
// paper's Figure 5) returns per-thread, per-event deltas with a measurement
// model applied: co-resident system activity (IRQs, kernel ticks, binder
// churn charged to whichever thread context is current) appears as a
// *common-mode* baseline shared by the threads measured in the same window,
// plus thread-specific noise. The common-mode term is why the paper's
// main-minus-render *difference* correlates better with soft hang bugs than
// main-thread-only counters (Table 3): subtraction cancels it.
package perf

import (
	"errors"
	"fmt"

	"hangdoctor/internal/cpu"
	"hangdoctor/internal/fault"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// Event identifies one of the 46 measurable performance events.
type Event int

// Kernel software events. These are produced by kernel bookkeeping and are
// available on every CPU regardless of PMU capabilities.
const (
	ContextSwitches Event = iota
	TaskClock
	CPUClock
	PageFaults
	MinorFaults
	MajorFaults
	CPUMigrations
	AlignmentFaults
	EmulationFaults

	// PMU hardware events, counted via the (limited) PMU registers.
	Instructions
	Cycles
	CacheReferences
	CacheMisses
	BranchInstructions
	BranchMisses
	BusCycles
	StalledCyclesFrontend
	StalledCyclesBackend
	L1DcacheLoads
	L1DcacheLoadMisses
	L1DcacheStores
	L1DcacheStoreMisses
	L1IcacheLoads
	L1IcacheLoadMisses
	LLCLoads
	LLCLoadMisses
	LLCStores
	LLCStoreMisses
	DTLBLoads
	DTLBLoadMisses
	ITLBLoads
	ITLBLoadMisses
	BranchLoads
	BranchLoadMisses
	NodeLoads
	NodeLoadMisses
	NodeStores
	NodeStoreMisses
	RawL1DcacheRefill
	RawL1ItlbRefill
	RawL2DcacheRefill
	RawBusAccess
	RawMemAccess
	RawExcTaken
	RawLdRetired
	RawStRetired

	// NumEvents is the size of the catalog (9 kernel + 37 PMU = 46).
	NumEvents int = iota
)

// numKernelEvents is the count of kernel software events; everything at or
// beyond Instructions is a PMU event.
const numKernelEvents = 9

var eventNames = [NumEvents]string{
	"context-switches", "task-clock", "cpu-clock", "page-faults",
	"minor-faults", "major-faults", "cpu-migrations", "alignment-faults",
	"emulation-faults",
	"instructions", "cycles", "cache-references", "cache-misses",
	"branch-instructions", "branch-misses", "bus-cycles",
	"stalled-cycles-frontend", "stalled-cycles-backend",
	"L1-dcache-loads", "L1-dcache-load-misses", "L1-dcache-stores",
	"L1-dcache-store-misses", "L1-icache-loads", "L1-icache-load-misses",
	"LLC-loads", "LLC-load-misses", "LLC-stores", "LLC-store-misses",
	"dTLB-loads", "dTLB-load-misses", "iTLB-loads", "iTLB-load-misses",
	"branch-loads", "branch-load-misses", "node-loads", "node-load-misses",
	"node-stores", "node-store-misses", "raw-l1-dcache-refill",
	"raw-l1-itlb-refill", "raw-l2-dcache-refill", "raw-bus-access",
	"raw-mem-access", "raw-exc-taken", "raw-ld-retired", "raw-st-retired",
}

// Name returns the simpleperf-style event name.
func (e Event) Name() string {
	if e < 0 || int(e) >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// String implements fmt.Stringer.
func (e Event) String() string { return e.Name() }

// Kernel reports whether e is a kernel software event (exact, no PMU
// register needed).
func (e Event) Kernel() bool { return int(e) < numKernelEvents }

// HWIndex returns the cpu.Counters.HW slot backing a PMU event. It panics
// for kernel events.
func (e Event) HWIndex() int {
	if e.Kernel() {
		panic("perf: HWIndex of kernel event " + e.Name())
	}
	return int(e) - numKernelEvents
}

// ParseEvent resolves a simpleperf event name.
func ParseEvent(name string) (Event, bool) {
	for i, n := range eventNames {
		if n == name {
			return Event(i), true
		}
	}
	return 0, false
}

// AllEvents returns the full 46-event catalog in declaration order.
func AllEvents() []Event {
	out := make([]Event, NumEvents)
	for i := range out {
		out[i] = Event(i)
	}
	return out
}

// ReadCounter extracts event e from a raw counter snapshot.
func ReadCounter(c cpu.Counters, e Event) int64 {
	switch e {
	case ContextSwitches:
		return c.CtxSwitches()
	case TaskClock:
		return c.TaskClock
	case CPUClock:
		return c.CPUClock
	case PageFaults:
		return c.PageFaults()
	case MinorFaults:
		return c.MinorFaults
	case MajorFaults:
		return c.MajorFaults
	case CPUMigrations:
		return c.Migrations
	case AlignmentFaults:
		return c.AlignmentFaults
	case EmulationFaults:
		return c.EmulationFaults
	default:
		return c.HW[e.HWIndex()]
	}
}

// DefaultRegisters is the number of PMU counting registers; the LG V10 the
// paper profiles exposes 6.
const DefaultRegisters = 6

// Session measurement costs, charged to whoever runs the monitoring (the
// detectors account these towards their runtime overhead). Values model
// simpleperf stat start/stop plus per-counter reads over ioctl.
const (
	CostOpenNs           = 250_000 // fork/exec + perf_event_open per session
	CostReadPerCounterNs = 12_000  // read+scale one (thread, event) counter
)

// Metrics is the perf layer's obs instrumentation: how many sessions were
// opened, how many opens failed, how many counter reads ran, and the total
// simulated cost charged. One Metrics value is shared by every session a
// Doctor opens (handles are obtained once; the note methods are nil-safe
// no-ops so uninstrumented sessions pay a single branch).
type Metrics struct {
	opens     *obs.Counter
	openFails *obs.Counter
	reads     *obs.Counter
	costNs    *obs.Counter
}

// NewMetrics registers the perf counter family into reg and returns the
// handle set to hang on Config.Metrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		opens:     reg.Counter("hangdoctor_perf_sessions_opened_total", "Perf sessions opened (S-Checker and wide-collector windows)."),
		openFails: reg.Counter("hangdoctor_perf_open_failures_total", "Simulated perf_event_open failures (fault injection)."),
		reads:     reg.Counter("hangdoctor_perf_reads_total", "Counter read operations across all sessions."),
		costNs:    reg.Counter("hangdoctor_perf_cost_ns_total", "Total simulated CPU cost charged by perf sessions."),
	}
}

func (m *Metrics) noteOpen() {
	if m != nil {
		m.opens.Inc()
	}
}

func (m *Metrics) noteOpenFailure() {
	if m != nil {
		m.openFails.Inc()
	}
}

func (m *Metrics) noteRead() {
	if m != nil {
		m.reads.Inc()
	}
}

func (m *Metrics) addCost(ns int64) {
	if m != nil {
		m.costNs.Add(ns)
	}
}

// Config controls a Session's fidelity model.
type Config struct {
	// Registers is the number of PMU registers (default 6). PMU events
	// beyond this count are time-multiplexed and their scaled estimates
	// carry extra error.
	Registers int
	// Noise, if non-nil, applies the measurement-environment model to every
	// reading. Nil readings are exact (useful in unit tests).
	Noise *NoiseModel
	// Rng drives multiplexing error; derived sub-streams keep sessions
	// independent. Nil disables multiplexing error even when oversubscribed.
	Rng *simrand.Rand
	// Faults, if non-nil, injects measurement-plane failures: TryReopen may
	// fail or lose the render thread, and individual counter values may be
	// dropped from readings. Open and Reopen ignore the open/render faults
	// (they cannot report them) but still apply counter dropout.
	Faults *fault.Injector
	// Metrics, if non-nil, counts opens, open failures, reads, and charged
	// cost into an obs registry (the owning Doctor's).
	Metrics *Metrics
}

// Values holds one reading: Values[i] is the count for the i-th event the
// session was opened with.
type Values []int64

// Reading is a completed measurement over a window.
type Reading struct {
	Start, End simclock.Time
	// PerThread[t][i] is the delta of event i on thread t, in the order the
	// session was opened with.
	PerThread []Values
	events    []Event
	// lost[t][i] marks counter values dropped by fault injection; nil when
	// every counter survived (the common case).
	lost [][]bool
}

// Value returns thread t's count for event e; it panics if e was not part
// of the session.
func (r Reading) Value(t int, e Event) int64 {
	for i, ev := range r.events {
		if ev == e {
			return r.PerThread[t][i]
		}
	}
	panic("perf: event " + e.Name() + " not in session")
}

// Diff returns Value(0, e) - Value(1, e): with the conventional ordering
// (main thread first, render thread second) this is the main-minus-render
// difference S-Checker thresholds (§3.3.1).
func (r Reading) Diff(e Event) int64 {
	return r.Value(0, e) - r.Value(1, e)
}

// Lost reports whether thread t's counter for event e was dropped by fault
// injection (its Value is 0 and carries no information).
func (r Reading) Lost(t int, e Event) bool {
	if r.lost == nil {
		return false
	}
	for i, ev := range r.events {
		if ev == e {
			return r.lost[t][i]
		}
	}
	panic("perf: event " + e.Name() + " not in session")
}

// ValueOK returns thread t's count for event e and whether the counter
// survived the window (false when it was dropped by fault injection).
func (r Reading) ValueOK(t int, e Event) (int64, bool) {
	return r.Value(t, e), !r.Lost(t, e)
}

// DiffOK returns the main-minus-render difference for e and whether both
// sides survived; a difference with one side missing is meaningless.
func (r Reading) DiffOK(e Event) (int64, bool) {
	return r.Diff(e), !r.Lost(0, e) && !r.Lost(1, e)
}

// Sample is one entry of a periodic time series (Figure 5): per-thread
// deltas over [At-Every, At].
type Sample struct {
	At        simclock.Time
	PerThread []Values
}

// Session is an open measurement attached to a set of threads.
type Session struct {
	clk     *simclock.Clock
	threads []*cpu.Thread
	events  []Event
	cfg     Config
	rng     *simrand.Rand // &rngState, or nil without Config.Rng

	startTime simclock.Time
	startSnap []cpu.Counters
	lastSnap  []cpu.Counters
	lastTime  simclock.Time

	samples     []Sample
	sampleEvent simclock.Handle
	stopped     bool
	costNs      int64
	numPMU      int

	// Buffers a Reopen keeps: the derived RNG, both snapshot sets' backing
	// array, and the full-window reading's values and dropout marks.
	rngState simrand.Rand
	snaps    []cpu.Counters
	flat     []int64
	vals     []Values
	lostFlat []bool
	lost     [][]bool
}

// sessionKey derives each session's multiplexing-error stream from
// Config.Rng.
var sessionKey = []byte("perf-session")

// ErrOpenFailed is returned by TryReopen when fault injection makes the
// simulated perf_event_open fail (fd pressure, seccomp, kernel policy).
var ErrOpenFailed = errors.New("perf: perf_event_open failed")

// Open starts measuring events on threads (index order is preserved in all
// readings; by convention callers pass the main thread first and the render
// thread second).
func Open(clk *simclock.Clock, threads []*cpu.Thread, events []Event, cfg Config) *Session {
	s := new(Session)
	s.Reopen(clk, threads, events, cfg)
	return s
}

// Reopen starts a new measurement on s as Open does, in the buffers s
// already holds, so a monitor that measures window after window keeps one
// session. It invalidates every Reading and Sample s returned before. s
// must be new or stopped.
func (s *Session) Reopen(clk *simclock.Clock, threads []*cpu.Thread, events []Event, cfg Config) {
	if len(threads) == 0 {
		panic("perf: session needs at least one thread")
	}
	if len(events) == 0 {
		panic("perf: session needs at least one event")
	}
	if cfg.Registers == 0 {
		cfg.Registers = DefaultRegisters
	}
	cfg.Metrics.noteOpen()
	*s = Session{
		clk:       clk,
		threads:   threads,
		events:    append(s.events[:0], events...),
		cfg:       cfg,
		startTime: clk.Now(),
		lastTime:  clk.Now(),
		costNs:    CostOpenNs,
		snaps:     s.snaps,
		flat:      s.flat,
		vals:      s.vals,
		lostFlat:  s.lostFlat,
		lost:      s.lost,
	}
	if cfg.Rng != nil {
		cfg.Rng.DeriveInto(&s.rngState, sessionKey)
		s.rng = &s.rngState
	}
	for _, e := range s.events {
		if !e.Kernel() {
			s.numPMU++
		}
	}
	// Both snapshot sets share one backing array.
	n := len(threads)
	s.snaps = grow(s.snaps, 2*n)
	s.startSnap = s.snaps[:n:n]
	s.lastSnap = s.snaps[n:]
	for i, t := range threads {
		s.startSnap[i] = t.Counters()
		s.lastSnap[i] = s.startSnap[i]
	}
}

// TryReopen is Reopen with the measurement-plane failure modes a real
// device exhibits: the whole open can fail (ErrOpenFailed, leaving s as
// it was), or the render thread's counters can be unavailable, in which
// case the session silently degrades to the surviving prefix of threads
// (callers detect this by the length of a Reading's PerThread). Both
// decisions come from cfg.Faults and never fire when it is nil.
func (s *Session) TryReopen(clk *simclock.Clock, threads []*cpu.Thread, events []Event, cfg Config) error {
	if cfg.Faults.PerfOpenFails() {
		cfg.Metrics.noteOpenFailure()
		return ErrOpenFailed
	}
	if len(threads) > 1 && cfg.Faults.RenderUnavailable() {
		threads = threads[:1]
	}
	s.Reopen(clk, threads, events, cfg)
	return nil
}

// grow returns buf resliced to length n, reallocated only when its
// capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// CostNs returns the simulated CPU cost this session has charged so far
// (open + every read performed).
func (s *Session) CostNs() int64 { return s.costNs }

// muxScale returns the fraction of time each PMU event was actually counted.
func (s *Session) muxScale() float64 {
	if s.numPMU <= s.cfg.Registers {
		return 1
	}
	return float64(s.cfg.Registers) / float64(s.numPMU)
}

// read produces per-thread deltas between two snapshot sets into flat and
// out, applying the multiplexing and noise models and the counter-dropout
// fault. flat holds one value per thread and event, and out one slice of
// it per thread. The second result marks dropped counters; it is nil when
// every counter survived. commonG is the shared device-load factor for
// this window.
func (s *Session) read(from []cpu.Counters, fromTime simclock.Time, flat []int64, out []Values) ([]Values, [][]bool) {
	s.cfg.Metrics.noteRead()
	now := s.clk.Now()
	windowSec := float64(now.Sub(fromTime)) / 1e9
	if windowSec < 0 {
		windowSec = 0
	}
	var commonG float64 = 1
	if s.cfg.Noise != nil {
		commonG = s.cfg.Noise.commonFactor()
	}
	mux := s.muxScale()
	ne := len(s.events)
	var lost [][]bool
	for ti, th := range s.threads {
		cur := th.Counters()
		delta := cur.Sub(from[ti])
		vals := Values(flat[ti*ne : (ti+1)*ne : (ti+1)*ne])
		for ei, e := range s.events {
			if s.cfg.Faults.CounterDropped() {
				if lost == nil {
					lost = s.lostMarks()
				}
				lost[ti][ei] = true
				vals[ei] = 0
				continue
			}
			v := float64(ReadCounter(delta, e))
			if !e.Kernel() && mux < 1 && s.rng != nil {
				// The kernel scales multiplexed counts back up by 1/mux; the
				// estimate is unbiased but noisy in proportion to the unseen
				// fraction of the window (37 events on 6 registers see ~16%
				// of it each — the accuracy loss §3.3.1 warns about).
				rel := (1 - mux) * 0.4 * s.rng.NormFloat64()
				v *= 1 + rel
			}
			if s.cfg.Noise != nil {
				v += s.cfg.Noise.contribution(e, windowSec, commonG)
			}
			if v < 0 {
				v = 0
			}
			vals[ei] = int64(v)
		}
		out[ti] = vals
		s.costNs += int64(len(s.events)) * CostReadPerCounterNs
	}
	return out, lost
}

// lostMarks returns the session's dropout marks, one cleared row per
// thread, for the full-window reading.
func (s *Session) lostMarks() [][]bool {
	ne := len(s.events)
	s.lostFlat = grow(s.lostFlat, len(s.threads)*ne)
	clear(s.lostFlat)
	s.lost = grow(s.lost, len(s.threads))
	for i := range s.lost {
		s.lost[i] = s.lostFlat[i*ne : (i+1)*ne : (i+1)*ne]
	}
	return s.lost
}

// SampleEvery arms periodic sampling: every interval, per-thread deltas over
// the last window are appended to Samples. Sampling stops automatically at
// Stop.
func (s *Session) SampleEvery(interval simclock.Duration) {
	if interval <= 0 {
		panic("perf: non-positive sample interval")
	}
	if s.stopped {
		panic("perf: SampleEvery on stopped session")
	}
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		// Samples are kept, so each reads into arrays of its own.
		vals, _ := s.read(s.lastSnap, s.lastTime, make([]int64, len(s.threads)*len(s.events)), make([]Values, len(s.threads)))
		s.samples = append(s.samples, Sample{At: s.clk.Now(), PerThread: vals})
		for i, t := range s.threads {
			s.lastSnap[i] = t.Counters()
		}
		s.lastTime = s.clk.Now()
		s.sampleEvent = s.clk.After(interval, tick)
	}
	s.sampleEvent = s.clk.After(interval, tick)
}

// Samples returns the time series collected so far.
func (s *Session) Samples() []Sample { return s.samples }

// Stop ends the session and returns the full-window reading. Stopping twice
// panics: a second "reading" would silently measure a zero-length window.
func (s *Session) Stop() Reading {
	if s.stopped {
		panic("perf: session stopped twice")
	}
	s.stopped = true
	s.clk.Cancel(s.sampleEvent)
	s.flat = grow(s.flat, len(s.threads)*len(s.events))
	s.vals = grow(s.vals, len(s.threads))
	vals, lost := s.read(s.startSnap, s.startTime, s.flat, s.vals)
	s.cfg.Metrics.addCost(s.costNs)
	return Reading{
		Start:     s.startTime,
		End:       s.clk.Now(),
		PerThread: vals,
		events:    s.events,
		lost:      lost,
	}
}
