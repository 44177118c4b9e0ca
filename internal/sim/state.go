package sim

import (
	"fmt"
	"strconv"
	"sync"
)

// state.go: fleet state construction. Device state is struct-of-arrays
// indexed by dense device id — parallel slices for upload sequence
// numbers, remaining quotas, entry templates, and (HTTP mode) dictionary
// state — instead of the one-heap-object-per-device layout the PR 7
// scheduler used. SoA is what makes 10M resident devices cheap: the
// steady-state tick touches a handful of adjacent array cells, templates
// pack to seven bytes per entry, and nothing is individually
// garbage-collected.
//
// Content is drawn from the same bounded pools as fleet.SyntheticUpload —
// 8 apps × 24 actions, 200 blocking operations — so different devices
// overlap on the hot root causes (the realistic fleet shape: merging
// mostly hits existing entries) while shard routing still spreads them.
// Unlike SyntheticUpload, each device's entry identities are drawn ONCE at
// build time into a packed template: a real device hits the same bugs
// upload after upload, only its counters move, which is also what gives
// the binary protocol's dictionary deltas something to be stable against.

const (
	numApps    = 8
	numActions = 24 // per app
	numOps     = 200
	// maxEntries bounds entries-per-upload so every per-device dictionary
	// ref fits a uint8: 4 strings per entry + the device name ≤ 253.
	maxEntries = 63
)

// contentPool interns every string the fleet can ever produce. One pool
// serves all engines (content is config-independent), so repeated engine
// construction — the benchmark matrix — reuses it.
type contentPool struct {
	apps    [numApps]string
	actions [numApps * numActions]string
	roots   [numOps]string
	files   [numOps]string
}

var (
	poolOnce sync.Once
	pool     *contentPool
)

func content() *contentPool {
	poolOnce.Do(func() {
		p := &contentPool{}
		for a := 0; a < numApps; a++ {
			p.apps[a] = fmt.Sprintf("app-%02d", a)
			for c := 0; c < numActions; c++ {
				p.actions[a*numActions+c] = fmt.Sprintf("%s/Action-%02d", p.apps[a], c)
			}
		}
		for op := 0; op < numOps; op++ {
			p.roots[op] = fmt.Sprintf("com.example.blocking.Op%03d.run", op)
			p.files[op] = fmt.Sprintf("Op%03d.java", op)
		}
		pool = p
	})
	return pool
}

// opLine and opViaCaller mirror fleet.SyntheticUpload's rule that source
// location and kind are pure functions of the root cause — merge
// commutativity depends on entries of one identity agreeing on metadata.
func opLine(op uint8) int       { return 1 + int(op)*7%899 }
func opViaCaller(op uint8) bool { return op%17 == 0 }

// tmplEntry is one precomputed upload entry: content indices into the
// shared pool plus this device's dictionary refs for the binary protocol
// (assigned in document walk order at build; the file string shares the
// op index with the root cause). Seven bytes per entry, mutated never —
// per-tick variation (hangs, response time) comes from the draw stream.
type tmplEntry struct {
	app, action, op               uint8
	appRef, actRef, rootRef, fRef uint8
}

// deviceName formats "device-%07d" without fmt (1e7 names at build time).
func deviceName(scratch []byte, dev int) string {
	scratch = append(scratch[:0], "device-"...)
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(dev), 10)
	for pad := 7 - len(digits); pad > 0; pad-- {
		scratch = append(scratch, '0')
	}
	return string(append(scratch, digits...))
}

// buildRange populates the SoA state for devices [lo, hi): name, entry
// template with per-device dictionary refs, upload quota, and the initial
// upload offset (written into initAt for the heap loader). Ranges are
// disjoint, so builders run in parallel without synchronization.
func (e *Engine) buildRange(lo, hi int, initAt []int64) {
	K := e.entriesPer
	// Stamp-trick dedup scratch: slot = (dev+1)<<8 | ref means "this
	// string already has a ref in the current device's dictionary".
	// Resetting is one stamp bump, not a memset per device.
	var appSeen [numApps]uint64
	var actSeen [numApps * numActions]uint64
	var rootSeen, fileSeen [numOps]uint64
	nameBuf := make([]byte, 0, 24)
	for dev := lo; dev < hi; dev++ {
		e.names[dev] = deviceName(nameBuf, dev)
		stamp := uint64(dev+1) << 8
		r := tickRand{x: streamSeed(e.seed, uint32(dev), 0)}
		next := uint8(0)
		assign := func(seen []uint64, idx int) uint8 {
			if seen[idx]&^0xff == stamp {
				return uint8(seen[idx])
			}
			next++
			seen[idx] = stamp | uint64(next)
			return next
		}
		for j := 0; j < K; j++ {
			app := uint8(r.next() % numApps)
			act := uint8(r.next() % numActions)
			op := uint8(r.next() % numOps)
			ai := int(app)*numActions + int(act)
			t := &e.tmpl[dev*K+j]
			t.app, t.action, t.op = app, uint8(ai), op
			t.appRef = assign(appSeen[:], int(app))
			t.actRef = assign(actSeen[:], ai)
			t.rootRef = assign(rootSeen[:], int(op))
			t.fRef = assign(fileSeen[:], int(op))
		}
		if e.dictSize != nil {
			e.dictSize[dev] = next + 1 // + the device name, always last
		}
		initAt[dev] = int64(r.next() % uint64(e.periodMS))
	}
}
