package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/simrand"
)

// loopParams sizes an open-loop workload: uploads sent on a fixed
// schedule whether or not earlier ones have been acked, optionally after
// a prefill that saturates the nodes' key space.
type loopParams struct {
	name         string
	uploads      int
	rate         float64 // uploads per second
	entries      int     // root causes per upload
	devices      int
	restartEvery int // a device restart (encoder reset) precedes 1 in this many uploads
	pause        time.Duration

	prefill        int // uploads submitted in-process before measuring
	prefillEntries int
	prefillWorkers int
}

// plannedUpload is one scheduled upload, generated from the seed in setup.
type plannedUpload struct {
	id      int64
	dev     *device
	rep     *core.Report
	due     time.Duration
	restart bool
}

type loopEnv struct {
	c       *cluster
	plans   [][]plannedUpload // per generator, in due order
	senders []*sender
	prefill []*core.Report
	cur     atomic.Int64
}

func setupLoop(p loopParams, seed int64, dir string, tr *tracer, clk *clock) (*loopEnv, error) {
	env := &loopEnv{}
	c, err := openCluster(dir, tr, clk, &env.cur)
	if err != nil {
		return nil, err
	}
	env.c = c
	devs := make([]*device, p.devices)
	for i := range devs {
		devs[i] = newDevice(c, fmt.Sprintf("dev-%04d", i))
	}
	// One generator per node: a device always uploads from the same
	// goroutine, which keeps its dictionary deltas in order.
	env.plans = make([][]plannedUpload, nodes)
	for g := 0; g < nodes; g++ {
		env.senders = append(env.senders, newSender(c, clk, tr, g, seed))
	}
	for i := 0; i < p.uploads; i++ {
		rng := simrand.New(mix(uint64(seed), uint64(i), 1))
		dev := devs[rng.Intn(len(devs))]
		env.plans[dev.node] = append(env.plans[dev.node], plannedUpload{
			id:      int64(i),
			dev:     dev,
			rep:     fleet.SyntheticUpload(int64(mix(uint64(seed), uint64(i), 2)>>1), dev.name, p.entries),
			due:     time.Duration(float64(i) / p.rate * float64(time.Second)),
			restart: p.restartEvery > 0 && rng.Intn(p.restartEvery) == 0,
		})
	}
	if err := env.fill(p, seed, devs); err != nil {
		c.close()
		return nil, err
	}
	if _, ok := c.pollRegion(); !ok {
		c.close()
		return nil, fmt.Errorf("%s: initial poll failed", p.name)
	}
	return env, nil
}

// fill submits the prefill uploads straight into the nodes' aggregators
// with SubmitDurable, from prefillWorkers goroutines so WAL group commits
// batch them.
func (env *loopEnv) fill(p loopParams, seed int64, devs []*device) error {
	if p.prefill == 0 {
		return nil
	}
	env.prefill = make([]*core.Report, p.prefill)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, p.prefillWorkers)
	for w := 0; w < p.prefillWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= p.prefill {
					return
				}
				rng := simrand.New(mix(uint64(seed), uint64(i), 3))
				dev := devs[rng.Intn(len(devs))]
				rep := fleet.SyntheticUpload(int64(mix(uint64(seed), uint64(i), 4)>>1), dev.name, p.prefillEntries)
				id, _ := fleet.ReportUploadID(rep)
				if err := env.c.aggs[dev.node].SubmitDurable(rep, id); err != nil {
					errs[w] = fmt.Errorf("%s prefill: %w", p.name, err)
					return
				}
				env.prefill[i] = rep
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runLoop(p loopParams, o runOpts) (*result, error) {
	res := newResult(p.name, o.tr != nil)
	clk := newClock()
	env, err := repeatSetup(res, func() (*loopEnv, error) { return setupLoop(p, o.seed, o.dir, o.tr, clk) },
		func(e *loopEnv) { e.c.close() })
	if err != nil {
		return nil, err
	}
	defer env.c.close()

	before := env.c.registry()
	ph := beginPhase(clk, o.tr)
	pl := startPoller(clk, o.tr, p.pause, env.c, &env.cur)
	recs := make([][]uploadRec, len(env.plans))
	var wg sync.WaitGroup
	for g := range env.plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snd := env.senders[g]
			for _, u := range env.plans[g] {
				if d := u.due - clk.now(); d > 0 {
					time.Sleep(d)
				}
				if u.restart {
					u.dev.enc.Reset()
				}
				recs[g] = append(recs[g], snd.send(u.dev, u.rep, u.id, u.due))
			}
		}()
	}
	wg.Wait()
	busy := clk.now()
	var all []uploadRec
	acked := append([]*core.Report(nil), env.prefill...)
	for _, rs := range recs {
		for _, u := range rs {
			all = append(all, u)
			if u.ok {
				acked = append(acked, u.rep)
			}
		}
	}
	okN := len(acked) - len(env.prefill)
	ph.end(res, int64(okN), busy)
	final := pl.stop()
	after := env.c.registry()

	for _, snd := range env.senders {
		snd.addTo(res)
	}
	if err := measurePath(res, all, pl, o.tr); err != nil {
		return nil, err
	}
	res.set("fleet.queue_depth_max", float64(pl.queueMax))
	fleetLayers(res, before, after, okN)
	finishHTTP(res, all, pl, final, acked)
	env.plans, env.prefill = nil, nil
	recordLiveHeap(res)
	return res, nil
}

// finishHTTP counts attempts and failures (uploads plus poll rounds) and
// runs the correctness gate on the quiescent regional report.
func finishHTTP(r *result, recs []uploadRec, p *poller, final *core.Report, acked []*core.Report) {
	if failed := countFailures(r, recs, p); failed > 0 {
		r.fail("%d uploads were not acked after %d retries", failed, maxRetries)
	}
	r.set("failed_ratio", ratio(float64(r.failed), float64(r.attempted)))
	if final != nil {
		r.set("regional.entries", float64(final.Len()))
	}
	gate(r, final, acked)
}

// countFailures sets r's attempts and failures from the uploads and the
// poll rounds, and returns how many uploads were not acked.
func countFailures(r *result, recs []uploadRec, p *poller) (failedUploads int64) {
	var failedRounds int64
	for _, u := range recs {
		if !u.ok {
			failedUploads++
		}
	}
	for _, rd := range p.rounds {
		if !rd.ok {
			failedRounds++
		}
	}
	r.attempted = int64(len(recs) + len(p.rounds))
	r.failed = failedUploads + failedRounds
	return failedUploads
}
