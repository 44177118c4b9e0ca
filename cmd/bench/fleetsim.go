package main

import (
	"fmt"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/sim"
)

// simParams sizes the fleetsim workload: the virtual-time engine drives a
// simulated fleet into one memory-only aggregator through its batched,
// acked wire path. There is no HTTP hop and no poller, so the workload
// defines no ack or visibility latency; it measures how fast the merge
// layer absorbs uploads.
type simParams struct {
	devices int
	uploads int64
	entries int
}

type simEnv struct {
	eng *sim.Engine
	agg *fleet.Aggregator
}

func setupSim(p simParams, seed int64) (simEnv, error) {
	agg := fleet.NewAggregator(fleet.Config{Shards: 8})
	eng, err := sim.New(sim.Config{Devices: p.devices, Uploads: p.uploads, Entries: p.entries, Seed: seed, Agg: agg})
	if err != nil {
		agg.Close()
		return simEnv{}, fmt.Errorf("fleetsim: %w", err)
	}
	return simEnv{eng, agg}, nil
}

func runSim(p simParams, o runOpts) (*result, error) {
	res := newResult("fleetsim", o.tr != nil)
	env, err := repeatSetup(res, func() (simEnv, error) { return setupSim(p, o.seed) },
		func(e simEnv) { e.agg.Close() })
	if err != nil {
		return nil, err
	}
	defer env.agg.Close()
	agg := env.agg

	before := agg.Metrics().Registry().Snapshot()
	ph := beginPhase(newClock(), o.tr)
	st, simErr := env.eng.Run()
	ph.end(res, st.Uploads, st.Wall)
	after := agg.Metrics().Registry().Snapshot()

	fleetLayers(res, before, after, int(st.Uploads))
	simSnap := env.eng.Registry().Snapshot()
	wait := simSnap.Histogram("hangdoctor_sim_epoch_wait_ms")
	res.setN("sim.epoch_wait_ms.p50", wait.Quantile(0.5), int(wait.Count))
	res.set("sim.epoch_wait_ratio", ratio(wait.Sum, float64(env.eng.Workers())*ms(st.Wall)))
	hits := float64(simSnap.Value("hangdoctor_sim_encode_pool_hits_total"))
	waits := float64(simSnap.Value("hangdoctor_sim_encode_pool_waits_total"))
	res.set("sim.pool_wait_ratio", ratio(waits, hits+waits))
	res.set("sim.epochs", float64(st.Epochs))

	res.attempted = st.Uploads + st.Failed
	res.failed = st.Failed
	res.set("failed_ratio", ratio(float64(res.failed), float64(res.attempted)))
	switch {
	case simErr != nil:
		res.fail("simulation: %v", simErr)
	case st.Failed != 0:
		res.fail("simulation lost %d uploads", st.Failed)
	case st.Uploads != p.uploads:
		res.fail("simulation delivered %d of %d uploads", st.Uploads, p.uploads)
	}
	// Every upload was acked, so each has merged: the fold holds them all.
	final := agg.Fold()
	res.set("regional.entries", float64(final.Len()))
	res.digest = digest(core.AppendReportBinary(nil, final))
	recordLiveHeap(res)
	return res, nil
}
