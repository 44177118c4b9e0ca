package fleet

// regional.go is the second fleet tier: a regional aggregator that folds N
// fleetd nodes into one view the same way one node folds its shards. Each
// node serves its folded state in canonical binary form on /v1/snapshot
// and its obs registry on /metrics/snapshot; the Regional polls both and
// folds them — the report with the commutative merge (so the region is
// byte-identical to single-node operation on the same uploads) and the
// metrics through obs.MergeSnapshots (per-series sums). The shard fold and
// the node fold are the same algebra at different radii, which is what
// makes the two-tier determinism test meaningful: shards→node→region and
// uploads→one-aggregator must produce identical bytes.
//
// PollDelta is the one read path: it keeps a materialized per-node mirror
// plus a regional master report, echoes each node's version vector back
// via /v1/snapshot?since=, applies the returned deltas, and re-derives
// only the changed entries — so steady-state poll cost scales with change,
// not fleet size. The master starts as an empty report and is immutable:
// each round that moved, the first included, builds the next master with
// RefreshKeys, which shares every unchanged entry and trie node with the
// previous one, and hands it out as is. A node
// restart (epoch change) degrades that node to a full snapshot
// automatically, and a failed node — one that does not answer, or whose
// aggregator crashed and answers 503 — keeps its last mirrored state so
// the region serves stale-but-complete data instead of nothing (the
// caller surfaces the failure as degraded).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/obs"
)

// maxSnapshotBytes bounds one node's snapshot document (a folded fleet
// report can be much larger than one upload).
const maxSnapshotBytes = 256 << 20

// nodeState is the poller's materialized mirror of one node: the last
// applied folded state and the vector it corresponds to, zero until a
// full snapshot has been applied (until then ?since= is withheld).
type nodeState struct {
	rep *core.Report
	vec VersionVector
}

// Regional folds a set of fleetd nodes. The zero value is not usable;
// construct with NewRegional.
type Regional struct {
	nodes  []string
	client *http.Client

	// NodeTimeout bounds one node's fetch inside a PollDelta round so a
	// slow or wedged node cannot stall the whole round (0 = only the
	// client's own timeout applies).
	NodeTimeout time.Duration

	// mu guards the poller's materialized state (Metrics is stateless and
	// never takes it).
	mu     sync.Mutex
	states []nodeState
	master *core.Report // immutable fold of every node mirror, rebuilt per changed entry
}

// NewRegional builds a regional folder over node base URLs (e.g.
// "http://127.0.0.1:8717"). client nil uses a 30s-timeout default.
func NewRegional(nodes []string, client *http.Client) *Regional {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	r := &Regional{
		nodes:  append([]string(nil), nodes...),
		client: client,
		master: core.NewReport(),
	}
	r.states = make([]nodeState, len(r.nodes))
	for i := range r.states {
		r.states[i].rep = core.NewReport()
	}
	return r
}

// nodeFetch is one node's decoded /v1/snapshot response.
type nodeFetch struct {
	wr    *core.WireReport
	vec   VersionVector
	delta bool
}

// fetchSince pulls one node's snapshot, echoing since unless it is zero,
// and decodes the vector and kind headers alongside the body.
func (r *Regional) fetchSince(ctx context.Context, node string, since VersionVector) (nodeFetch, error) {
	u := node + "/v1/snapshot"
	if !since.Zero() {
		u += "?since=" + url.QueryEscape(since.String())
	}
	body, hdr, err := r.get(ctx, u)
	if err != nil {
		return nodeFetch{}, err
	}
	// A new view per fetch: PollDelta makes no single-caller promise, so
	// two rounds may fetch at once.
	wr := new(core.WireReport)
	if err := core.NewBinaryDecoder().Decode(body, wr); err != nil {
		return nodeFetch{}, fmt.Errorf("fleet: node %s snapshot: %w", node, err)
	}
	nf := nodeFetch{wr: wr, delta: hdr.Get(SnapshotKindHeader) == SnapshotDelta}
	if vs := hdr.Get(VectorHeader); vs != "" {
		nf.vec, err = ParseVersionVector(vs)
		if err != nil {
			return nodeFetch{}, fmt.Errorf("fleet: node %s: %w", node, err)
		}
	}
	return nf, nil
}

// PollResult summarizes one PollDelta round.
type PollResult struct {
	// Report is the immutable regional fold after the round: the poller's
	// master itself, which later rounds replace rather than change, so it
	// is safe to hold across rounds.
	Report *core.Report
	// Errs holds one slot per configured node; nil entries are healthy.
	Errs []error
	// Failed counts non-nil Errs; Deltas counts nodes that answered with a
	// delta rather than a full snapshot.
	Failed int
	Deltas int
}

// PollDelta runs one incremental poll round: fetch each node (bounded by
// NodeTimeout so one slow node cannot stall the round), apply full
// snapshots or deltas to the per-node mirrors, and re-derive only the
// changed entries of the regional master. Failed nodes keep their last
// mirrored state. The returned report is byte-identical to a from-scratch
// fold of the mirrors — and, once every node has answered one round
// cleanly, to a fold of the nodes' own reports.
func (r *Regional) PollDelta(ctx context.Context) PollResult {
	n := len(r.nodes)
	sinces := make([]VersionVector, n)
	r.mu.Lock()
	for i := range r.states {
		sinces[i] = r.states[i].vec
	}
	r.mu.Unlock()

	fetches := make([]nodeFetch, n)
	errs := make([]error, n)
	r.eachNode(ctx, func(ctx context.Context, i int, node string) {
		fetches[i], errs[i] = r.fetchSince(ctx, node, sinces[i])
	})

	r.mu.Lock()
	defer r.mu.Unlock()
	res := PollResult{Errs: errs}
	var changed []*core.ReportEntry
	advanced := false
	for i := range fetches {
		if errs[i] != nil {
			res.Failed++
			continue
		}
		nf := fetches[i]
		if nf.delta {
			res.Deltas++
			if nf.vec.Equal(sinces[i]) && len(nf.wr.Entries) == 0 {
				continue // nothing moved on this node
			}
			changed = append(changed, r.states[i].rep.ApplyWireDelta(nf.wr)...)
		} else {
			changed = append(changed, r.states[i].rep.ApplyWireFull(nf.wr)...)
		}
		advanced = true
		r.states[i].vec = nf.vec
	}
	if advanced {
		parts := make([]*core.Report, n)
		for i := range r.states {
			parts[i] = r.states[i].rep
		}
		// Mirrors replace leaves rather than writing into them, so the
		// master may share the leaf of an entry only one mirror holds, and
		// RefreshKeys builds a new master around the changed entries — so
		// masters handed out in earlier rounds stay valid.
		r.master = r.master.RefreshKeys(changed, parts...)
	}
	res.Report = r.master
	return res
}

// Metrics fetches every node's obs snapshot from /metrics/snapshot and
// folds them with obs.MergeSnapshots — counters and gauges sum per series,
// histograms sum per bucket — so the regional exposition has the same
// shape as a node's. Each fetch is bounded by NodeTimeout like the report
// polls, so a hung node fails this round instead of wedging every round.
func (r *Regional) Metrics(ctx context.Context) (obs.Snapshot, error) {
	snaps := make([]obs.Snapshot, len(r.nodes))
	errs := make([]error, len(r.nodes))
	r.eachNode(ctx, func(ctx context.Context, i int, node string) {
		body, _, err := r.get(ctx, node+"/metrics/snapshot")
		if err != nil {
			errs[i] = err
			return
		}
		errs[i] = json.Unmarshal(body, &snaps[i])
	})
	for _, err := range errs {
		if err != nil {
			return obs.Snapshot{}, err
		}
	}
	return obs.MergeSnapshots(snaps...), nil
}

// eachNode calls fn for every node at once, each with a context bounded
// by NodeTimeout, and returns when every call has.
func (r *Regional) eachNode(ctx context.Context, fn func(ctx context.Context, i int, node string)) {
	var wg sync.WaitGroup
	for i, node := range r.nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			nctx := ctx
			if r.NodeTimeout > 0 {
				var cancel context.CancelFunc
				nctx, cancel = context.WithTimeout(ctx, r.NodeTimeout)
				defer cancel()
			}
			fn(nctx, i, node)
		}(i, node)
	}
	wg.Wait()
}

func (r *Regional) get(ctx context.Context, u string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("fleet: %s: status %d", u, resp.StatusCode)
	}
	return body, resp.Header, nil
}
