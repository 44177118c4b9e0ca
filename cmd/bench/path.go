package main

import (
	"fmt"
	"time"
)

// pathRow is one step of the report → region path: its mean time per
// acked upload in the traced run.
type pathRow struct {
	name string
	ms   float64
}

// measurePath fills the latency metrics of the acked uploads: ack_ms from
// ready (or due) time to the durable ack, report_to_region_ms to the end
// of the first successful poll round that started after the ack — an ack
// implies the shards already merged the upload, so that round is exactly
// the first to show it — and regional.wait_ms from the ack to that
// round's start, and the generator's worst lateness. With a tracer it
// also records the ack → visible spans, the span-derived per-layer
// metrics and the path decomposition.
func measurePath(r *result, recs []uploadRec, p *poller, tr *tracer) error {
	var ack, r2r, wait []float64
	var r2rSum, late time.Duration
	cover := make([]round, len(recs))
	for i, u := range recs {
		late = max(late, u.sent-u.ready)
		if !u.ok {
			continue
		}
		rd, ok := p.covering(u.ack)
		if !ok {
			return fmt.Errorf("upload %d acked at %v: no poll round covers it", u.id, u.ack)
		}
		cover[i] = rd
		ack = append(ack, ms(u.ack-u.ready))
		r2r = append(r2r, ms(rd.end-u.ready))
		r2rSum += rd.end - u.ready
		wait = append(wait, ms(rd.start-u.ack))
	}
	n := len(ack)
	r.setN("ack_ms.p50", quantile(ack, 0.5), n)
	r.setN("ack_ms.p99", quantile(ack, 0.99), n)
	r.setN("report_to_region_ms.p50", quantile(r2r, 0.5), n)
	r.setN("report_to_region_ms.p99", quantile(r2r, 0.99), n)
	r.setN("regional.wait_ms.p50", quantile(wait, 0.5), n)
	r.set("gen.lateness_ms.max", ms(late))

	polls := make([]float64, len(p.rounds))
	for i, rd := range p.rounds {
		polls[i] = ms(rd.end - rd.start)
	}
	r.setN("regional.poll_ms.p50", quantile(polls, 0.5), len(polls))
	r.setN("regional.poll_ms.p99", quantile(polls, 0.99), len(polls))
	if tr == nil || n == 0 {
		return nil
	}

	for i, u := range recs {
		if u.ok {
			tr.add(span{name: "visible", lane: laneVisible + u.lane, start: u.ack, end: cover[i].end,
				upload: u.id, parent: -1})
		}
	}
	spanLayers(r, tr)

	// Decompose each acked upload's path: generator lateness, then from
	// its own spans encode and upload attempts with their backoff, then
	// the wait for the covering round and that round.
	type steps struct{ encode, transfer time.Duration }
	per := map[int64]*steps{}
	for _, s := range tr.spans {
		switch s.name {
		case "encode", "attempt", "backoff":
		default:
			continue
		}
		st := per[s.upload]
		if st == nil {
			st = &steps{}
			per[s.upload] = st
		}
		if s.name == "encode" {
			st.encode += s.dur()
		} else {
			st.transfer += s.dur()
		}
	}
	var gen, enc, transfer, waitSum, roundSum time.Duration
	for i, u := range recs {
		if !u.ok {
			continue
		}
		st := per[u.id]
		if st == nil {
			return fmt.Errorf("upload %d has no spans", u.id)
		}
		gen += u.sent - u.ready
		enc += st.encode
		transfer += st.transfer
		waitSum += cover[i].start - u.ack
		roundSum += cover[i].end - cover[i].start
	}
	mean := func(d time.Duration) float64 { return ms(d) / float64(n) }
	r.path = []pathRow{
		{"generator lateness", mean(gen)},
		{"binwire encode", mean(enc)},
		{"upload attempts + backoff", mean(transfer)},
		{"regional wait", mean(waitSum)},
		{"covering poll round", mean(roundSum)},
		{"sum of steps", mean(gen + enc + transfer + waitSum + roundSum)},
		{"report_to_region_ms mean", mean(r2rSum)},
	}
	return nil
}

// spanLayers derives the per-layer metrics that only spans carry.
func spanLayers(r *result, tr *tracer) {
	var encode, encBytes, rtt, fetch []float64
	var fetchBytes float64
	slowest := map[int]time.Duration{} // poll span → its slowest fetch
	for _, s := range tr.spans {
		switch s.name {
		case "encode":
			encode = append(encode, float64(s.dur())/1e3)
			encBytes = append(encBytes, float64(s.bytes))
		case "attempt":
			rtt = append(rtt, ms(s.dur()))
		case "fetch":
			fetch = append(fetch, ms(s.dur()))
			fetchBytes += float64(s.bytes)
			if s.parent >= 0 {
				slowest[s.parent] = max(slowest[s.parent], s.dur())
			}
		}
	}
	r.setN("binwire.encode_us", mean(encode), len(encode))
	r.set("binwire.bytes_per_upload", mean(encBytes))
	r.setN("fleet.upload_rtt_ms.p50", quantile(rtt, 0.5), len(rtt))
	r.setN("fleet.upload_rtt_ms.p99", quantile(rtt, 0.99), len(rtt))
	r.setN("fleet.snapshot_fetch_ms.p50", quantile(fetch, 0.5), len(fetch))
	r.setN("fleet.snapshot_fetch_ms.p99", quantile(fetch, 0.99), len(fetch))
	r.set("fleet.snapshot_bytes", ratio(fetchBytes, float64(len(fetch))))
	var apply []float64
	for i, s := range tr.spans {
		if s.name == "poll" {
			apply = append(apply, ms(s.dur()-slowest[i]))
		}
	}
	r.setN("regional.apply_ms", mean(apply), len(apply))
	r.self = tr.selfTimes()
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
