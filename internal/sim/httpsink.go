package sim

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/simclock"
)

// httpsink.go: the HTTP mode — real binary-protocol uploads against
// fleetd nodes, exercising the whole ingest edge (dictionary deltas, 409
// resync round trips, 429 backpressure) the way a fleet of devices would.
// The document encoder is core.DocWriter fed from the device's
// precomputed dictionary refs, so the steady-state encode allocates
// nothing; only the HTTP request machinery itself allocates.

// emitHTTP delivers one device upload to the device's ring-routed node.
func (w *worker) emitHTTP(dev uint32, restart bool) {
	e := w.e
	if restart {
		// Simulated device restart: the device-side encoder state is gone,
		// the next document carries the full dictionary.
		w.lResyncs++
		e.dictLen[dev] = 0
	}
	full := e.dictLen[dev] == 0
	doc := w.buildDoc(dev, full)
	w.postDoc(dev, doc, full)
}

// emitDiscardHTTP encodes the document and drops it — the calibration
// mode that isolates scheduler + encode cost from the network.
func (w *worker) emitDiscardHTTP(dev uint32, restart bool) {
	e := w.e
	if restart {
		w.lResyncs++
		e.dictLen[dev] = 0
	}
	doc := w.buildDoc(dev, e.dictLen[dev] == 0)
	e.dictLen[dev] = e.dictSize[dev]
	w.lUploads++
	w.lEntries += int64(e.entriesPer)
	w.lWireBytes += int64(len(doc))
}

// buildDoc encodes this tick's upload. A full document reconstructs the
// device's dictionary delta in the exact first-use order the build phase
// assigned refs in (a new ref is always the next integer, so "ref ==
// len(delta)+1" recovers the assignment walk); a steady-state document
// sends no strings at all against the committed base.
func (w *worker) buildDoc(dev uint32, full bool) []byte {
	e := w.e
	p := e.pool
	K := e.entriesPer
	base := int(dev) * K
	dictBase := 0
	delta := w.delta[:0]
	if full {
		for j := 0; j < K; j++ {
			t := &e.tmpl[base+j]
			if int(t.appRef) == len(delta)+1 {
				delta = append(delta, p.apps[t.app])
			}
			if int(t.actRef) == len(delta)+1 {
				delta = append(delta, p.actions[t.action])
			}
			if int(t.rootRef) == len(delta)+1 {
				delta = append(delta, p.roots[t.op])
			}
			if int(t.fRef) == len(delta)+1 {
				delta = append(delta, p.files[t.op])
			}
		}
		delta = append(delta, e.names[dev]) // the device's own ref, always last
	} else {
		dictBase = int(e.dictSize[dev])
	}
	w.delta = delta
	w.dw.Begin(e.names[dev], dictBase, delta, K)
	w.devRef[0] = uint32(e.dictSize[dev])
	for j := 0; j < K; j++ {
		t := &e.tmpl[base+j]
		hangs := int(w.hangs[j])
		rt := simclock.Duration(w.rtMS[j]) * simclock.Millisecond
		w.dw.Entry(uint32(t.appRef), uint32(t.actRef), uint32(t.rootRef), uint32(t.fRef),
			opLine(t.op), opViaCaller(t.op), hangs, w.devRef[:], rt, simclock.Duration(hangs)*rt)
	}
	return w.dw.Finish()
}

// postDoc drives one upload through the protocol state machine: 202
// commits the dictionary, 409 resets it and resends the SAME tick content
// in full (the draw scratch is still live), 429 backs off on the wall
// clock with jitter from a non-content stream, transport errors retry.
// Retries exhausted counts the upload as failed and moves on — the
// determinism tests assert Failed is zero before comparing folds.
func (w *worker) postDoc(dev uint32, doc []byte, full bool) {
	e := w.e
	url := e.nodeURL[e.nodeIdx[dev]]
	for attempt := 0; ; attempt++ {
		if attempt > maxRetries {
			w.lFailed++
			return
		}
		status, retryAfter, err := w.post(url, doc)
		switch {
		case err == nil && status == http.StatusAccepted:
			e.dictLen[dev] = e.dictSize[dev]
			w.lUploads++
			w.lEntries += int64(e.entriesPer)
			w.lWireBytes += int64(len(doc))
			return
		case err == nil && status == http.StatusConflict:
			w.lServerResyncs++
			e.dictLen[dev] = 0
			if !full {
				full = true
				doc = w.buildDoc(dev, true)
			}
		case err == nil && status == http.StatusTooManyRequests:
			w.lThrottled++
			d := retryAfter
			if d <= 0 {
				d = 100 * time.Millisecond
			}
			time.Sleep(d/2 + time.Duration(w.jitter.Int63n(int64(d))))
		default:
			time.Sleep(time.Duration(5+w.jitter.Int63n(20)) * time.Millisecond)
		}
	}
}

// post sends one attempt and records its round trip.
func (w *worker) post(url string, doc []byte) (status int, retryAfter time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(doc))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", core.BinaryContentType)
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.rttH.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	var ra time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, ra, nil
}
