package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/simrand"
)

// device is one simulated phone's upload identity: its name (which the
// ring routes on), its node, and its persistent binary encoder, whose
// dictionary the node mirrors.
type device struct {
	name string
	node int
	enc  *core.BinaryEncoder
}

func newDevice(c *cluster, name string) *device {
	return &device{name: name, node: c.node(name), enc: core.NewBinaryEncoder(name)}
}

// uploadRec is what the load generator remembers of one upload: when its
// report was ready (or, open loop, when it was due), when the generator
// started on it, when the node acked it, and the report itself for the
// correctness gate.
type uploadRec struct {
	id    int64
	lane  int
	ready time.Duration
	sent  time.Duration
	ack   time.Duration
	ok    bool
	rep   *core.Report
}

// maxRetries bounds resends of one upload (409 dictionary resyncs, 429
// backpressure, transport errors) before it counts as failed.
const maxRetries = 8

// sender posts uploads for one load generator goroutine.
type sender struct {
	c      *cluster
	clk    *clock
	tr     *tracer
	lane   int
	jitter *simrand.Rand // backoff only, never content

	retries409 int64
	retries429 int64
}

func newSender(c *cluster, clk *clock, tr *tracer, lane int, seed int64) *sender {
	tr.nameLane(laneDriver+lane, "generator "+strconv.Itoa(lane))
	tr.nameLane(laneVisible+lane, "generator "+strconv.Itoa(lane)+" ack→visible")
	return &sender{c: c, clk: clk, tr: tr, lane: lane,
		jitter: simrand.New(mix(uint64(seed), uint64(lane), 0xbac0ff))}
}

// send encodes rep with the device's encoder and posts it to the device's
// node until a durable 202, handling a 409 by resetting the encoder and
// resending a full dictionary and a 429 by backing off as the server
// asks, with the jitter the simulator's HTTP sink uses.
func (s *sender) send(dev *device, rep *core.Report, id int64, ready time.Duration) uploadRec {
	parent := s.tr.reserve()
	begin := s.clk.now()
	rec := uploadRec{id: id, lane: s.lane, ready: ready, sent: begin, rep: rep}
	doc := s.encode(dev, rep, id, parent)
	url := s.c.urls[dev.node] + "/v1/upload"
	for attempt := 0; attempt <= maxRetries && !rec.ok; attempt++ {
		a0 := s.clk.now()
		status, retryAfter, err := s.post(url, doc)
		a1 := s.clk.now()
		s.tr.add(span{name: "attempt", lane: laneDriver + s.lane, start: a0, end: a1,
			upload: id, parent: parent, bytes: int64(len(doc))})
		switch {
		case err == nil && status == http.StatusAccepted:
			rec.ok, rec.ack = true, a1
		case err == nil && status == http.StatusConflict:
			s.retries409++
			dev.enc.Reset()
			doc = s.encode(dev, rep, id, parent)
		case err == nil && status == http.StatusTooManyRequests:
			s.retries429++
			d := retryAfter
			if d <= 0 {
				d = 100 * time.Millisecond
			}
			s.backoff(d/2+time.Duration(s.jitter.Int63n(int64(d))), id, parent)
		default:
			s.backoff(time.Duration(5+s.jitter.Int63n(20))*time.Millisecond, id, parent)
		}
	}
	s.tr.set(parent, span{name: "upload", lane: laneDriver + s.lane, start: begin, end: s.clk.now(),
		upload: id, parent: -1})
	return rec
}

// addTo accumulates the sender's retries into r.
func (s *sender) addTo(r *result) {
	r.values["fleet.retries_409"] += float64(s.retries409)
	r.values["fleet.retries_429"] += float64(s.retries429)
}

func (s *sender) encode(dev *device, rep *core.Report, id int64, parent int) []byte {
	e0 := s.clk.now()
	doc := dev.enc.Encode(rep)
	s.tr.add(span{name: "encode", lane: laneDriver + s.lane, start: e0, end: s.clk.now(),
		upload: id, parent: parent, bytes: int64(len(doc))})
	return doc
}

func (s *sender) backoff(d time.Duration, id int64, parent int) {
	b0 := s.clk.now()
	time.Sleep(d)
	s.tr.add(span{name: "backoff", lane: laneDriver + s.lane, start: b0, end: s.clk.now(),
		upload: id, parent: parent})
}

func (s *sender) post(url string, doc []byte) (status int, retryAfter time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(doc))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", core.BinaryContentType)
	resp, err := s.c.upload.Do(req)
	if err != nil {
		return 0, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retryAfter, nil
}

// mix hashes values into one 64-bit seed (splitmix64 over each), so
// per-device and per-upload inputs derive from the workload seed alone.
func mix(vals ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vals {
		h ^= v
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}
