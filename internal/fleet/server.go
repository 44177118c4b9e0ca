package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hangdoctor/internal/core"
)

// Server is the HTTP face of an Aggregator:
//
//	POST /v1/upload         — one report per request, JSON ((*core.Report).Export)
//	                          or the binary wire encoding (core.BinaryContentType)
//	GET  /v1/report         — the folded fleet report (text, or ?format=json)
//	GET  /v1/snapshot       — the folded fleet report in canonical binary form
//	                          (what a regional fleet-agg folds)
//	GET  /healthz           — liveness + queue occupancy
//	GET  /metrics           — Prometheus text exposition (obs registry)
//	GET  /metrics/snapshot  — the obs registry as an obs.Snapshot JSON document
//	                          (the shape obs.MergeSnapshots folds across nodes)
type Server struct {
	agg *Aggregator
	// MaxBodyBytes bounds an upload document (default 8 MiB); oversized
	// bodies are refused with 413 so clients can distinguish "too large"
	// from "malformed".
	MaxBodyBytes int64
	// RetryAfter is the backoff advertised on 429 responses (default 1s).
	RetryAfter time.Duration

	// dicts holds per-device binary-decoder state (see ingest.go).
	dicts *dictCache

	// exportReport serializes a folded report for ?format=json into the
	// caller-supplied buffer. It is a seam for tests to force an export
	// failure; the handler buffers the result so a failure becomes a clean
	// 500 instead of an error string appended to a partially written 200
	// body.
	exportReport func(*core.Report, *bytes.Buffer) error
}

// exportBufPool recycles /v1/report?format=json export buffers across
// scrapes. A fleet-sized export runs to megabytes; without the pool every
// scrape allocates (and regrows) a fresh buffer just to throw it away.
var exportBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// NewServer wraps an aggregator with default limits and a dictionary cache
// sized for DefaultDictDevices devices (use NewServerDict to size it).
func NewServer(agg *Aggregator) *Server {
	return NewServerDict(agg, DefaultDictDevices)
}

// NewServerDict is NewServer with an explicit bound on the number of
// devices whose binary-upload dictionary state the server retains.
func NewServerDict(agg *Aggregator, dictDevices int) *Server {
	return &Server{
		agg:          agg,
		MaxBodyBytes: 8 << 20,
		RetryAfter:   time.Second,
		dicts:        newDictCache(dictDevices, agg.Metrics().Registry()),
		exportReport: func(rep *core.Report, buf *bytes.Buffer) error {
			return rep.Export(buf)
		},
	}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/upload", s.handleUpload)
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/snapshot", s.handleMetricsSnapshot)
	return mux
}

// readBody drains the request body under the size cap, mapping the
// over-limit case to 413 (it is not a malformed document — the same bytes
// under a higher cap might be perfectly valid) and anything else to 400.
// It reports whether the caller may proceed.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	lr := http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(lr); err != nil {
		s.agg.Metrics().NoteInvalid()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("report exceeds %d byte limit", mbe.Limit), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, fmt.Sprintf("invalid report: %v", err), http.StatusBadRequest)
		}
		return nil, false
	}
	return buf.Bytes(), true
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "upload requires POST", http.StatusMethodNotAllowed)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if r.Header.Get("Content-Type") == core.BinaryContentType || core.IsBinaryReport(body) {
		s.uploadBinary(w, body)
		return
	}
	s.uploadJSON(w, body)
}

func (s *Server) uploadJSON(w http.ResponseWriter, body []byte) {
	rep, err := core.ImportReport(bytes.NewReader(body))
	if err != nil {
		s.agg.Metrics().NoteInvalid()
		http.Error(w, fmt.Sprintf("invalid report: %v", err), http.StatusBadRequest)
		return
	}
	entries, hangs := rep.Len(), rep.TotalHangs()
	// The zero ID lets a durable aggregator hash the one canonical encoding
	// it logs instead of encoding the upload a second time here.
	s.finishUpload(w, s.agg.SubmitDurable(rep, UploadID{}), entries, hangs)
}

func (s *Server) uploadBinary(w http.ResponseWriter, body []byte) {
	s.agg.Metrics().binaryUploads.Inc()
	wr, err := s.dicts.decode(body)
	if err != nil {
		var dm *core.DictMismatchError
		if errors.As(err, &dm) {
			// The device's dictionary diverged (server restart, eviction,
			// lost upload). 409 tells the client to reset its encoder and
			// resend with a full dictionary — a protocol round trip, not an
			// invalid document.
			s.agg.Metrics().dictMismatches.Inc()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(map[string]any{
				"error": "dictionary_reset", "assumed": dm.Base, "have": dm.Have,
			})
			return
		}
		s.agg.Metrics().NoteInvalid()
		http.Error(w, fmt.Sprintf("invalid report: %v", err), http.StatusBadRequest)
		return
	}
	entries, hangs := len(wr.Entries), wr.TotalHangs()
	// Zero-copy ingest: the decoded wire entries go straight to their
	// shards, keyed by the decoder's dictionary.
	s.finishUpload(w, s.agg.submitAcked(nil, wr, UploadID{}), entries, hangs)
}

// finishUpload maps a submit outcome onto the response. Both formats
// submit the same way on every node, so a 202 always means the upload has
// merged (a deduplicated resend: its first copy) — and on a durable node
// that it was durable first: its dedup identity is its canonical content
// hash, so a client that re-encodes the same document (key order,
// whitespace, or a binary re-send) still deduplicates.
func (s *Server) finishUpload(w http.ResponseWriter, err error, entries, hangs int) {
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{
			"status": "accepted", "entries": entries, "hangs": hangs,
		})
	case errors.Is(err, ErrQueueFull):
		// Backpressure: the device should retry after a pause instead of the
		// server buffering without bound.
		w.Header().Set("Retry-After", strconv.Itoa(int((s.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, "ingest queue full, retry later", http.StatusTooManyRequests)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrCrashed):
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
	default:
		// A durability failure (failed append or barrier): the upload was
		// not acknowledged and the same document can safely be resent.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "report requires GET", http.StatusMethodNotAllowed)
		return
	}
	rep, vec := s.agg.FoldVersioned()
	if vec.Zero() {
		foldUnavailable(w)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		// Buffer the export before touching the ResponseWriter: once a 200
		// and partial body are out, an error can only corrupt the stream.
		// The buffer comes from (and returns to) a pool, so steady scraping
		// reuses one export-sized allocation instead of minting a new one.
		buf := exportBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		err := s.exportReport(rep, buf)
		if err != nil {
			exportBufPool.Put(buf)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes())
		exportBufPool.Put(buf)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "fleet report: %d root causes, %d diagnosed hangs\n\n", rep.Len(), rep.TotalHangs())
	fmt.Fprint(w, rep.Render())
}

// foldUnavailable answers a read whose fold failed. A crashed or unwound
// gather yields the zero vector, which a live aggregator never serves (its
// epoch is never 0). The 503 makes a regional poller count the node as
// failed and keep its last mirror; a 200 carrying the empty fold would
// replace that mirror with nothing.
func foldUnavailable(w http.ResponseWriter) {
	http.Error(w, "fold unavailable: aggregator crashed", http.StatusServiceUnavailable)
}

// handleSnapshot serves the folded fleet report in canonical binary form —
// the node half of the regional fold protocol. Because the encoding is
// canonical, two nodes holding identical state serve identical bytes, and
// a regional fold of node snapshots is byte-identical to folding the same
// uploads on one node. Every response carries the node's version vector
// (X-Hangdoctor-Vector); a client that echoes it back via ?since= gets a
// delta — only the entries changed after that vector, plus the absolute
// health section — marked X-Hangdoctor-Snapshot: delta. An incomparable
// vector (node restart, shard-count change) degrades to a full snapshot,
// so polling self-heals without client-side special cases.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "snapshot requires GET", http.StatusMethodNotAllowed)
		return
	}
	var (
		rep  *core.Report
		vec  VersionVector
		kind = SnapshotFull
	)
	if sinceStr := r.URL.Query().Get("since"); sinceStr != "" {
		since, err := ParseVersionVector(sinceStr)
		if err != nil {
			http.Error(w, fmt.Sprintf("invalid since vector: %v", err), http.StatusBadRequest)
			return
		}
		var delta bool
		rep, vec, delta = s.agg.Delta(since)
		switch {
		case vec.Zero(): // a failed fold, answered below
		case delta:
			kind = SnapshotDelta
			s.agg.Metrics().deltaRequests.Inc()
		default:
			s.agg.Metrics().fullResyncs.Inc()
		}
	} else {
		rep, vec = s.agg.FoldVersioned()
	}
	if vec.Zero() {
		foldUnavailable(w)
		return
	}
	doc := core.AppendReportBinary(nil, rep)
	w.Header().Set("Content-Type", core.BinaryContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
	w.Header().Set(VectorHeader, vec.String())
	w.Header().Set(SnapshotKindHeader, kind)
	w.Write(doc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Once Close (or Crash) has begun the server can no longer accept
	// uploads; report that as 503 "draining" so load balancers stop
	// routing to it instead of reading an unconditional "ok".
	m := s.agg.Metrics()
	status, code := "ok", http.StatusOK
	if m.foldErrors.Value() > 0 {
		// Some fold served an empty report in place of real shard state; the
		// node still answers (200) but readers should distrust its folds.
		status = "degraded"
	}
	if s.agg.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"shards":         s.agg.Shards(),
		"queue_depth":    s.agg.QueueDepth(),
		"queue_capacity": s.agg.cfg.QueueDepth,
		"accepted":       m.accepted.Value(),
		"rejected":       m.rejected.Value(),
		"invalid":        m.invalid.Value(),
		"fold_errors":    m.foldErrors.Value(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Project live shard state into the registry, then let obs render the
	// whole exposition — one formatter for every metric surface.
	s.agg.scrape()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.agg.Metrics().Registry().WritePrometheus(w)
}

// handleMetricsSnapshot serves the registry as an obs.Snapshot document —
// the node half of regional metrics aggregation: a fleet-agg unmarshals
// each node's snapshot and folds them with obs.MergeSnapshots.
func (s *Server) handleMetricsSnapshot(w http.ResponseWriter, r *http.Request) {
	s.agg.scrape()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.agg.Metrics().Registry().Snapshot())
}
