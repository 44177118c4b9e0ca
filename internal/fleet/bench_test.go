package fleet

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hangdoctor/internal/core"
)

// benchDocs prepares one steady-state upload per device in both encodings:
// the JSON export and the binary delta document a warm device emits once
// its dictionary is established (the fleet's steady state — every symbol
// already interned, so the document is refs and counters only). The
// returned decoders are warmed to match, one per device, the way the
// server's dictionary cache holds them.
func benchDocs(b *testing.B, devices, entries int) (json [][]byte, bin [][]byte, decs []*core.BinaryDecoder) {
	b.Helper()
	for d := 0; d < devices; d++ {
		device := fmt.Sprintf("device-%03d", d)
		rep := SyntheticUpload(int64(100+d), device, entries)

		var buf bytes.Buffer
		if err := rep.Export(&buf); err != nil {
			b.Fatal(err)
		}
		json = append(json, append([]byte(nil), buf.Bytes()...))

		enc := core.NewBinaryEncoder(device)
		first := append([]byte(nil), enc.Encode(rep)...)
		steady := append([]byte(nil), enc.Encode(rep)...)
		dec := core.NewBinaryDecoder()
		if _, err := dec.Decode(first); err != nil {
			b.Fatal(err)
		}
		bin = append(bin, steady)
		decs = append(decs, dec)
	}
	return json, bin, decs
}

// BenchmarkIngest measures end-to-end ingest cost per upload — parse or
// decode, split, shard merge — for the JSON path (ImportReport +
// SubmitWait) against the binary path (warm dictionary DecodeScratch +
// SubmitWireAcked), and the durable path: SubmitDurable of 4-entry
// uploads from 16 goroutines into a SyncBatch WAL, reporting the log's
// fsyncs and framed bytes per upload.
// ns/op is the per-upload cost, so throughput = 1e9/ns-op. Run with:
//
//	go test -bench Ingest -benchtime 2s -benchmem -run XXX ./internal/fleet/
//
// The binary path's bar is ≥10× the JSON path at 4 shards (cmd/benchgate
// enforces it in CI): the steady-state document is ~30× smaller and
// decodes into pre-keyed wire entries that merge without re-parsing,
// re-validating, or re-interning. Each device has one WireAck, and its
// next decode waits for its previous upload's merge, because its document
// aliases the decoder's scratch buffers.
//
// History, on a 2-vCPU Intel Xeon VM (GOMAXPROCS 2): when the binary rows
// took their present definition, medians of 3 runs put binary at 11.8×,
// 11.5× and 10.9× JSON at 1, 4 and 8 shards. When the WAL became one
// group-committed node log, durable/shards=8 went from 176 µs, 1.55
// fsyncs, 497 WAL bytes, 16.8 kB and 174 allocs per upload with per-shard
// logs to 63 µs, 0.24 fsyncs, 383 WAL bytes, 10.4 kB and 107 allocs
// (medians of 3 alternating runs).
func BenchmarkIngest(b *testing.B) {
	jsonDocs, binDocs, decs := benchDocs(b, 128, 120)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("json/shards=%d", shards), func(b *testing.B) {
			agg := NewAggregator(Config{Shards: shards, QueueDepth: 4096, BatchSize: 16})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.ImportReport(bytes.NewReader(jsonDocs[i%len(jsonDocs)]))
				if err != nil {
					b.Fatal(err)
				}
				if err := agg.SubmitWait(rep); err != nil {
					b.Fatal(err)
				}
			}
			agg.Close() // the measurement covers every merge
			b.StopTimer()
			if agg.Fold().Len() == 0 {
				b.Fatal("benchmark merged nothing")
			}
		})
		b.Run(fmt.Sprintf("binary/shards=%d", shards), func(b *testing.B) {
			agg := NewAggregator(Config{Shards: shards, QueueDepth: 4096, BatchSize: 16})
			// A device's upload aliases its decoder's scratch buffers until
			// the upload has merged, so each device has one ack and its
			// next decode waits for the previous upload's.
			acks := make([]*WireAck, len(binDocs))
			merged := make([]chan error, len(binDocs))
			inflight := make([]bool, len(binDocs))
			for d := range acks {
				ch := make(chan error, 1)
				merged[d], acks[d] = ch, NewWireAck(func(err error) { ch <- err })
			}
			wait := func(d int) {
				if inflight[d] {
					if err := <-merged[d]; err != nil {
						b.Fatal(err)
					}
					inflight[d] = false
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := i % len(binDocs)
				wait(d)
				wr, err := decs[d].DecodeScratch(binDocs[d])
				if err != nil {
					b.Fatal(err)
				}
				if err := agg.SubmitWireAcked(wr, acks[d]); err != nil {
					b.Fatal(err)
				}
				inflight[d] = true
			}
			for d := range acks {
				wait(d)
			}
			agg.Close()
			b.StopTimer()
			if agg.Fold().Len() == 0 {
				b.Fatal("benchmark merged nothing")
			}
		})
	}
	b.Run("durable/shards=8", func(b *testing.B) {
		agg, err := Open(Config{Shards: 8, QueueDepth: 4096, BatchSize: 16,
			WAL: &WALConfig{Dir: b.TempDir(), Sync: SyncBatch}})
		if err != nil {
			b.Fatal(err)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
					// One device per upload: identical content would be
					// deduplicated instead of logged.
					rep := SyntheticUpload(i, fmt.Sprintf("device-%d", i), 4)
					if err := agg.SubmitDurable(rep, UploadID{}); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		snap := agg.Metrics().Registry().Snapshot()
		b.ReportMetric(float64(snap.Value("hangdoctor_fleet_wal_fsyncs_total"))/float64(b.N), "fsyncs/op")
		b.ReportMetric(float64(snap.Value("hangdoctor_fleet_wal_bytes_written_total"))/float64(b.N), "walbytes/op")
		agg.Close()
	})
}

// BenchmarkBinaryDecode isolates the decode half of the binary path: a
// warm-dictionary steady-state document through DecodeScratch. The bar,
// which cmd/benchgate enforces in CI, is zero allocations per operation —
// decode writes into reused buffers and resolves every string against the
// decoder's committed dictionary.
func BenchmarkBinaryDecode(b *testing.B) {
	_, binDocs, decs := benchDocs(b, 1, 120)
	doc, dec := binDocs[0], decs[0]
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeScratch(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialMerge is the pre-sharding baseline: one goroutine folding
// every upload into one report, the shape of the old offline cmd/fleet path.
func BenchmarkSerialMerge(b *testing.B) {
	reps := uploads(128, 120)
	b.ResetTimer()
	rep := core.NewReport()
	for i := 0; i < b.N; i++ {
		rep.Merge(reps[i%len(reps)])
	}
}
