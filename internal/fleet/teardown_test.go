package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hangdoctor/internal/core"
)

// submitVia submits rep through one of the five write entry points. acked
// says whether a nil outcome promises the upload has merged (durable first
// on a WAL); SubmitWait's promises only that it was handed off. For
// SubmitWireAcked the outcome is the callback's, or ErrCrashed if a crash
// means it never fires.
func submitVia(way int, a *Aggregator, h http.Handler, rep *core.Report) (acked bool, err error) {
	switch way {
	case 0:
		return false, a.SubmitWait(rep)
	case 1:
		wr, err := core.NewBinaryDecoder().Decode(core.AppendReportBinary(nil, rep))
		if err != nil {
			return true, err
		}
		fired := make(chan error, 1)
		if err := a.SubmitWireAcked(wr, NewWireAck(func(err error) { fired <- err })); err != nil {
			return true, err
		}
		select {
		case err = <-fired:
		case <-a.Crashed():
			select {
			case err = <-fired:
			default:
				err = ErrCrashed
			}
		}
		return true, err
	case 2:
		return true, a.SubmitDurable(rep, UploadID{})
	case 3:
		var buf bytes.Buffer
		if err := rep.Export(&buf); err != nil {
			return true, err
		}
		return true, postUpload(h, "application/json", buf.Bytes())
	default:
		return true, postUpload(h, core.BinaryContentType, core.AppendReportBinary(nil, rep))
	}
}

// TestTeardownDuringHandOff races Close and Crash against submitters that
// are mid-hand-off through every write entry point, with two admission
// slots for six writers so that teardown finds submitters waiting for a
// slot and blocked handing off, and a reader scraping /metrics throughout.
// Every call must end in nil or one of the submit errors, never in a panic
// from a send on a closed channel, and every scrape in a 200. After
// Close the fold is exactly the uploads that returned nil (or whose
// callback fired with nil); after Crash and reopen every acked durable
// upload is recovered.
func TestTeardownDuringHandOff(t *testing.T) {
	for _, tc := range []struct {
		name           string
		durable, crash bool
	}{
		{"close/memory", false, false},
		{"close/durable", true, false},
		{"crash/durable", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 4, QueueDepth: 2, BatchSize: 2}
			if tc.durable {
				cfg.WAL = &WALConfig{Dir: t.TempDir(), Sync: SyncBatch}
			}
			agg, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := NewServer(agg).Handler()
			const writers, perWriter = 6, 30
			var mu sync.Mutex
			var kept, acked []*core.Report // nil outcomes; the acked ones among them
			var wg sync.WaitGroup
			var once sync.Once
			acking := make(chan struct{}) // closed by the first acked upload
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						// One device per upload: its name marks the upload in a fold.
						rep := SyntheticUpload(int64(100*g+i), fmt.Sprintf("device-%d-%02d", g, i), 6)
						want := rep.Clone()
						isAck, err := submitVia((g+i)%5, agg, h, rep)
						switch {
						case err == nil:
							mu.Lock()
							kept = append(kept, want)
							if isAck {
								acked = append(acked, want)
								once.Do(func() { close(acking) })
							}
							mu.Unlock()
						case !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrCrashed):
							t.Errorf("writer %d upload %d: %v", g, i, err)
						}
					}
				}()
			}
			stop := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				for {
					select {
					case <-stop:
						return
					default:
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("scrape during teardown: status %d", rec.Code)
						return
					}
				}
			}()
			<-acking // tear down while the writers are under way
			if tc.crash {
				agg.Crash()
			} else {
				agg.Close()
			}
			wg.Wait()
			close(stop)
			<-scraped

			if !tc.crash {
				if got, want := exportBytes(t, agg.Fold()), exportBytes(t, core.FoldReports(kept...)); !bytes.Equal(got, want) {
					t.Errorf("fold after Close differs from the %d uploads that returned nil", len(kept))
				}
				return
			}
			re, err := Open(Config{Shards: 4, WAL: &WALConfig{Dir: cfg.WAL.Dir, Sync: SyncBatch}})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			got := map[[3]string]*core.ReportEntry{}
			for _, e := range re.Fold().Entries() {
				got[[3]string{e.App, e.ActionUID, e.RootCause}] = e
			}
			for _, rep := range acked {
				for _, e := range rep.Entries() {
					for dev := range e.Devices {
						if g := got[[3]string{e.App, e.ActionUID, e.RootCause}]; g == nil || !g.Devices[dev] {
							t.Fatalf("acked upload from %s lost across Crash: no %s/%s in the recovered fold", dev, e.ActionUID, e.RootCause)
						}
					}
				}
			}
		})
	}
}
