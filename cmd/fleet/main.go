// Command fleet is the developer-side half of the Hang Bug Report upload
// path: it reads anonymized JSON report documents (one per device, produced
// by (*Report).Export) from a directory, merges them, and prints the
// fleet-wide Hang Bug Report. Parsing runs on a bounded worker pool and the
// merge runs on the same sharded aggregator that backs fleetd, so a
// directory of thousands of uploads imports at multicore speed — with output
// byte-identical to the old serial merge (the shard fold is deterministic).
//
// Usage:
//
//	fleet -dir reports/          # merge reports/*.json
//	fleet -demo -dir out/        # generate a demo fleet's uploads first
//	fleet -dir reports/ -workers 16 -shards 8
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"hangdoctor"
	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
)

func main() {
	dir := flag.String("dir", "", "directory of exported report JSON files")
	demo := flag.Bool("demo", false, "first simulate a small fleet and write its uploads into -dir")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel parse workers")
	shards := flag.Int("shards", 4, "merge shards")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: fleet -dir <reports-dir> [-demo] [-workers N] [-shards N]")
		os.Exit(2)
	}

	if *demo {
		if err := writeDemoUploads(*dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	res, err := importDir(*dir, *workers, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, msg := range res.skipped {
		fmt.Fprintln(os.Stderr, msg)
	}
	if res.imported == 0 {
		fmt.Fprintf(os.Stderr, "all %d report files failed to parse\n", res.total)
		os.Exit(1)
	}
	fmt.Print(render(res))
}

// render is the merged fleet report as the command prints it.
func render(res importResult) string {
	return fmt.Sprintf("merged %d of %d device reports (%d diagnosed hangs)\n\n", res.imported, res.total, res.fleet.TotalHangs()) +
		res.fleet.Render()
}

// importResult is what a directory import produces: the folded fleet report
// plus deterministic bookkeeping for the CLI output.
type importResult struct {
	fleet    *core.Report
	imported int
	total    int
	// skipped holds one "skipping path: reason" line per bad file, in sorted
	// file order regardless of which worker hit it.
	skipped []string
}

// importDir parses every *.json upload in dir on a bounded worker pool and
// feeds the parsed reports through a sharded fleet.Aggregator. Errors are
// collected per file (indexed, so their order matches the sorted listing)
// and the fold is deterministic, keeping the output byte-identical to a
// serial import no matter the worker or shard counts.
func importDir(dir string, workers, shards int) (importResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return importResult{}, err
	}
	sort.Strings(paths)
	res := importResult{total: len(paths)}
	if len(paths) == 0 {
		return res, fmt.Errorf("no .json reports in %s (try -demo)", dir)
	}
	if workers < 1 {
		workers = 1
	}

	// Each worker has one upload in flight, so the fail-fast submit never
	// finds the queue full.
	agg := fleet.NewAggregator(fleet.Config{Shards: shards, QueueDepth: 2 * workers})
	errs := make([]string, len(paths))
	var imported int
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep, err := importFile(paths[i])
				if err != nil {
					errs[i] = fmt.Sprintf("skipping %s: %v", paths[i], err)
					continue
				}
				if err := agg.SubmitDurable(rep, fleet.UploadID{}); err != nil {
					errs[i] = fmt.Sprintf("skipping %s: %v", paths[i], err)
					continue
				}
				mu.Lock()
				imported++
				mu.Unlock()
			}
		}()
	}
	for i := range paths {
		next <- i
	}
	close(next)
	wg.Wait()
	agg.Close()

	res.fleet = agg.Fold()
	res.imported = imported
	for _, e := range errs {
		if e != "" {
			res.skipped = append(res.skipped, e)
		}
	}
	return res, nil
}

func importFile(path string) (*core.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ImportReport(f)
}

// writeDemoUploads simulates a handful of devices and writes their
// anonymized uploads.
func writeDemoUploads(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c := hangdoctor.LoadCorpus()
	a := c.MustApp("AndStatus")
	for u := 0; u < 6; u++ {
		dev := hangdoctor.LGV10()
		dev.Name = fmt.Sprintf("device-%02d", u)
		sess, err := hangdoctor.NewSession(a, dev, uint64(500+u))
		if err != nil {
			return err
		}
		doctor := hangdoctor.Monitor(sess, hangdoctor.Config{})
		hangdoctor.RunTrace(sess, hangdoctor.Trace(a, uint64(500+u), 150), hangdoctor.Second)
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("device-%02d.json", u)))
		if err != nil {
			return err
		}
		err = doctor.Report().Anonymize("demo-salt").Export(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	fmt.Printf("wrote 6 demo uploads to %s\n", dir)
	return nil
}
