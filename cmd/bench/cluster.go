package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/obs"
)

// cluster is the system under test of the HTTP workloads: two durable
// fleetd nodes served on loopback, the consistent-hash ring that routes
// devices to them, and the regional delta poller that folds them.
type cluster struct {
	dir      string
	aggs     []*fleet.Aggregator
	srvs     []*http.Server
	serving  sync.WaitGroup
	urls     []string
	ring     *fleet.Ring
	nodeOf   map[string]int // ring member name → node index
	upload   *http.Client   // device uploads
	poll     *http.Client   // the regional poller's own client
	regional *fleet.Regional
}

const nodes = 2

// openCluster opens both nodes with WAL directories in a fresh directory
// under parent. With a tracer, the poller's client times every snapshot
// fetch as a child of the poll round in flight (see fetchTimer).
func openCluster(parent string, tr *tracer, clk *clock, curRound *atomic.Int64) (*cluster, error) {
	dir, err := os.MkdirTemp(parent, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, nodeOf: map[string]int{}}
	names := make([]string, nodes)
	for i := range names {
		agg, err := fleet.Open(fleet.Config{
			Shards:     8,
			QueueDepth: 1024,
			WAL:        &fleet.WALConfig{Dir: filepath.Join(dir, fmt.Sprintf("node%d", i)), Sync: fleet.SyncBatch},
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("open node %d: %w", i, err)
		}
		c.aggs = append(c.aggs, agg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("listen node %d: %w", i, err)
		}
		srv := &http.Server{Handler: fleet.NewServer(agg).Handler()}
		c.srvs = append(c.srvs, srv)
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			srv.Serve(ln)
		}()
		c.urls = append(c.urls, "http://"+ln.Addr().String())
		// The ring hashes stable member names, not the ephemeral ports, so
		// the device → node split is the same on every run.
		names[i] = fmt.Sprintf("node%d", i)
		c.nodeOf[names[i]] = i
	}
	c.ring = fleet.NewRing(names, 0)
	// One connection per node: device uploads never run on more than two
	// connections, whatever the generator count.
	c.upload = &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1}
	if tr != nil {
		rt = &fetchTimer{base: rt, tr: tr, clk: clk, urls: c.urls, round: curRound}
	}
	c.poll = &http.Client{Timeout: 30 * time.Second, Transport: rt}
	c.regional = fleet.NewRegional(c.urls, c.poll)
	c.regional.NodeTimeout = 10 * time.Second
	return c, nil
}

// node returns the index of the node the ring routes device to.
func (c *cluster) node(device string) int { return c.nodeOf[c.ring.Node(device)] }

// pollRegion runs one regional delta round.
func (c *cluster) pollRegion() (*core.Report, bool) {
	res := c.regional.PollDelta(context.Background())
	return res.Report, res.Failed == 0
}

// queueDepth is the deepest intake backlog across nodes right now.
func (c *cluster) queueDepth() int {
	d := 0
	for _, a := range c.aggs {
		d = max(d, a.QueueDepth())
	}
	return d
}

// registry merges both nodes' metric registries.
func (c *cluster) registry() obs.Snapshot {
	snaps := make([]obs.Snapshot, len(c.aggs))
	for i, a := range c.aggs {
		snaps[i] = a.Metrics().Registry().Snapshot()
	}
	return obs.MergeSnapshots(snaps...)
}

// close stops the servers (waiting for in-flight handlers), drains the
// nodes and removes their WAL directories.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range c.srvs {
		if err := s.Shutdown(ctx); err != nil {
			s.Close()
		}
	}
	c.serving.Wait()
	for _, a := range c.aggs {
		a.Close()
	}
	if c.upload != nil {
		c.upload.CloseIdleConnections()
		c.poll.CloseIdleConnections()
	}
	os.RemoveAll(c.dir)
}

// fetchTimer wraps the poller's transport: each snapshot fetch becomes a
// span from request start to the end of its body, parented to the poll
// round in flight.
type fetchTimer struct {
	base  http.RoundTripper
	tr    *tracer
	clk   *clock
	urls  []string
	round *atomic.Int64
}

func (f *fetchTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{name: "fetch", start: f.clk.now(), upload: -1, parent: int(f.round.Load())}
	for i, u := range f.urls {
		if strings.TrimPrefix(u, "http://") == req.URL.Host {
			s.lane = laneFetch + i
		}
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		s.end = f.clk.now()
		f.tr.add(s)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, f: f, s: s}
	return resp, nil
}

// timedBody ends its fetch span when the poller closes the body, right
// after reading all of it.
type timedBody struct {
	io.ReadCloser
	f *fetchTimer
	s span
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	b.s.end = b.f.clk.now()
	b.f.tr.add(b.s)
	return b.ReadCloser.Close()
}

// round is one read-side poll: when it started and ended, and whether
// every node answered.
type round struct {
	start, end time.Duration
	ok         bool
}

// poller drives the cluster's regional delta rounds with a fixed pause
// between the end of one round and the start of the next, so freshness
// follows round cost and not only the interval. After each round it
// samples the nodes' intake backlog. stop runs one last round that starts
// after the load has finished — the quiescent round the correctness gate
// reads.
type poller struct {
	clk   *clock
	tr    *tracer
	pause time.Duration
	c     *cluster
	cur   *atomic.Int64

	rounds   []round
	queueMax int // deepest intake backlog seen after a round
	final    *core.Report
	stopCh   chan struct{}
	doneCh   chan struct{}
}

func startPoller(clk *clock, tr *tracer, pause time.Duration, c *cluster, cur *atomic.Int64) *poller {
	p := &poller{clk: clk, tr: tr, pause: pause, c: c, cur: cur,
		stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	tr.nameLane(lanePoller, "poll rounds")
	go p.loop()
	return p
}

func (p *poller) loop() {
	defer close(p.doneCh)
	// Created stopped, so every receive below follows its own Reset.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		p.round()
		select {
		case <-p.stopCh:
			p.finish()
			return
		default:
		}
		timer.Reset(p.pause)
		select {
		case <-p.stopCh:
			p.finish()
			return
		case <-timer.C:
		}
	}
}

func (p *poller) round() (*core.Report, bool) {
	idx := p.tr.reserve()
	p.cur.Store(int64(idx))
	s := p.clk.now()
	rep, ok := p.c.pollRegion()
	e := p.clk.now()
	p.rounds = append(p.rounds, round{start: s, end: e, ok: ok})
	p.tr.set(idx, span{name: "poll", lane: lanePoller, start: s, end: e, upload: -1, parent: -1})
	p.queueMax = max(p.queueMax, p.c.queueDepth())
	return rep, ok
}

// finish runs the quiescent round, retrying a failed one a few times.
func (p *poller) finish() {
	for try := 0; try < 3; try++ {
		if rep, ok := p.round(); ok {
			p.final = rep
			return
		}
	}
}

// stop ends polling after one quiescent round and returns its report (nil
// if no round succeeded).
func (p *poller) stop() *core.Report {
	close(p.stopCh)
	<-p.doneCh
	return p.final
}

// covering returns the first successful round that started after t — the
// round whose result is the first to reflect an ack at t — or false.
func (p *poller) covering(t time.Duration) (round, bool) {
	i := sort.Search(len(p.rounds), func(i int) bool { return p.rounds[i].start > t })
	for ; i < len(p.rounds); i++ {
		if p.rounds[i].ok {
			return p.rounds[i], true
		}
	}
	return round{}, false
}
