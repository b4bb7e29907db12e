package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ra "rapidanalytics"
	"rapidanalytics/internal/loadgen"
	"rapidanalytics/internal/server"
)

// scheduleRequests is the length of the serving schedule one pass replays:
// Zipf(s=1.1) over the catalog, an 8-request burst every 40 slots, 85/15
// rapidanalytics/rapid+. Two timed passes make the 1,000 samples a p99
// needs; at the fixed run length a run makes about 2,000.
const scheduleRequests = 500

// The hit ratio of the result cache over the timed passes must stay inside
// this band: below it the cache does little, above it nothing is evicted
// and, at 0.9, latency_ms_p90 would flip between a hit and a miss.
const (
	minHitRatio = 0.65
	maxHitRatio = 0.85
)

// scheduleSeed seeds loadgen.Schedule. It is the same for every --seed:
// which templates are requested how often, on which engine, in which
// bursts and in which order is the workload's definition, and --seed
// changes the graph the requests run on. A query costs between 4 ms and
// 350 ms and the cache holds a quarter of the results, so redrawing the
// mix moved every per-pass metric by 20–40% between seeds, and reordering
// the same mix still moved the hit ratio between 0.78 and 0.84 — neither
// has anything to do with the program.
const scheduleSeed = 1

// schedule is the request sequence every pass replays.
func schedule() []loadgen.Request {
	return loadgen.Schedule(loadgen.CatalogTemplates(), loadgen.ScheduleOptions{
		Seed: scheduleSeed, Requests: scheduleRequests, ZipfS: 1.1, BurstEvery: 40, BurstSize: 8,
	})
}

// servedReply is the part of the server's JSON envelope the benchmark
// reads: the rows to verify and the execution's public statistics.
type servedReply struct {
	Rows  [][]string `json:"rows"`
	Stats struct {
		System                string  `json:"system"`
		MRCycles              int     `json:"mrCycles"`
		MapOnlyCycles         int     `json:"mapOnlyCycles"`
		SimulatedSeconds      float64 `json:"simulatedSeconds"`
		ShuffleBytes          int64   `json:"shuffleBytes"`
		MaterializedBytes     int64   `json:"materializedBytes"`
		ResultCacheHit        bool    `json:"resultCacheHit"`
		WallMillis            float64 `json:"wallMillis"`
		MapWallMillis         float64 `json:"mapWallMillis"`
		ShuffleSortWallMillis float64 `json:"shuffleSortWallMillis"`
		ReduceWallMillis      float64 `json:"reduceWallMillis"`
	} `json:"stats"`
}

// endpoint is internal/server behind a real loopback listener, with the
// clients that talk to it.
type endpoint struct {
	in      *instance
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
	clients int
	reqs    []loadgen.Request
}

// startEndpoint serves the instance's store the way cmd/rapidserver does,
// on 127.0.0.1:0, with one closed-loop client per core.
func startEndpoint(in *instance) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	clients := runtime.GOMAXPROCS(0)
	ep := &endpoint{
		in:      in,
		httpSrv: &http.Server{Handler: server.New(in.store, server.Config{})},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   cellTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		},
		clients: clients,
		reqs:    schedule(),
	}
	go func() { ep.served <- ep.httpSrv.Serve(ln) }()
	return ep, nil
}

// stop shuts the server down and waits until its goroutine has returned.
func (ep *endpoint) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ep.httpSrv.Shutdown(ctx)
	if serveErr := <-ep.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	ep.client.CloseIdleConnections()
	return err
}

// reply is one request's outcome as the client saw it.
type reply struct {
	latency time.Duration
	bytes   int
	body    servedReply
	ok      bool
}

// get sends one request and verifies the rows of a 200 reply against the
// oracle. The latency runs from sending to the last byte of the body.
// Anything but a 200 with the right rows (a 503 from admission included)
// is a failed operation.
func (ep *endpoint) get(req loadgen.Request) reply {
	u := ep.base + "/sparql?format=json&system=" + url.QueryEscape(req.System) +
		"&query=" + url.QueryEscape(req.SPARQL)
	start := time.Now()
	resp, err := ep.client.Get(u)
	if err != nil {
		return reply{latency: time.Since(start)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{latency: time.Since(start), bytes: len(raw)}
	if err != nil || resp.StatusCode != http.StatusOK {
		return r
	}
	if err := json.Unmarshal(raw, &r.body); err != nil {
		return r
	}
	r.ok = hashRows(r.body.Rows) == ep.in.want[req.TemplateID]
	return r
}

// pass replays the schedule once with one client per core.
func (ep *endpoint) pass() *passResult { return ep.replay(ep.reqs, ep.clients) }

// missSweep sends every distinct request of the schedule once, from one
// client, in the order the schedule first asks for it. Nothing runs beside
// it and (but for the one query set-up already ran) nothing it asks for is
// cached, so what the engines report for it does not depend on which of two
// clients came first or on what the cache evicted: the paper's counts and
// the allocations of a serving run are taken from this sweep, and repeat
// exactly at equal seed like those of a batch pass.
func (ep *endpoint) missSweep() *passResult { return ep.replay(distinctRequests(ep.reqs), 1) }

// distinctRequests keeps the first request for each (template, system).
func distinctRequests(reqs []loadgen.Request) []loadgen.Request {
	var distinct []loadgen.Request
	seen := map[[2]string]bool{}
	for _, r := range reqs {
		if k := [2]string{r.TemplateID, r.System}; !seen[k] {
			seen[k] = true
			distinct = append(distinct, r)
		}
	}
	return distinct
}

// replay sends the requests once, closed loop: each client sends its next
// request when the previous reply is complete. Requests are handed out in
// order.
func (ep *endpoint) replay(reqs []loadgen.Request, clients int) *passResult {
	replies := make([]reply, len(reqs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	before := readResources()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				replies[i] = ep.get(reqs[i])
			}
		}()
	}
	wg.Wait()
	p := &passResult{engines: map[ra.System]*engineTotals{}}
	before.charge(p)

	millis := func(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
	for _, r := range replies {
		p.attempted++
		p.opWall = append(p.opWall, r.latency)
		p.bytesOut += int64(r.bytes)
		if !r.ok {
			p.failed++
			continue
		}
		st := &r.body.Stats
		if st.ResultCacheHit {
			p.cacheHits++
			continue
		}
		p.cycles += st.MRCycles
		p.shuffle += st.ShuffleBytes
		p.materialized += st.MaterializedBytes
		p.simSeconds += st.SimulatedSeconds
		sys := ra.System(st.System)
		e := p.engines[sys]
		if e == nil {
			e = &engineTotals{}
			p.engines[sys] = e
		}
		e.wall += millis(st.WallMillis)
		e.mapWall += millis(st.MapWallMillis)
		e.shuffleSort += millis(st.ShuffleSortWallMillis)
		e.reduce += millis(st.ReduceWallMillis)
		e.cycles += st.MRCycles
		e.mapOnly += st.MapOnlyCycles
	}
	return p
}

// hitRatio is the share of verified replies served from the result cache.
func (ps passSet) hitRatio() float64 {
	var hits, ok int
	for _, p := range ps {
		hits += p.cacheHits
		ok += p.attempted - p.failed
	}
	if ok == 0 {
		return 0
	}
	return float64(hits) / float64(ok)
}

// operatorSeconds scrapes /metrics for the server's per-operator wall
// totals (the sums of rapidserver_operator_seconds), keyed by operator
// label, and the admission controller's rejection count.
func (ep *endpoint) scrape() (opSeconds map[string]float64, rejected float64, err error) {
	resp, err := ep.client.Get(ep.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	opSeconds = map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		series, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(series, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(value, 64)
		if perr != nil {
			continue
		}
		switch {
		case series == "rapidserver_rejected_total":
			rejected = v
		case strings.HasPrefix(series, "rapidserver_operator_seconds_sum{"):
			_, rest, _ := strings.Cut(series, `operator="`)
			label, _, _ := strings.Cut(rest, `"`)
			opSeconds[label] += v
		}
	}
	return opSeconds, rejected, sc.Err()
}

// hitLatencyProbe is the serving path with the engine taken out: one
// template, cached by a first request, then repeated sequentially. What is
// left is HTTP, admission, plan cache, result cache and serialisation.
func (ep *endpoint) hitLatencyProbe() (float64, error) {
	const repeats = 200
	req := ep.reqs[0]
	if r := ep.get(req); !r.ok {
		return 0, fmt.Errorf("hit-latency probe: %s on %s failed", req.TemplateID, req.System)
	}
	lat := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		r := ep.get(req)
		if !r.ok || !r.body.Stats.ResultCacheHit {
			return 0, fmt.Errorf("hit-latency probe: repeat %d of %s was not a verified cache hit", i, req.TemplateID)
		}
		lat = append(lat, float64(r.latency)/float64(time.Millisecond))
	}
	return median(lat), nil
}
