package main

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"time"

	ra "rapidanalytics"
)

// engineTotals is what one pass spent in one engine, from public Stats.
type engineTotals struct {
	wall, mapWall, shuffleSort, reduce time.Duration
	cycles, mapOnly                    int
}

// passResult is one pass: a sweep over every cell, or one replay of the
// serving schedule.
type passResult struct {
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapInuse  uint64 // at the end of the pass

	// The paper's counts, summed in cell order so that equal seeds give
	// bit-identical sums whatever order the pass ran in.
	cycles       int
	shuffle      int64
	materialized int64
	simSeconds   float64

	// opWall has one latency per operation; for a batch pass it is indexed
	// by cell.
	opWall  []time.Duration
	engines map[ra.System]*engineTotals

	attempted, failed int
	// Serving passes only.
	cacheHits int
	bytesOut  int64
}

// resources is a reading of the process-wide counters a pass is charged
// with: the difference of two readings is the pass's share.
type resources struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
}

func readResources() *resources {
	r := &resources{}
	runtime.ReadMemStats(&r.mem)
	r.cpu = cpuTime()
	r.at = time.Now()
	return r
}

// charge fills the pass's process-wide costs since the reading.
func (r *resources) charge(p *passResult) {
	p.wall = time.Since(r.at)
	p.cpu = cpuTime() - r.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.mallocs = m.Mallocs - r.mem.Mallocs
	p.allocBytes = m.TotalAlloc - r.mem.TotalAlloc
	p.gcCycles = m.NumGC - r.mem.NumGC
	p.gcPause = time.Duration(m.PauseTotalNs - r.mem.PauseTotalNs)
	p.heapInuse = m.HeapInuse
}

// passOrder is the order one pass visits the cells in: reshuffled every
// pass, a pure function of the seed and the pass number.
func passOrder(seed int64, pass, cells int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(pass))).Perm(cells)
}

// cellOutcome is what one execution of a cell returned.
type cellOutcome struct {
	wall  time.Duration
	stats *ra.Stats
	ok    bool
}

// executeCell runs one cell: the timed operation is Execute plus reading
// the rows. The row hash is checked outside the timed part.
func (in *instance) executeCell(ctx context.Context, c *cell, tr *tracer, parent int) cellOutcome {
	ctx, cancel := context.WithTimeout(ctx, cellTimeout)
	defer cancel()
	id := tr.start(parent, c.String())
	defer tr.end(id)

	start := time.Now()
	ex := tr.start(id, "execute")
	res, stats, err := c.pq.Execute(ctx)
	tr.end(ex)
	if err != nil {
		return cellOutcome{wall: time.Since(start)}
	}
	rd := tr.start(id, "rows")
	rows := res.Rows()
	tr.end(rd)
	wall := time.Since(start)
	tr.attach(ex, stats.Span)
	return cellOutcome{wall: wall, stats: stats, ok: hashRows(rows) == in.want[c.query.ID]}
}

// batchPass sweeps every cell once, in the given order, with one
// sequential client. A traced pass runs under ra.WithTracing and folds
// each execution's span tree into fold; keepTrees also attaches the trees
// to the benchmark's own spans.
func (in *instance) batchPass(order []int, fold *layerFold, tr *tracer, keepTrees bool) *passResult {
	ctx := context.Background()
	if fold != nil {
		ctx = ra.WithTracing(ctx)
	}
	parent := -1
	if keepTrees {
		parent = tr.start(-1, "pass")
		defer tr.end(parent)
	} else {
		tr = nil
	}
	p := &passResult{
		opWall:  make([]time.Duration, len(in.cells)),
		engines: map[ra.System]*engineTotals{},
	}
	stats := make([]*ra.Stats, len(in.cells))
	before := readResources()
	for _, i := range order {
		out := in.executeCell(ctx, &in.cells[i], tr, parent)
		p.opWall[i] = out.wall
		p.attempted++
		if !out.ok {
			p.failed++
			continue
		}
		stats[i] = out.stats
	}
	before.charge(p)

	for i, st := range stats {
		if st == nil {
			continue
		}
		p.cycles += st.MRCycles
		p.shuffle += st.ShuffleBytes
		p.materialized += st.MaterializedBytes
		p.simSeconds += st.SimulatedSeconds
		e := p.engines[st.System]
		if e == nil {
			e = &engineTotals{}
			p.engines[st.System] = e
		}
		e.wall += p.opWall[i]
		e.mapWall += st.MapWall
		e.shuffleSort += st.ShuffleSortWall
		e.reduce += st.ReduceWall
		e.cycles += st.MRCycles
		e.mapOnly += st.MapOnlyCycles
		if fold != nil {
			fold.add(st.Span)
		}
	}
	return p
}

// passSet is the timed passes of one kind (untraced or traced) of a run.
type passSet []*passResult

func (ps passSet) each(f func(*passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func (ps passSet) medianOf(f func(*passResult) float64) float64 { return median(ps.each(f)) }

func (ps passSet) operations() (attempted, failed int) {
	for _, p := range ps {
		attempted += p.attempted
		failed += p.failed
	}
	return attempted, failed
}

// latenciesMs is every operation's latency, over all passes.
func (ps passSet) latenciesMs() []float64 {
	var out []float64
	for _, p := range ps {
		for _, d := range p.opWall {
			out = append(out, float64(d)/float64(time.Millisecond))
		}
	}
	return out
}

// sumOfCellQuartiles is pass_wall_s of a batch workload with its spread:
// for each cell the quartiles of its wall over the passes, each summed
// over the cells. The middle sum is the metric: one slow execution moves
// one cell's median little, where it would move that pass's total a lot.
func (ps passSet) sumOfCellQuartiles() (q1, q2, q3 float64) {
	if len(ps) == 0 {
		return 0, 0, 0
	}
	walls := make([]float64, len(ps))
	for c := range ps[0].opWall {
		for i, p := range ps {
			walls[i] = p.opWall[c].Seconds()
		}
		// Fewer than two passes have no quartiles; the median stands in.
		a, _, b, err := quartiles(walls)
		if err != nil {
			a, b = walls[0], walls[0]
		}
		q1 += a
		q2 += median(walls)
		q3 += b
	}
	return q1, q2, q3
}

const mib = 1 << 20

// endToEnd fills the metrics every workload reports from its untraced
// passes. passWall is the workload's pass_wall_s, and qps the operations of
// a pass over it. The metrics that do not depend on the clock — the paper's
// four counts and the allocations — come from the passes in sequential: the
// same passes for a batch workload, the miss sweep for the serving one,
// whose concurrent replays count differently from run to run.
func (ps passSet) endToEnd(m *metricSet, passWall float64, sequential passSet) {
	m.set("pass_wall_s", passWall)
	m.set("pass_cpu_s", ps.medianOf(func(p *passResult) float64 { return p.cpu.Seconds() }))
	m.set("qps", ps.medianOf(func(p *passResult) float64 { return float64(p.attempted - p.failed) })/passWall)

	m.set("allocs_per_pass", sequential.medianOf(func(p *passResult) float64 { return float64(p.mallocs) }))
	m.set("alloc_mb_per_pass", sequential.medianOf(func(p *passResult) float64 { return float64(p.allocBytes) / mib }))
	m.set("mr_cycles_per_pass", sequential.medianOf(func(p *passResult) float64 { return float64(p.cycles) }))
	m.set("shuffle_bytes_per_pass", sequential.medianOf(func(p *passResult) float64 { return float64(p.shuffle) }))
	m.set("materialized_bytes_per_pass", sequential.medianOf(func(p *passResult) float64 { return float64(p.materialized) }))
	m.set("sim_seconds_per_pass", sequential.medianOf(func(p *passResult) float64 { return p.simSeconds }))
}

// latencyLayer fills the latency percentiles over every operation of the
// passes: the median, and the highest percentile every workload has ten
// samples beyond at the fixed run length.
func (ps passSet) latencyLayer(m *metricSet) error {
	lat := ps.latenciesMs()
	m.set("latency_ms_p50", median(lat))
	p90, err := percentile(lat, 90)
	if err != nil {
		return err
	}
	m.set("latency_ms_p90", p90)
	return nil
}

// runtimeLayer fills the runtime.* per-layer metrics.
func (ps passSet) runtimeLayer(m *metricSet) {
	m.set("runtime.gc_cycles_per_pass", ps.medianOf(func(p *passResult) float64 { return float64(p.gcCycles) }))
	m.set("runtime.gc_pause_ms_per_pass", ps.medianOf(func(p *passResult) float64 {
		return float64(p.gcPause) / float64(time.Millisecond)
	}))
	var peak uint64
	for _, p := range ps {
		peak = max(peak, p.heapInuse)
	}
	m.set("runtime.heap_inuse_peak_mb", float64(peak)/mib)
}

// engineLayer fills engine.<e>.* and mapred.<e>.* from public Stats: the
// median over the passes of each engine's per-pass total. other_s is what
// is left of the engine's wall after the three phases: planner, job
// set-up, DFS commit and result decode.
func (ps passSet) engineLayer(m *metricSet) {
	for sys, key := range engineKeys {
		get := func(f func(*engineTotals) float64) float64 {
			return ps.medianOf(func(p *passResult) float64 {
				if e := p.engines[sys]; e != nil {
					return f(e)
				}
				return 0
			})
		}
		wall := get(func(e *engineTotals) float64 { return e.wall.Seconds() })
		mapS := get(func(e *engineTotals) float64 { return e.mapWall.Seconds() })
		shuffle := get(func(e *engineTotals) float64 { return e.shuffleSort.Seconds() })
		reduce := get(func(e *engineTotals) float64 { return e.reduce.Seconds() })
		m.set("engine."+key+".wall_s", wall)
		m.set("engine."+key+".other_s", wall-mapS-shuffle-reduce)
		m.set("engine."+key+".cycles", get(func(e *engineTotals) float64 { return float64(e.cycles) }))
		m.set("engine."+key+".map_only_cycles", get(func(e *engineTotals) float64 { return float64(e.mapOnly) }))
		m.set("mapred."+key+".map_s", mapS)
		m.set("mapred."+key+".shuffle_sort_s", shuffle)
		m.set("mapred."+key+".reduce_s", reduce)
	}
}

// foldLayer fills the per-layer metrics that come from the program's span
// trees, as a mean per traced pass.
func foldLayer(m *metricSet, f *layerFold, passes int) {
	per := func(ns int64) float64 { return time.Duration(ns).Seconds() / float64(passes) }
	count := func(n int64) float64 { return float64(n) / float64(passes) }
	m.set("algebra.planner_s", per(f.plannerNs))
	m.set("mapred.cycle_self_s", per(f.cycleSelfNs))
	m.set("mapred.phase_self_s", per(f.phaseSelfNs))
	m.set("mapred.map_records", count(f.phaseRecords["map"]))
	m.set("mapred.shuffle_records", count(f.phaseRecords["shuffle-sort"]))
	m.set("mapred.reduce_records", count(f.phaseRecords["reduce"]))
	if f.mapPhaseNs > 0 {
		m.set("mapred.map_parallel_efficiency",
			float64(f.mapTaskNs)/(float64(f.mapPhaseNs)*float64(runtime.GOMAXPROCS(0))))
	}
	m.set("mapred.spill_runs", count(f.ioCount["spill-write"]))
	m.set("mapred.spill_bytes", count(f.ioBytes["spill-write"]))
	m.set("mapred.spill_write_s", per(f.ioNs["spill-write"]))
	m.set("mapred.spill_read_s", per(f.ioNs["spill-read"]))
	m.set("dfs.write_s", per(f.ioNs["dfs-write"]))
	m.set("dfs.stream_write_s", per(f.ioNs["stream-write"]))
	m.set("dfs.write_bytes", count(f.ioBytes["dfs-write"]))
	m.set("dfs.stream_bytes", count(f.ioBytes["stream-write"]))
	opSeconds := make(map[string]float64, len(f.opNs))
	for l, ns := range f.opNs {
		opSeconds[l] = per(ns)
	}
	setOperatorSeconds(m, opSeconds)
}

// setOperatorSeconds fills op.<label>.s from per-pass seconds by operator
// label; a label without a metric of its own goes to op.other.s.
func setOperatorSeconds(m *metricSet, perPass map[string]float64) {
	for l, v := range perPass {
		if slices.Contains(operatorLabels, l) {
			m.set(opMetric(l), v)
		} else {
			m.add("op.other.s", v)
		}
	}
}
