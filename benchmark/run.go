package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// minTimedPasses is the fewest passes a run makes, whatever --seconds
// says: four values for every median over passes, two passes of each kind
// in a traced batch run, latency_ms_p90 with ten samples beyond it on the
// smallest workload (28 cells × 4), and the 1,000 samples a serving p99
// needs twice over.
const minTimedPasses = 4

// timedPasses is how many timed passes a run makes: --seconds divided by
// what a pass of the workload costs on the reference box. The count is
// fixed before the first pass, by the flag alone — never by how fast this
// commit or this hour's machine turns out to be — so a parent and a change
// are measured with the same number of samples, and a slow stretch makes a
// run longer, not thinner. At run_seconds = 14: 5, 5, 6 and 4 passes.
func (w *workloadSpec) timedPasses(seconds int) int {
	return max(minTimedPasses, int(float64(seconds)/w.passSeconds))
}

// traceDir is where a traced run leaves its spans.
const traceDir = "benchmark/out"

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts operations over the whole run, set-up checks included.
type tally struct {
	attempted, failed int
	// invalid says why the workload did not stress what it claims to.
	invalid []string
	// notes are printed under the metrics: what a number rests on.
	notes []string
}

func (t *tally) add(ps ...*passResult) {
	a, f := passSet(ps).operations()
	t.attempted += a
	t.failed += f
}

// run executes one workload once and prints the report and the result
// line. It returns an error when the run could not be measured, and
// reports a run that measured wrong rows or an invalid workload through
// correct=false and a non-zero exit.
func run(cfg runConfig, bspec *benchSpec, out io.Writer) (*runResult, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	env := newEnvStamp(spec.name, cfg.seed, cfg.seconds, cfg.traced)
	tr := newTracer()

	dataRoot := filepath.Join(scratchRoot, "data", fmt.Sprintf("%s-%d", spec.name, os.Getpid()))
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)

	in, setupSamples, err := setUpRepeatedly(spec, cfg.seed, dataRoot, tr)
	if err != nil {
		return nil, err
	}
	// The first query paid for the layouts; the same query again is what
	// it costs warm. The difference is the load.
	warmStart := time.Now()
	if _, _, err := in.cells[0].pq.Execute(context.Background()); err != nil {
		return nil, err
	}
	loadSeconds := (tr.duration("load") - time.Since(warmStart)).Seconds()
	if err := in.computeOracle(tr); err != nil {
		return nil, err
	}

	listed, names := bspec.EndToEnd, endToEndNames()
	if cfg.traced {
		listed, names = bspec.PerLayer, perLayerNames()
	}
	m := newMetricSet(names)
	var (
		t      tally
		passes int
	)
	if spec.serve {
		passes, err = runServing(in, cfg, m, &t, tr)
	} else {
		passes, err = runBatch(in, cfg, m, &t, tr)
	}
	if err != nil {
		return nil, err
	}

	if cfg.traced {
		m.set("rdf.ntriples_parse_s", tr.duration("ntriples_parse").Seconds())
		m.set("engine.load_s", loadSeconds)
		if err := runProbes(in, dataRoot, m); err != nil {
			return nil, err
		}
		m.set("failed_share", float64(t.failed)/float64(t.attempted))
	} else {
		m.set("setup_s", median(setupSamples))
		m.set("peak_rss_mb", peakRSSMB())
	}
	env.finish(passes, t.attempted)
	if cfg.traced {
		if err := tr.write(filepath.Join(traceDir, spec.name+".trace.json"), env); err != nil {
			return nil, err
		}
	}

	if err := m.checkAgainst(listed); err != nil {
		return nil, err
	}
	res := &runResult{
		Correct:   t.failed == 0 && len(t.invalid) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(listed)),
	}
	fmt.Fprintln(out, env)
	for _, s := range listed {
		v := m.get(s.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(out, "%-36s %18.6f %s\n", s.Name, v, s.Unit)
	}
	fmt.Fprintf(out, "failed_share %d/%d\n", t.failed, t.attempted)
	for _, note := range t.notes {
		fmt.Fprintln(out, "note:", note)
	}
	for _, why := range t.invalid {
		fmt.Fprintln(out, "INVALID:", why)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// warmUp is the one untimed pass: it fills the caches, checks every cell
// against the oracle, and — traced — shows whether map output spilled.
func warmUp(in *instance, t *tally) {
	order := make([]int, len(in.cells))
	for i := range order {
		order[i] = i
	}
	fold := newLayerFold()
	t.add(in.batchPass(order, fold, nil, false))
	spilled := fold.ioCount["spill-write"]
	switch {
	case in.spec.disk && spilled == 0:
		t.invalid = append(t.invalid, "no spill run was produced: the disk workload did not exercise the spill path")
	case !in.spec.disk && spilled > 0:
		t.invalid = append(t.invalid, fmt.Sprintf("%d spill runs on a workload that must not spill", spilled))
	}
}

// runBatch times the passes of a batch workload and fills its metrics.
func runBatch(in *instance, cfg runConfig, m *metricSet, t *tally, tr *tracer) (int, error) {
	id := tr.start(-1, "warmup")
	warmUp(in, t)
	tr.end(id)
	// Set-up left four dropped stores behind; collect them now so that no
	// timed pass pays for it.
	runtime.GC()

	var untraced, traced passSet
	fold := newLayerFold()
	// A traced run alternates untraced and traced passes, so that both
	// kinds see the same machine state.
	for pass := 0; pass < in.spec.timedPasses(cfg.seconds); pass++ {
		order := passOrder(cfg.seed, pass, len(in.cells))
		if cfg.traced && pass%2 == 1 {
			traced = append(traced, in.batchPass(order, fold, tr, len(traced) == 0))
		} else {
			untraced = append(untraced, in.batchPass(order, nil, nil, false))
		}
	}
	t.add(untraced...)
	t.add(traced...)

	q1, wall, q3 := untraced.sumOfCellQuartiles()
	t.notes = append(t.notes, fmt.Sprintf("pass_wall_s %.6f is the sum of %d cell medians over %d passes; the cells' quartiles sum to %.6f and %.6f",
		wall, len(in.cells), len(untraced), q1, q3))
	if !cfg.traced {
		untraced.endToEnd(m, wall, untraced)
		return len(untraced), nil
	}
	untraced.engineLayer(m)
	untraced.runtimeLayer(m)
	foldLayer(m, fold, len(traced))
	_, tracedWall, _ := traced.sumOfCellQuartiles()
	m.set("obs.tracing_overhead_pct", 100*(tracedWall-wall)/wall)
	// Both kinds of pass: the untraced ones alone are too few for a p90.
	all := append(untraced, traced...)
	return len(all), all.latencyLayer(m)
}

// runServing times replays of the schedule against the HTTP endpoint.
func runServing(in *instance, cfg runConfig, m *metricSet, t *tally, tr *tracer) (passes int, err error) {
	ep, err := startEndpoint(in)
	if err != nil {
		return 0, err
	}
	defer func() {
		if serr := ep.stop(); err == nil {
			err = serr
		}
	}()

	id := tr.start(-1, "miss_sweep")
	sweep := ep.missSweep()
	tr.end(id)
	id = tr.start(-1, "warmup")
	warm := ep.pass()
	tr.end(id)
	t.add(sweep, warm)
	runtime.GC()

	planBefore, resultBefore, scansBefore := in.store.PlanCacheStats(), in.store.ResultCacheStats(), in.store.SharedScanStats()
	opsBefore, rejectedBefore, err := ep.scrape()
	if err != nil {
		return 0, err
	}
	var timed passSet
	for len(timed) < in.spec.timedPasses(cfg.seconds) {
		id := tr.start(-1, "pass")
		timed = append(timed, ep.pass())
		tr.end(id)
	}
	t.add(timed...)
	n := float64(len(timed))

	hits := timed.hitRatio()
	evictions := in.store.ResultCacheStats().Evictions - resultBefore.Evictions
	if hits < minHitRatio || hits > maxHitRatio {
		t.invalid = append(t.invalid, fmt.Sprintf("result-cache hit ratio %.3f is outside %.2f–%.2f", hits, minHitRatio, maxHitRatio))
	}
	if evictions == 0 {
		t.invalid = append(t.invalid, "the result cache evicted nothing: the working set fits the cache")
	}
	t.notes = append(t.notes, fmt.Sprintf("%d passes of %d requests on %d connections; result-cache hit ratio %.3f, %d evictions",
		len(timed), len(ep.reqs), ep.clients, hits, evictions))
	t.notes = append(t.notes, fmt.Sprintf("the counts and allocations are those of the miss sweep: %d distinct requests from one client, %d of them already cached",
		sweep.attempted, sweep.cacheHits))
	if !cfg.traced {
		wall := timed.medianOf(func(p *passResult) float64 { return p.wall.Seconds() })
		timed.endToEnd(m, wall, passSet{sweep})
		return len(timed), nil
	}

	timed.engineLayer(m)
	timed.runtimeLayer(m)
	if err := timed.latencyLayer(m); err != nil {
		return 0, err
	}
	m.set("plancache.result_hit_ratio", hits)
	m.set("plancache.result_evictions", float64(evictions)/n)
	plan := in.store.PlanCacheStats()
	if probes := float64(plan.Hits-planBefore.Hits) + float64(plan.Misses-planBefore.Misses); probes > 0 {
		m.set("plancache.plan_hit_ratio", float64(plan.Hits-planBefore.Hits)/probes)
	}
	scans := in.store.SharedScanStats()
	m.set("share.shared_cycles", float64(scans.SharedCycles-scansBefore.SharedCycles)/n)
	if scanned := scans.RecordsScanned - scansBefore.RecordsScanned; scanned > 0 {
		m.set("share.served_per_scanned", float64(scans.RecordsServed-scansBefore.RecordsServed)/float64(scanned))
	}
	m.set("server.bytes_out_mb", sum(timed.each(func(p *passResult) float64 { return float64(p.bytesOut) }))/mib/n)
	p99, err := percentile(timed.latenciesMs(), 99)
	if err != nil {
		return 0, err
	}
	m.set("server.latency_ms_p99", p99)

	// The server traces every request itself, so there is no untraced
	// serving path to compare with: obs.tracing_overhead_pct stays 0 here
	// and the operator times come from the server's own /metrics.
	opsAfter, rejectedAfter, err := ep.scrape()
	if err != nil {
		return 0, err
	}
	m.set("server.rejected", (rejectedAfter-rejectedBefore)/n)
	for l, v := range opsAfter {
		opsAfter[l] = (v - opsBefore[l]) / n
	}
	setOperatorSeconds(m, opsAfter)
	hit, err := ep.hitLatencyProbe()
	if err != nil {
		return 0, err
	}
	m.set("server.hit_latency_ms_p50", hit)
	return len(timed), nil
}

// runProbes runs the layer probes the workload reports (see probes.go).
func runProbes(in *instance, dataRoot string, m *metricSet) error {
	dir := func(name string) string {
		if !in.spec.disk {
			return ""
		}
		return filepath.Join(dataRoot, name)
	}
	if in.spec.serve {
		// The serving workload owns the text → plan path.
		if err := parseProbe(m); err != nil {
			return err
		}
		return prepareProbes(in, m)
	}
	pd, err := buildProbeData(in, dir("probe-layouts"), m)
	if err != nil {
		return err
	}
	spill := int64(0)
	if in.spec.disk {
		spill = spillThresholdBytes
	}
	if err := pd.frameworkProbe(dir("probe-framework"), spill, m); err != nil {
		return err
	}
	switch in.spec.name {
	case "ntga-mem":
		if err := pd.plannerProbes(m); err != nil {
			return err
		}
		return pd.codecProbes(m)
	case "hive-mem":
		pd.vecProbes(m)
	case "disk-spill":
		return pd.blockstoreProbes(filepath.Join(dataRoot, "probe-blockstore"), m)
	}
	return nil
}
