package bench

import (
	"context"
	"fmt"
	"time"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/core"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/hive"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/rapid"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

// RunResult records one (query, dataset, engine) execution.
type RunResult struct {
	Query   string
	Dataset string
	Engine  string

	Cycles        int
	MapOnlyCycles int
	// SimSeconds is the cost model's cluster-time estimate at paper scale.
	SimSeconds float64
	// Wall is the real in-process execution time.
	Wall time.Duration
	// MapWall, ShuffleSortWall and ReduceWall split Wall's engine portion
	// into the measured MapReduce phase times.
	MapWall         time.Duration
	ShuffleSortWall time.Duration
	ReduceWall      time.Duration
	// ShuffleBytes and MaterializedBytes are measured volumes (unscaled).
	ShuffleBytes      int64
	MaterializedBytes int64
	Rows              int
	// Verified reports whether the result matched the oracle (set when the
	// harness runs with verification).
	Verified bool
	// Span is the execution's hierarchical span tree, captured only by
	// RunTraced; nil otherwise.
	Span *obs.Snapshot `json:",omitempty"`
}

// Engines returns the paper's four evaluated systems, in presentation
// order.
func Engines() []engine.Engine {
	return []engine.Engine{hive.NewNaive(), hive.NewMQO(), rapid.New(), core.New()}
}

// Harness runs catalog queries over cached datasets.
type Harness struct {
	Loader *Loader
	// Verify cross-checks every engine result against the in-memory
	// oracle.
	Verify bool
}

// NewHarness returns a harness with a fresh dataset cache.
func NewHarness(verify bool) *Harness {
	return &Harness{Loader: NewLoader(), Verify: verify}
}

// Run executes one catalog query on one dataset across the given engines.
func (h *Harness) Run(queryID, datasetID string, engines []engine.Engine) ([]RunResult, error) {
	return h.run(queryID, datasetID, engines, false)
}

// RunTraced is Run with span tracing enabled: each RunResult carries the
// execution's span tree in Span.
func (h *Harness) RunTraced(queryID, datasetID string, engines []engine.Engine) ([]RunResult, error) {
	return h.run(queryID, datasetID, engines, true)
}

// compile parses and builds one catalog query.
func compile(queryID string) (*sparql.Query, *algebra.AnalyticalQuery, error) {
	q, ok := Get(queryID)
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown query %q", queryID)
	}
	parsed, err := sparql.Parse(q.SPARQL)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", queryID, err)
	}
	aq, err := algebra.Build(parsed)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", queryID, err)
	}
	return parsed, aq, nil
}

func (h *Harness) run(queryID, datasetID string, engines []engine.Engine, traced bool) ([]RunResult, error) {
	parsed, aq, err := compile(queryID)
	if err != nil {
		return nil, err
	}
	d, err := h.Loader.load(datasetID)
	if err != nil {
		return nil, err
	}
	c, ds := d.cluster, d.ds
	var oracle *engine.Result
	if h.Verify {
		oracle, err = refimpl.Execute(parsed, ds.Dict, d.triples)
		if err != nil {
			return nil, fmt.Errorf("bench: %s oracle: %w", queryID, err)
		}
	}
	var out []RunResult
	for _, e := range engines {
		ec := c
		var root *obs.Span
		if traced {
			root = obs.New(obs.KindQuery, e.Name())
			ec = c.WithContext(obs.NewContext(context.Background(), root))
		}
		start := time.Now()
		res, wm, err := engine.Execute(ec, ds, e, aq)
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s via %s: %w", queryID, datasetID, e.Name(), err)
		}
		root.End()
		mapNs, shuffleSortNs, reduceNs := wm.PhaseWalls()
		rr := RunResult{
			Query:             queryID,
			Dataset:           datasetID,
			Engine:            e.Name(),
			Cycles:            wm.Cycles(),
			MapOnlyCycles:     wm.MapOnlyCycles(),
			SimSeconds:        wm.SimSeconds(),
			Wall:              time.Since(start),
			MapWall:           time.Duration(mapNs),
			ShuffleSortWall:   time.Duration(shuffleSortNs),
			ReduceWall:        time.Duration(reduceNs),
			ShuffleBytes:      wm.ShuffleBytes(),
			MaterializedBytes: wm.MaterializedBytes(),
			Rows:              len(res.Rows),
			Span:              root.Snapshot(),
		}
		if h.Verify {
			if diff := oracle.Diff(res); diff != "" {
				return nil, fmt.Errorf("bench: %s on %s via %s diverges from oracle: %s", queryID, datasetID, e.Name(), diff)
			}
			rr.Verified = true
		}
		out = append(out, rr)
	}
	return out, nil
}

// ablations are the RAPIDAnalytics option variants RunAblation compares:
// the Figure 6(a) vs 6(b) comparison plus the α-filter, hash-aggregation
// and input-pruning ablations.
var ablations = []struct {
	name string
	opts core.Options
}{
	{"RA (parallel agg, Fig 6b)", core.DefaultOptions()},
	{"RA (sequential agg, Fig 6a)", core.Options{ParallelAggregation: false, AlphaFiltering: true, HashAggregation: true, InputPruning: true}},
	{"RA (no α filter)", core.Options{ParallelAggregation: true, AlphaFiltering: false, HashAggregation: true, InputPruning: true}},
	{"RA (no hash pre-agg)", core.Options{ParallelAggregation: true, AlphaFiltering: true, HashAggregation: false, InputPruning: true}},
	{"RA (no input pruning)", core.Options{ParallelAggregation: true, AlphaFiltering: true, HashAggregation: true}},
}

// RunAblation runs every RAPIDAnalytics ablation variant on one
// query/dataset; each result's Engine names its variant.
func (h *Harness) RunAblation(queryID, datasetID string) ([]RunResult, error) {
	engines := make([]engine.Engine, len(ablations))
	for i, v := range ablations {
		engines[i] = &core.Engine{Opts: v.opts}
	}
	rs, err := h.Run(queryID, datasetID, engines)
	if err != nil {
		return nil, err
	}
	for i := range rs {
		rs[i].Engine = ablations[i].name
	}
	return rs, nil
}
