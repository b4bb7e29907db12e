// Package core implements RAPIDAnalytics — the paper's contribution. A
// multi-grouping analytical query whose graph patterns overlap (Definition
// 3.2) is rewritten to a single composite graph pattern (§3) and evaluated
// as:
//
//	MR_1..n-1  TG_OptGrpFilter (map) + TG_AlphaJoin (reduce): one cycle per
//	           composite join edge, sharing scans and star computations
//	           across all original patterns and discarding combinations
//	           that match no original pattern (Table 2).
//	MR_n       generalised TG_AgJ (Figure 6b): every grouping-aggregation
//	           evaluates in parallel in one cycle, with map-side hash
//	           pre-aggregation (Algorithm 3).
//	MR_n+1     map-only join of the aggregated triplegroups.
//
// Options expose the paper's design choices for ablation: sequential
// aggregation (Figure 6a), disabling the α-Join filter, and disabling hash
// pre-aggregation. Queries that cannot be rewritten (single grouping,
// non-overlapping patterns) fall back to sequential NTGA evaluation with
// hash aggregation — RAPIDAnalytics' own single-grouping path in §5.2.
package core

import (
	"fmt"
	"sync/atomic"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/rapid"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/tgops"
)

var runSeq atomic.Int64

// Options toggle the optimizations RAPIDAnalytics layers over naive NTGA
// evaluation. The zero value disables everything; use DefaultOptions for
// the paper's configuration.
type Options struct {
	// ParallelAggregation evaluates all independent grouping-aggregations
	// in one generalised TG_AgJ cycle (Figure 6b) instead of one cycle per
	// grouping (Figure 6a).
	ParallelAggregation bool
	// AlphaFiltering discards joined triplegroups matching no original
	// pattern during TG_AlphaJoin (Definition 3.5). Disabling it
	// materialises every composite combination (correctness is unaffected:
	// TG_AgJ's per-pattern α conditions still gate aggregation).
	AlphaFiltering bool
	// HashAggregation enables the mapper-wide pre-aggregation hash table of
	// Algorithm 3; disabled, TG_AgJ falls back to a plain combiner.
	HashAggregation bool
	// InputPruning limits triplegroup scans to the equivalence classes
	// that can match each star's primary properties (the paper's
	// pre-processing benefit); disabled, every class is scanned.
	InputPruning bool
}

// DefaultOptions is the configuration evaluated in the paper.
func DefaultOptions() Options {
	return Options{
		ParallelAggregation: true,
		AlphaFiltering:      true,
		HashAggregation:     true,
		InputPruning:        true,
	}
}

// SubResultCache caches reusable composite-relation outputs across
// queries: the serving layer plugs the store's byte-budget result cache in
// here so concurrent and repeated queries over one dataset materialisation
// skip the whole TG_OptGrpFilter + α-Join chain when an identical composite
// pattern was already evaluated. Implementations must be safe for
// concurrent use.
type SubResultCache interface {
	// Get returns the cached composite matches for a key.
	Get(key string) (tgops.Source, bool)
	// Put caches composite matches accounted at bytes.
	Put(key string, src tgops.Source, bytes int64)
}

// Engine is the RAPIDAnalytics engine.
type Engine struct {
	Opts Options
	// SubResults, when non-nil, caches composite-relation outputs across
	// executions; see SubResultCache. Keys embed the dataset name (unique
	// per materialisation), so entries from a superseded load are never
	// addressable.
	SubResults SubResultCache
}

// New returns the engine with the paper's default options.
func New() *Engine { return &Engine{Opts: DefaultOptions()} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "RAPIDAnalytics" }

// Execute implements engine.Engine.
func (e *Engine) Execute(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Result, *mapred.WorkflowMetrics, error) {
	run := engine.NewRunner(c, fmt.Sprintf("tmp/rapidanalytics/%d", runSeq.Add(1)))
	if len(aq.Subqueries) < 2 {
		return e.executeSequential(run, ds, aq)
	}
	ps := obs.StartChild(c.Context(), obs.KindPlanner, "composite-rewrite")
	cp, err := algebra.BuildComposite(aq.Subqueries)
	ps.End()
	if err != nil {
		// Non-overlapping patterns: no composite rewriting applies.
		return e.executeSequential(run, ds, aq)
	}
	matched, err := e.compositeMatches(run, ds, cp)
	if err != nil {
		return nil, run.WM, err
	}
	if !e.Opts.ParallelAggregation {
		// Figure 6(a): one TG_AgJ cycle per grouping over the shared
		// composite matches.
		var aggFiles []string
		for k, sq := range aq.Subqueries {
			out := run.Path(fmt.Sprintf("aggjoin%d", k))
			job := tgops.AggJoinJob(fmt.Sprintf("aggjoin%d", k), matched,
				[]tgops.AggJoinSpec{e.aggSpec(ds, cp, sq, k)}, e.Opts.HashAggregation, out)
			if err := run.Exec(job); err != nil {
				return nil, run.WM, err
			}
			aggFiles = append(aggFiles, out)
		}
		return engine.FinishQuery(run, aq, aggFiles)
	}
	// Figure 6(b): the generalised TG_AgJ evaluates every aggregation in
	// parallel within a single cycle.
	specs := make([]tgops.AggJoinSpec, len(aq.Subqueries))
	for k, sq := range aq.Subqueries {
		specs[k] = e.aggSpec(ds, cp, sq, k)
	}
	tagged := run.Path("aggjoin-parallel")
	job := tgops.AggJoinJob("aggjoin-parallel", matched, specs, e.Opts.HashAggregation, tagged)
	if err := run.Exec(job); err != nil {
		return nil, run.WM, err
	}
	return engine.FinishQuery(run, aq, []string{tagged})
}

// executeSequential is the fallback path: per-subquery NTGA evaluation with
// this engine's aggregation options.
func (e *Engine) executeSequential(run *engine.Runner, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Result, *mapred.WorkflowMetrics, error) {
	var aggFiles []string
	for k, sq := range aq.Subqueries {
		file, err := rapid.EvalSubquery(run, ds, sq, k, e.Opts.HashAggregation, e.Opts.InputPruning)
		if err != nil {
			return nil, run.WM, err
		}
		aggFiles = append(aggFiles, file)
	}
	return engine.FinishQuery(run, aq, aggFiles)
}

// compositeMatches returns the composite pattern's matched triplegroups,
// served from the sub-result cache when an identical composite evaluation
// (same dataset materialisation, same pattern, filters and option flags)
// already ran; otherwise it evaluates the pattern and caches the output.
// Cached sources are reused read-only: DFS snapshots are immutable and
// re-openable, so N queries can consume one materialised (or streamed)
// match relation concurrently.
func (e *Engine) compositeMatches(run *engine.Runner, ds *engine.Dataset, cp *algebra.CompositePattern) (tgops.Source, error) {
	if e.SubResults == nil {
		return e.evalComposite(run, ds, cp)
	}
	key := compositeKey(ds, cp, e.Opts)
	if src, ok := e.SubResults.Get(key); ok {
		sp := obs.StartChild(run.C.Context(), obs.KindPlanner, "cache-hit")
		sp.End()
		return src, nil
	}
	src, err := e.evalComposite(run, ds, cp)
	if err != nil {
		return src, err
	}
	e.SubResults.Put(key, src, sourceBytes(run, src))
	return src, nil
}

// compositeKey identifies one composite evaluation. CompositePattern.String
// renders stars and join structure but not the shared FILTER constraints,
// so those are appended explicitly — two queries with the same pattern but
// different filters must not collide. The option flags that change the
// matched relation's content or record order (α filtering, input pruning)
// are folded in too, keeping cached reuse byte-deterministic per
// configuration.
func compositeKey(ds *engine.Dataset, cp *algebra.CompositePattern, o Options) string {
	return fmt.Sprintf("%s\x00%s\x00%+v\x00%t|%t|%t", ds.Name, cp.String(), cp.Filters,
		o.AlphaFiltering, o.InputPruning, o.ParallelAggregation)
}

// sourceBytes accounts a cached source at its logical DFS size.
func sourceBytes(run *engine.Runner, src tgops.Source) int64 {
	var n int64
	for _, name := range src.Files {
		if f, err := run.C.FS.Open(name); err == nil {
			n += f.Bytes()
			f.Close()
		}
	}
	return n
}

// evalComposite evaluates the composite graph pattern: TG_OptGrpFilter
// scans per composite star, then the α-Join chain.
func (e *Engine) evalComposite(run *engine.Runner, ds *engine.Dataset, cp *algebra.CompositePattern) (tgops.Source, error) {
	scans := make([]tgops.Source, len(cp.Stars))
	for i, cs := range cp.Stars {
		scans[i] = compositeStarScan(ds, i, cs, cp, e.Opts.InputPruning)
	}
	ps := obs.StartChild(run.C.Context(), obs.KindPlanner, "join-order")
	refs := make([][]algebra.PropRef, len(cp.Stars))
	for i, cs := range cp.Stars {
		refs[i] = cs.PrimaryRefs()
	}
	// A hand-built dataset without a catalog leaves est nil, which is
	// JoinOrderCost's star-0-first fallback, and the chain non-adaptive.
	var est algebra.CardEstimator
	if ds.Stats != nil {
		est = stats.NewEstimator(ds.Stats, refs, false)
	}
	order, err := algebra.JoinOrderCost(len(cp.Stars), cp.Joins, est)
	ps.End()
	if err != nil {
		return tgops.Source{}, err
	}
	alphaCP := cp
	if !e.Opts.AlphaFiltering {
		alphaCP = nil
	}
	// With parallel aggregation a single generalised TG_AgJ consumes the
	// matches, so the final join streams too; sequential aggregation runs
	// one TG_AgJ per subquery over the shared matches, which need the real
	// DFS checkpoint.
	return rapid.JoinChain(run, scans, order, "composite", ntga.ResolveAlpha(alphaCP, ds.Dict), e.Opts.ParallelAggregation, est)
}

// compositeStarScan builds the scan for one composite star: primary
// properties required, secondary properties optional, shared filters at
// triple level.
func compositeStarScan(ds *engine.Dataset, star int, cs *algebra.CompositeStar, cp *algebra.CompositePattern, prune bool) tgops.Source {
	prim := cs.PrimaryRefs()
	spec := &tgops.ScanSpec{
		Star: star,
		Prim: prim,
		Opt:  cs.SecondaryRefs(),
	}
	for _, f := range cp.Filters {
		for _, p := range cs.Props {
			if p.TP.O.IsVar && p.TP.O.Var == f.Var {
				spec.Filters = append(spec.Filters, tgops.PropFilter{Prop: p.Ref.Prop, Filter: f})
			}
		}
	}
	files := ds.TG.FilesFor(prim)
	if !prune {
		files = ds.TG.AllFiles()
	}
	return tgops.Source{Files: files, Scan: spec, Dict: ds.Dict}
}

// aggSpec builds original pattern k's TG_AgJ requirement over the
// composite: grouping/aggregation variables mapped to composite names,
// bindings enumerated from the pattern's canonical triples, and the α
// condition of Figure 5 gating which triplegroups contribute.
func (e *Engine) aggSpec(ds *engine.Dataset, cp *algebra.CompositePattern, sq *algebra.Subquery, k int) tgops.AggJoinSpec {
	groupVars := make([]string, len(sq.GroupBy))
	for i, g := range sq.GroupBy {
		groupVars[i] = cp.VarMaps[k][g]
	}
	alpha := ntga.ResolveAlpha(cp, ds.Dict)
	aggs := make([]algebra.AggSpec, len(sq.Aggs))
	for i, a := range sq.Aggs {
		aggs[i] = algebra.AggSpec{Func: a.Func, Var: cp.VarMaps[k][a.Var], As: a.As, Distinct: a.Distinct}
	}
	return tgops.AggJoinSpec{
		GroupVars: groupVars,
		Aggs:      aggs,
		TPs:       ntga.PatternTriples(cp, k),
		// Composite patterns never carry OPTIONALs (stars with OPTIONALs do
		// not overlap); sequential fallback handles them.
		Alpha: func(a *ntga.AnnTG) bool {
			return alpha.Satisfies(a, k)
		},
		Having: sq.GroupedHaving(),
	}
}
