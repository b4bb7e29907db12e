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

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/rapid"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/tgops"
)

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

// SubResultCache caches the content of composite matches across queries:
// the serving layer plugs the store's byte-budget result cache in here so
// concurrent and repeated queries over one dataset materialisation skip
// the whole TG_OptGrpFilter + α-Join chain when an identical composite
// pattern was already evaluated. It holds the matches' sealed batches, not
// a file, so nothing in the DFS outlives the execution that built them.
// Implementations must be safe for concurrent use.
type SubResultCache interface {
	// Get returns the cached content of composite matches for a key.
	Get(key string) (dfs.Content, bool)
	// Put offers the content of composite matches for a key.
	Put(key string, c dfs.Content)
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

// Plan implements engine.Engine: composite rewriting when the
// subqueries' patterns overlap, sequential NTGA evaluation otherwise.
func (e *Engine) Plan(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Plan, error) {
	if len(aq.Subqueries) < 2 {
		return rapid.PlanSequential(c, ds, aq, e.Opts.HashAggregation, e.Opts.InputPruning)
	}
	ps := obs.StartChild(c.Context(), obs.KindPlanner, "composite-rewrite")
	cp, err := algebra.BuildComposite(aq.Subqueries)
	ps.End()
	if err != nil {
		// Non-overlapping patterns: no composite rewriting applies.
		return rapid.PlanSequential(c, ds, aq, e.Opts.HashAggregation, e.Opts.InputPruning)
	}
	p := &engine.Plan{}
	matched, err := e.compositeMatches(p, c, ds, cp)
	if err != nil {
		return nil, err
	}
	specs := make([]tgops.AggJoinSpec, len(aq.Subqueries))
	for k, sq := range aq.Subqueries {
		specs[k] = e.aggSpec(ds, cp, sq, k)
	}
	if e.Opts.ParallelAggregation {
		// Figure 6(b): the generalised TG_AgJ evaluates every aggregation
		// in parallel within a single cycle.
		p.Finish(aq, rapid.AggJoin(p, "aggjoin-parallel", matched, specs, e.Opts.HashAggregation))
		return p, nil
	}
	// Figure 6(a): one TG_AgJ cycle per grouping over the shared composite
	// matches.
	aggs := make([]string, len(specs))
	for k := range specs {
		aggs[k] = rapid.AggJoin(p, fmt.Sprintf("aggjoin%d", k), matched, specs[k:k+1], e.Opts.HashAggregation)
	}
	p.Finish(aq, aggs...)
	return p, nil
}

// compositeMatches plans the composite pattern's matched triplegroups.
// When an identical composite evaluation (same dataset materialisation,
// same pattern, filters and option flags) already ran, the sub-result
// cache serves its content, which the plan attaches under its own prefix.
// Otherwise a hook on the chain's last stage offers the closed output's
// content to the cache. Either way the execution deletes its files; the
// cached batches are immutable, so N queries can attach one content
// concurrently.
func (e *Engine) compositeMatches(p *engine.Plan, c *mapred.Cluster, ds *engine.Dataset, cp *algebra.CompositePattern) (tgops.Source, error) {
	if e.SubResults == nil {
		return e.planComposite(p, c, ds, cp)
	}
	key := compositeKey(ds, cp, e.Opts)
	if content, ok := e.SubResults.Get(key); ok {
		sp := obs.StartChild(c.Context(), obs.KindPlanner, "cache-hit")
		sp.End()
		return tgops.Source{Files: []string{p.Attach("composite", content)}, Dict: ds.Dict}, nil
	}
	planned := len(p.Stages)
	matched, err := e.planComposite(p, c, ds, cp)
	if err != nil || len(p.Stages) == planned {
		// A composite without joins is a scan of the stored triplegroups,
		// which no cache entry would save.
		return matched, err
	}
	p.Stages[len(p.Stages)-1].After = func(c *mapred.Cluster, _ *mapred.Metrics) error {
		content, err := c.FS.Content(matched.Files[0])
		if err != nil {
			return err
		}
		e.SubResults.Put(key, content)
		return nil
	}
	return matched, nil
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

// planComposite plans the composite graph pattern: TG_OptGrpFilter scans
// per composite star, then the α-Join chain.
func (e *Engine) planComposite(p *engine.Plan, c *mapred.Cluster, ds *engine.Dataset, cp *algebra.CompositePattern) (tgops.Source, error) {
	scans := make([]tgops.Source, len(cp.Stars))
	for i, cs := range cp.Stars {
		scans[i] = compositeStarScan(ds, i, cs, cp, e.Opts.InputPruning)
	}
	ps := obs.StartChild(c.Context(), obs.KindPlanner, "join-order")
	refs := make([][]algebra.PropRef, len(cp.Stars))
	for i, cs := range cp.Stars {
		refs[i] = cs.PrimaryRefs()
	}
	est := stats.NewEstimator(ds.Stats, refs, false)
	order, err := algebra.JoinOrderCost(len(cp.Stars), cp.Joins, est)
	ps.End()
	if err != nil {
		return tgops.Source{}, err
	}
	alphaCP := cp
	if !e.Opts.AlphaFiltering {
		alphaCP = nil
	}
	return rapid.JoinChain(p, scans, order, "composite", ntga.ResolveAlpha(alphaCP, ds.Dict), est), nil
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
