// Package rapid implements RAPID+ (Naive): the NTGA baseline that evaluates
// each graph pattern of an analytical query sequentially — triplegroup
// formation and star filtering fused into map phases, one TG_Join cycle per
// inter-star edge, one grouping-aggregation cycle per subquery, and a final
// map-only join of the aggregated results (the paper's [25, 33]).
//
// Compared with the Hive engines, all of a star pattern's joins happen for
// free (triples arrive pre-grouped by subject); compared with
// RAPIDAnalytics, nothing is shared between the overlapping graph patterns.
package rapid

import (
	"fmt"
	"math"
	"sync/atomic"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/sparql"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/tgops"
)

var runSeq atomic.Int64

// replanRatio is the estimate-vs-observed cardinality error ratio above
// which an executing join chain re-plans its remaining edges.
const replanRatio = 4

// Engine is the RAPID+ (Naive) engine.
type Engine struct{}

// New returns the engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "RAPID+ (Naive)" }

// Execute implements engine.Engine.
func (e *Engine) Execute(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Result, *mapred.WorkflowMetrics, error) {
	return engine.Run(c, fmt.Sprintf("tmp/rapid/%d", runSeq.Add(1)), func(run *engine.Runner) (*engine.Result, error) {
		var aggFiles []string
		for k, sq := range aq.Subqueries {
			file, err := EvalSubquery(run, ds, sq, k, false, true)
			if err != nil {
				return nil, err
			}
			aggFiles = append(aggFiles, file)
		}
		return engine.FinishQuery(run, aq, aggFiles)
	})
}

// EvalSubquery evaluates one subquery over the triplegroup store: pattern
// matching via TG joins, then one grouping-aggregation cycle. hashAgg
// selects map-side hash pre-aggregation (RAPIDAnalytics' single-grouping
// path, which calls this too) over the plain combiner (RAPID+). prune
// limits scans to matching equivalence classes.
func EvalSubquery(run *engine.Runner, ds *engine.Dataset, sq *algebra.Subquery, k int, hashAgg, prune bool) (string, error) {
	gp := sq.Pattern
	src, err := matchPattern(run, ds, gp, fmt.Sprintf("gp%d", k), nil, prune)
	if err != nil {
		return "", err
	}
	spec := tgops.AggJoinSpec{
		GroupVars:      sq.GroupBy,
		Aggs:           sq.Aggs,
		TPs:            starTriples(gp),
		OptTPs:         starOptionals(gp),
		Having:         sq.GroupedHaving(),
		BindingFilters: unboundFilters(gp),
	}
	out := run.Path(fmt.Sprintf("gp%d-agg", k))
	job := tgops.AggJoinJob(fmt.Sprintf("gp%d-agg", k), src, []tgops.AggJoinSpec{spec}, hashAgg, out)
	if err := run.Exec(job); err != nil {
		return "", err
	}
	return out, nil
}

// matchPattern runs the TG join chain for a plain (non-composite) graph
// pattern and returns the source of matched (annotated) triplegroups. A
// single-star pattern needs no join cycle: the filtered scan feeds the next
// operator directly. cp, when non-nil, enables α filtering during joins
// (used by RAPIDAnalytics; nil here); the α table is resolved into the
// dataset's data plane. The join order comes from the cardinalities the
// dataset's statistics catalog predicts, and the chain executes
// adaptively.
func matchPattern(run *engine.Runner, ds *engine.Dataset, gp *algebra.GraphPattern, tag string, cp *algebra.CompositePattern, prune bool) (tgops.Source, error) {
	scans := make([]tgops.Source, len(gp.Stars))
	for i, st := range gp.Stars {
		scans[i] = starScan(ds, i, st, gp.Filters, prune)
	}
	ps := obs.StartChild(run.C.Context(), obs.KindPlanner, "join-order")
	refs := make([][]algebra.PropRef, len(gp.Stars))
	for i, st := range gp.Stars {
		refs[i] = st.Props()
	}
	est := stats.NewEstimator(ds.Stats, refs, false)
	order, err := algebra.JoinOrderCost(len(gp.Stars), gp.Joins, est)
	ps.End()
	if err != nil {
		return tgops.Source{}, err
	}
	// The matched source feeds exactly one TG_AgJ cycle per subquery chain,
	// so even the final join output streams.
	return JoinChain(run, scans, order, tag, ntga.ResolveAlpha(cp, ds.Dict), true, est)
}

// JoinChain executes the ordered TG (α-)join cycles; the accumulated side
// starts from order[0].Left (star 0 when there are no edges). Exported for
// the RAPIDAnalytics planner, which drives the same physical joins over a
// composite pattern. Non-final join outputs always stream — each feeds
// only the next cycle of the chain; streamFinal extends that to the last
// output, and must be false when the chain's result is read by more than
// one downstream cycle (sequential aggregation over shared matches).
//
// est, the estimator that ordered the edges, makes the chain adaptive:
// each cycle's reduce partition count comes from the predicted output
// cardinality, and after each cycle the observed output cardinality
// (the job's OutputRecords — the obs per-operator counter source) is
// compared against the estimate; when the error ratio exceeds replanRatio
// with edges still to run, the remaining edges re-order around the
// observed cardinality and the decision is logged as a planner span named
// "re-plan".
func JoinChain(run *engine.Runner, scans []tgops.Source, order []algebra.Join, tag string, alpha *ntga.AlphaTable, streamFinal bool, est algebra.CardEstimator) (tgops.Source, error) {
	start := 0
	if len(order) > 0 {
		start = order[0].Left
	}
	acc := scans[start]
	// The tail may re-order in place; never mutate the caller's slice.
	order = append([]algebra.Join(nil), order...)
	accCard := est.StarCard(start)
	covered := make([]bool, len(scans))
	covered[start] = true
	for i := 0; i < len(order); i++ {
		edge := order[i]
		leftEp := tgops.Endpoint{Star: edge.Left, Role: edge.LeftRole, Props: edge.LeftProps}
		rightEp := tgops.Endpoint{Star: edge.Right, Role: edge.RightRole, Props: edge.RightProps}
		out := run.Path(fmt.Sprintf("%s-join%d", tag, i))
		job := tgops.AlphaJoinJob(
			fmt.Sprintf("%s-join%d", tag, i),
			tgops.JoinSide{Src: acc, Ep: leftEp},
			tgops.JoinSide{Src: scans[edge.Right], Ep: rightEp},
			alpha, out)
		job.StreamOutput = streamFinal || i < len(order)-1
		predicted := est.JoinCard(accCard, est.StarCard(edge.Right), edge)
		job.Partitions = stats.PartitionsFor(predicted)
		if err := run.Exec(job); err != nil {
			return tgops.Source{}, err
		}
		acc = tgops.Source{Files: []string{out}, Dict: acc.Dict}
		covered[edge.Right] = true
		observed := float64(run.WM.Jobs[len(run.WM.Jobs)-1].OutputRecords)
		if i < len(order)-1 && replanNeeded(predicted, observed) {
			rs := obs.StartChild(run.C.Context(), obs.KindPlanner, "re-plan")
			rs.AddRecords(int64(observed))
			tail := algebra.ReorderRemaining(covered, order[i+1:], math.Max(1, observed), est)
			copy(order[i+1:], tail)
			rs.End()
		}
		accCard = math.Max(1, observed)
	}
	return acc, nil
}

// replanNeeded reports whether the estimate-vs-observed error ratio
// exceeds replanRatio (in either direction; both cardinalities clamp to 1
// so empty intermediates compare cleanly).
func replanNeeded(predicted, observed float64) bool {
	p := math.Max(1, predicted)
	o := math.Max(1, observed)
	return p/o > replanRatio || o/p > replanRatio
}

// starScan builds the TG_OptGrpFilter-fused scan for one star of a plain
// pattern: every property is primary, and FILTERs on the star's object
// variables apply at triple level.
// starScan builds the TG_OptGrpFilter-fused scan for one star. With prune,
// inputs are limited to the equivalence classes that can match the star's
// bound primaries — the paper's pre-processing benefit ("rdf:type triples
// ... grouped based on prefixes"); without, every class is scanned.
func starScan(ds *engine.Dataset, star int, st *algebra.StarPattern, filters []sparql.Filter, prune bool) tgops.Source {
	prim := st.Props()
	spec := &tgops.ScanSpec{
		Star:    star,
		Prim:    prim,
		Opt:     st.OptionalRefs(),
		Filters: propFilters(st.Triples, filters),
		KeepAll: st.HasUnbound(),
	}
	files := ds.TG.FilesFor(prim)
	if !prune {
		files = ds.TG.AllFiles()
	}
	return tgops.Source{Files: files, Scan: spec, Dict: ds.Dict}
}

// propFilters maps FILTER constraints onto the bound properties whose
// objects bind the filtered variables. Filters on unbound-pattern variables
// are excluded: they apply per solution instead (unboundFilters).
func propFilters(tps []sparql.TriplePattern, filters []sparql.Filter) []tgops.PropFilter {
	var out []tgops.PropFilter
	for _, f := range filters {
		for _, tp := range tps {
			if !tp.P.IsVar && tp.O.IsVar && tp.O.Var == f.Var {
				out = append(out, tgops.PropFilter{Prop: tp.P.Term.Value, Filter: f})
			}
		}
	}
	return out
}

// unboundFilters selects the FILTER constraints that reference an
// unbound-property pattern's variables anywhere in the graph pattern.
func unboundFilters(gp *algebra.GraphPattern) []sparql.Filter {
	unboundVars := map[string]bool{}
	for _, st := range gp.Stars {
		for _, tp := range st.Triples {
			if !tp.P.IsVar {
				continue
			}
			unboundVars[tp.P.Var] = true
			if tp.O.IsVar {
				unboundVars[tp.O.Var] = true
			}
		}
	}
	var out []sparql.Filter
	for _, f := range gp.Filters {
		if unboundVars[f.Var] {
			out = append(out, f)
		}
	}
	return out
}

// starTriples groups a plain pattern's required triple patterns by star
// index, the form binding enumeration consumes.
func starTriples(gp *algebra.GraphPattern) map[int][]sparql.TriplePattern {
	out := map[int][]sparql.TriplePattern{}
	for i, st := range gp.Stars {
		out[i] = st.Triples
	}
	return out
}

// starOptionals groups a pattern's OPTIONAL triple patterns by star index.
func starOptionals(gp *algebra.GraphPattern) map[int][]sparql.TriplePattern {
	out := map[int][]sparql.TriplePattern{}
	for i, st := range gp.Stars {
		if len(st.Optionals) > 0 {
			out[i] = st.Optionals
		}
	}
	return out
}
