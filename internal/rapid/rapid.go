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

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/sparql"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/tgops"
)

// replanRatio is the estimate-vs-observed cardinality error ratio above
// which an executing join chain re-plans its remaining edges.
const replanRatio = 4

// Engine is the RAPID+ (Naive) engine.
type Engine struct{}

// New returns the engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "RAPID+ (Naive)" }

// Plan implements engine.Engine.
func (e *Engine) Plan(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Plan, error) {
	return PlanSequential(c, ds, aq, false, true)
}

// PlanSequential plans the query's subqueries one after the other over the
// triplegroup store, each as pattern matching via TG joins and then one
// grouping-aggregation cycle, and finishes the query. hashAgg selects
// map-side hash pre-aggregation (RAPIDAnalytics' single-grouping path,
// which plans this too) over the plain combiner (RAPID+). prune limits
// scans to matching equivalence classes.
func PlanSequential(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery, hashAgg, prune bool) (*engine.Plan, error) {
	p := &engine.Plan{}
	aggs := make([]string, len(aq.Subqueries))
	for k, sq := range aq.Subqueries {
		gp := sq.Pattern
		src, err := matchPattern(p, c, ds, gp, fmt.Sprintf("gp%d", k), prune)
		if err != nil {
			return nil, err
		}
		spec := tgops.AggJoinSpec{
			GroupVars:      sq.GroupBy,
			Aggs:           sq.Aggs,
			TPs:            starTriples(gp),
			OptTPs:         starOptionals(gp),
			Having:         sq.GroupedHaving(),
			BindingFilters: unboundFilters(gp),
		}
		aggs[k] = AggJoin(p, fmt.Sprintf("gp%d-agg", k), src, []tgops.AggJoinSpec{spec}, hashAgg)
	}
	p.Finish(aq, aggs...)
	return p, nil
}

// AggJoin plans one (generalised) TG_AgJ cycle over src evaluating specs
// and returns its output path.
func AggJoin(p *engine.Plan, name string, src tgops.Source, specs []tgops.AggJoinSpec, hashAgg bool) string {
	return p.Add(engine.Stage{Name: name, Op: "TG_AgJ", Reads: src.Files,
		Job: func(out string) *mapred.Job {
			return tgops.AggJoinJob(name, src, specs, hashAgg, out)
		}})
}

// matchPattern plans the TG join chain for a plain (non-composite) graph
// pattern and returns the matched (annotated) triplegroups. A single-star
// pattern needs no join cycle: the filtered scan feeds the next operator
// directly. The join order comes from the cardinalities the dataset's
// statistics catalog predicts, and the chain executes adaptively.
func matchPattern(p *engine.Plan, c *mapred.Cluster, ds *engine.Dataset, gp *algebra.GraphPattern, tag string, prune bool) (tgops.Source, error) {
	scans := make([]tgops.Source, len(gp.Stars))
	for i, st := range gp.Stars {
		scans[i] = starScan(ds, i, st, gp.Filters, prune)
	}
	ps := obs.StartChild(c.Context(), obs.KindPlanner, "join-order")
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
	return JoinChain(p, scans, order, tag, nil, est), nil
}

// JoinChain plans the ordered TG (α-)join cycles and returns the joined
// triplegroups: the last cycle's output, or the start scan when there are
// no edges. The accumulated side starts from order[0].Left (star 0 when
// there are no edges). Exported for
// the RAPIDAnalytics planner, which plans the same physical joins over a
// composite pattern; alpha, when non-nil, enables α filtering during the
// joins.
//
// est, the estimator that ordered the edges, makes the chain adaptive:
// each cycle's reduce partition count comes from the predicted output
// cardinality, and after each cycle but the last the observed output
// cardinality (the job's OutputRecords — the obs per-operator counter
// source) replaces the estimate; when the error ratio exceeds replanRatio,
// the remaining edges re-order around the observed cardinality and the
// decision is logged as a planner span named "re-plan". Re-ordering
// changes which edge a later stage joins, never the number of stages.
func JoinChain(p *engine.Plan, scans []tgops.Source, order []algebra.Join, tag string, alpha *ntga.AlphaTable, est algebra.CardEstimator) tgops.Source {
	start := 0
	if len(order) > 0 {
		start = order[0].Left
	}
	ch := &chain{
		scans: scans, alpha: alpha, est: est,
		// The tail may re-order in place; never mutate the caller's slice.
		order:   append([]algebra.Join(nil), order...),
		accCard: est.StarCard(start),
		covered: make([]bool, len(scans)),
	}
	ch.covered[start] = true
	acc := scans[start]
	for i := range order {
		left, name := acc, fmt.Sprintf("%s-join%d", tag, i)
		st := engine.Stage{Name: name, Op: "TG_AlphaJoin", Reads: left.Files,
			Job: func(out string) *mapred.Job { return ch.job(i, name, left, out) }}
		if i < len(order)-1 {
			st.After = func(c *mapred.Cluster, m *mapred.Metrics) error { return ch.observe(c, i, m) }
		}
		acc = tgops.Source{Files: []string{p.Add(st)}, Dict: left.Dict}
	}
	return acc
}

// chain is the state an adaptive join chain's stages share.
type chain struct {
	scans []tgops.Source
	alpha *ntga.AlphaTable
	est   algebra.CardEstimator
	order []algebra.Join
	// accCard is the accumulated side's cardinality, observed once a cycle
	// has run; predicted is the running cycle's output estimate.
	accCard, predicted float64
	covered            []bool
}

// job builds the α-join of the accumulated side left with edge i's right
// star, its partitions sized from the predicted output cardinality.
func (ch *chain) job(i int, name string, left tgops.Source, out string) *mapred.Job {
	edge := ch.order[i]
	job := tgops.AlphaJoinJob(name,
		tgops.JoinSide{Src: left, Ep: tgops.Endpoint{Star: edge.Left, Role: edge.LeftRole, Props: edge.LeftProps}},
		tgops.JoinSide{Src: ch.scans[edge.Right], Ep: tgops.Endpoint{Star: edge.Right, Role: edge.RightRole, Props: edge.RightProps}},
		ch.alpha, out)
	ch.predicted = ch.est.JoinCard(ch.accCard, ch.est.StarCard(edge.Right), edge)
	job.Partitions = stats.PartitionsFor(ch.predicted)
	ch.covered[edge.Right] = true
	return job
}

// observe, cycle i's After hook, takes its observed output cardinality as
// the accumulated side's, re-ordering the remaining edges when it is far
// off the estimate. It never fails.
func (ch *chain) observe(c *mapred.Cluster, i int, m *mapred.Metrics) error {
	observed := float64(m.OutputRecords)
	if replanNeeded(ch.predicted, observed) {
		rs := obs.StartChild(c.Context(), obs.KindPlanner, "re-plan")
		rs.AddRecords(int64(observed))
		tail := algebra.ReorderRemaining(ch.covered, ch.order[i+1:], math.Max(1, observed), ch.est)
		copy(ch.order[i+1:], tail)
		rs.End()
	}
	ch.accCard = math.Max(1, observed)
	return nil
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
// variables apply at triple level. With prune, inputs are limited to the equivalence classes that can match the star's
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
