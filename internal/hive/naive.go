package hive

import (
	"fmt"
	"slices"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/sparql"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/store"
)

// Naive is the Hive (Naive) engine: each subquery's graph pattern compiles
// to one star-join cycle per multi-pattern star and one binary-join cycle
// per inter-star edge, followed by a grouping-aggregation cycle; subquery
// results join in a final map-only cycle. Joins become map-only map joins
// when the broadcast side fits Config.MapJoinBytes, and scans push
// projections and filters down — the optimizations the paper credits Hive
// with in §5.2.
type Naive struct {
	// Conf holds the planner's tuning knobs (DefaultConfig).
	Conf Config
}

// NewNaive returns the engine with default configuration.
func NewNaive() *Naive { return &Naive{Conf: DefaultConfig()} }

// Name implements engine.Engine.
func (h *Naive) Name() string { return "Hive (Naive)" }

// Plan implements engine.Engine.
func (h *Naive) Plan(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Plan, error) {
	pl := &planner{Plan: &engine.Plan{}, c: c, conf: h.Conf}
	aggs := make([]string, len(aq.Subqueries))
	for k, sq := range aq.Subqueries {
		patRel, err := pl.pattern(ds, sq, fmt.Sprintf("gp%d", k))
		if err != nil {
			return nil, err
		}
		aggs[k] = pl.groupAgg(fmt.Sprintf("gp%d-agg", k), fmt.Sprintf("gp%d-groupagg", k),
			patRel, sq.GroupBy, sq.Aggs, nil, sq.GroupedHaving()).file
	}
	pl.Finish(aq, aggs...)
	return pl.Plan, nil
}

// pattern plans one subquery's graph pattern, returning the joined
// relation.
func (pl *planner) pattern(ds *engine.Dataset, sq *algebra.Subquery, tag string) (*rel, error) {
	gp := sq.Pattern
	keep := neededVars(sq)
	starRels := make([]*rel, len(gp.Stars))
	for i, st := range gp.Stars {
		r, err := pl.star(ds, st, gp.Filters, keep, fmt.Sprintf("%s-star%d", tag, i))
		if err != nil {
			return nil, err
		}
		starRels[i] = r
	}
	est := patternEstimator(ds, gp)
	order, err := algebra.JoinOrderCost(len(gp.Stars), gp.Joins, est)
	if err != nil {
		return nil, err
	}
	acc := starRels[chainStart(order)]
	accRows := est.StarCard(chainStart(order))
	for i, edge := range order {
		acc = pl.join(fmt.Sprintf("%s-join%d", tag, i), acc, starRels[edge.Right], edge.Var, edge.Var,
			keepWithJoins(keep, order[i+1:]), edgeEstimate(est, &accRows, edge))
	}
	return acc, nil
}

// star plans one star pattern: a direct VP scan for single-pattern stars,
// a (map) star-join cycle otherwise. OPTIONAL patterns join LEFT OUTER:
// unmatched subjects keep their row with NULLs (the same physical operator
// the MQO composite uses).
func (pl *planner) star(ds *engine.Dataset, st *algebra.StarPattern, filters []sparql.Filter, keep map[string]bool, tag string) (*rel, error) {
	var inputs []*starInput
	for _, tp := range st.Triples {
		inputs = append(inputs, &starInput{rel: vpScan(ds, st.SubjectVar, tp, objVar(tp), filters), keyCol: st.SubjectVar})
	}
	for _, tp := range st.Optionals {
		inputs = append(inputs, &starInput{rel: vpScan(ds, st.SubjectVar, tp, objVar(tp), nil), keyCol: st.SubjectVar, optional: true})
	}
	if len(inputs) == 1 {
		return inputs[0].rel, nil
	}
	return pl.starJoin(tag, inputs, keepWithVar(keep, st.SubjectVar))
}

// objVar is the column a triple pattern's object binds: its variable, or
// none for a constant.
func objVar(tp sparql.TriplePattern) string {
	if tp.O.IsVar {
		return tp.O.Var
	}
	return ""
}

// vpScan is the scan of one triple pattern of a star over the VP store:
// the subject column, then the object in column objCol ("" drops it),
// with the pattern's constant object checked and the filters on objCol
// pushed down. An unbound property scans the full triples table, exposing
// the property as a column ([32]'s fallback shape), and pushes its
// filters down too.
func vpScan(ds *engine.Dataset, subj string, tp sparql.TriplePattern, objCol string, filters []sparql.Filter) *rel {
	r := &rel{dict: ds.Dict}
	var isType bool
	if tp.P.IsVar {
		r.file, r.cols = ds.VP.TriplesTable, []string{subj, tp.P.Var, objCol}
	} else {
		r.file, isType = ds.VP.TableFor(algebra.PropRefOf(tp))
		r.cols = []string{subj, objCol}
	}
	switch {
	case isType:
		r.cols = r.cols[:1]
	case !tp.O.IsVar:
		r.consts = []constCheck{{pos: len(r.cols) - 1, want: ds.Dict.KeyString(tp.O.Term.Key())}}
	}
	for _, f := range filters {
		if (tp.P.IsVar && f.Var == tp.P.Var) || (tp.O.IsVar && !isType && f.Var == objCol) {
			r.filters = append(r.filters, f)
		}
	}
	return r
}

// neededVars returns the variables a subquery's evaluation must retain:
// grouping variables, aggregation variables and join variables.
func neededVars(sq *algebra.Subquery) map[string]bool {
	keep := map[string]bool{}
	for _, v := range sq.GroupBy {
		keep[v] = true
	}
	for _, a := range sq.Aggs {
		keep[a.Var] = true
	}
	for _, j := range sq.Pattern.Joins {
		keep[j.Var] = true
	}
	return keep
}

func keepWithJoins(keep map[string]bool, rest []algebra.Join) map[string]bool {
	out := map[string]bool{}
	for v := range keep {
		out[v] = true
	}
	for _, j := range rest {
		out[j.Var] = true
	}
	return out
}

func keepWithVar(keep map[string]bool, v string) map[string]bool {
	out := map[string]bool{v: true}
	for k := range keep {
		out[k] = true
	}
	return out
}

// planner builds one Hive plan: its stages, and the cluster whose data
// scale sizes the map-join decisions.
type planner struct {
	*engine.Plan
	c    *mapred.Cluster
	conf Config
}

// add plans the job build makes, once, with the output path the plan
// names, as a stage reading the job's files, and returns its relation.
func (pl *planner) add(name, op string, build func(output string) (*mapred.Job, *rel)) *rel {
	var job *mapred.Job
	out := pl.Add(engine.Stage{Name: name, Op: op, Job: func(string) *mapred.Job { return job }})
	job, r := build(out)
	pl.Stages[len(pl.Stages)-1].Reads = slices.Concat(job.Inputs, job.SideInputs)
	return r
}

// starJoin plans a star join over stored tables, choosing a map join when
// all inputs but the largest fit the broadcast budget.
func (pl *planner) starJoin(name string, inputs []*starInput, keep map[string]bool) (*rel, error) {
	driving, total, largest := 0, int64(0), int64(-1)
	for i, si := range inputs {
		sz := pl.conf.storedSize(pl.c, si.rel.file)
		total += sz
		if sz > largest && !si.optional {
			largest = sz
			driving = i
		}
	}
	if largest >= 0 && total-largest <= pl.conf.MapJoinBytes {
		return pl.add(name, "star-map-join", func(output string) (*mapred.Job, *rel) {
			return starMapJoinJob(name, inputs, driving, keep, output, store.ORCCompressionRatio)
		}), nil
	}
	// Reduce-side star joins tag records by input file, so two inputs
	// sharing a file (two constant-object patterns on one property) would
	// be ambiguous.
	seen := map[string]bool{}
	for _, si := range inputs {
		if seen[si.rel.file] {
			return nil, fmt.Errorf("hive: star join reads %s twice; not supported in reduce-side joins", si.rel.file)
		}
		seen[si.rel.file] = true
	}
	return pl.add(name, "star-join", func(output string) (*mapred.Job, *rel) {
		return starJoinJob(name, inputs, keep, output, store.ORCCompressionRatio)
	}), nil
}

// join plans a binary join, broadcasting whichever side fits the budget.
// The map-join-site decision sizes both sides from the planner's predicted
// rows instead of measured files — what a plan-time optimizer has to work
// with — and the reduce partition count comes from the predicted output
// cardinality.
func (pl *planner) join(name string, left, right *rel, leftCol, rightCol string, keep map[string]bool, est joinEst) *rel {
	leftSize := pl.conf.estimatedSize(pl.c, est.leftRows, len(left.cols))
	rightSize := pl.conf.estimatedSize(pl.c, est.rightRows, len(right.cols))
	switch {
	case rightSize <= pl.conf.MapJoinBytes:
		return pl.add(name, "map-join", func(output string) (*mapred.Job, *rel) {
			return mapJoinJob(name, left, right, leftCol, rightCol, keep, output, store.ORCCompressionRatio)
		})
	case leftSize <= pl.conf.MapJoinBytes:
		return pl.add(name, "map-join", func(output string) (*mapred.Job, *rel) {
			return mapJoinJob(name, right, left, rightCol, leftCol, keep, output, store.ORCCompressionRatio)
		})
	}
	return pl.add(name, "hash-join", func(output string) (*mapred.Job, *rel) {
		job, out := joinJob(name, left, right, leftCol, rightCol, keep, output, store.ORCCompressionRatio)
		job.Partitions = stats.PartitionsFor(est.outRows)
		return job, out
	})
}

// groupAgg plans a grouping-aggregation cycle (groupAggJob) named job.
func (pl *planner) groupAgg(name, job string, in *rel, groupCols []string, aggs []algebra.AggSpec, valid func(codec.Tuple) bool, having func([]string) bool) *rel {
	return pl.add(name, "group-agg", func(output string) (*mapred.Job, *rel) {
		return groupAggJob(job, in, groupCols, aggs, valid, having, output)
	})
}
