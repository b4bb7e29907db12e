package hive

import (
	"fmt"
	"sync/atomic"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/sparql"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/store"
)

var runSeq atomic.Int64

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

// Execute implements engine.Engine.
func (h *Naive) Execute(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Result, *mapred.WorkflowMetrics, error) {
	return engine.Run(c, fmt.Sprintf("tmp/hive-naive/%d", runSeq.Add(1)), func(r *engine.Runner) (*engine.Result, error) {
		run := &runner{Runner: r}
		var aggFiles []string
		for k, sq := range aq.Subqueries {
			patRel, err := h.evalPattern(run, ds, sq, fmt.Sprintf("gp%d", k))
			if err != nil {
				return nil, err
			}
			aggJob, aggRel := groupAggJob(
				fmt.Sprintf("gp%d-groupagg", k), patRel, sq.GroupBy, sq.Aggs, nil, sq.GroupedHaving(),
				run.Path(fmt.Sprintf("gp%d-agg", k)))
			if err := run.Exec(aggJob); err != nil {
				return nil, err
			}
			aggFiles = append(aggFiles, aggRel.file)
		}
		return engine.FinishQuery(run.Runner, aq, aggFiles)
	})
}

// evalPattern evaluates one subquery's graph pattern, returning the joined
// relation.
func (h *Naive) evalPattern(run *runner, ds *engine.Dataset, sq *algebra.Subquery, tag string) (*rel, error) {
	gp := sq.Pattern
	keep := neededVars(sq)
	starRels := make([]*rel, len(gp.Stars))
	for i, st := range gp.Stars {
		r, err := h.evalStar(run, ds, st, gp.Filters, keep, fmt.Sprintf("%s-star%d", tag, i))
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
		right := starRels[edge.Right]
		out := run.Path(fmt.Sprintf("%s-join%d", tag, i))
		keepJoin := keepWithJoins(keep, order[i+1:])
		// Join intermediates are each consumed by exactly one later cycle
		// (the next join or the grouping-aggregation), so they stream.
		acc, err = run.join(h.Conf, fmt.Sprintf("%s-join%d", tag, i), acc, right, edge.Var, edge.Var, keepJoin, out, true, edgeEstimate(est, &accRows, edge))
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// evalStar evaluates one star pattern: a direct VP scan for single-pattern
// stars, a (map) star-join cycle otherwise.
func (h *Naive) evalStar(run *runner, ds *engine.Dataset, st *algebra.StarPattern, filters []sparql.Filter, keep map[string]bool, tag string) (*rel, error) {
	inputs, err := starScanInputs(run, ds, st, filters)
	if err != nil {
		return nil, err
	}
	if len(inputs) == 1 {
		return inputs[0].rel, nil
	}
	// A star output feeds exactly one consumer (its join edge, or the
	// grouping-aggregation for single-star patterns), so it streams.
	return run.starJoin(h.Conf, tag, inputs, keepWithVar(keep, st.SubjectVar), run.Path(tag), true)
}

// starScanInputs builds one scan input per triple pattern of a star over
// the VP store, pushing down constant-object checks and filters.
func starScanInputs(run *runner, ds *engine.Dataset, st *algebra.StarPattern, filters []sparql.Filter) ([]*starInput, error) {
	var inputs []*starInput
	for _, tp := range st.Triples {
		if tp.P.IsVar {
			// Unbound property: scan the full triples table, exposing the
			// property as a column ([32]'s fallback shape).
			r := &rel{file: ds.VP.TriplesTable, cols: []string{st.SubjectVar, tp.P.Var, ""}, dict: ds.Dict}
			if tp.O.IsVar {
				r.cols[2] = tp.O.Var
			} else {
				r.consts = []constCheck{{pos: 2, want: ds.Dict.KeyString(tp.O.Term.Key())}}
			}
			for _, f := range filters {
				if f.Var == tp.P.Var || (tp.O.IsVar && f.Var == tp.O.Var) {
					r.filters = append(r.filters, f)
				}
			}
			inputs = append(inputs, &starInput{rel: r, keyCol: st.SubjectVar})
			continue
		}
		ref := algebra.PropRefOf(tp)
		file, isType, ok := ds.VP.TableFor(ref)
		if !ok {
			var err error
			if file, err = run.emptyFile(isType || !tp.O.IsVar); err != nil {
				return nil, err
			}
		}
		r := &rel{file: file, dict: ds.Dict}
		switch {
		case isType:
			r.cols = []string{st.SubjectVar}
		case !tp.O.IsVar:
			r.cols = []string{st.SubjectVar, ""}
			r.consts = []constCheck{{pos: 1, want: ds.Dict.KeyString(tp.O.Term.Key())}}
		default:
			r.cols = []string{st.SubjectVar, tp.O.Var}
			for _, f := range filters {
				if f.Var == tp.O.Var {
					r.filters = append(r.filters, f)
				}
			}
		}
		inputs = append(inputs, &starInput{rel: r, keyCol: st.SubjectVar})
	}
	// OPTIONAL patterns join LEFT OUTER: unmatched subjects keep their row
	// with NULLs (the same physical operator the MQO composite uses).
	for _, tp := range st.Optionals {
		ref := algebra.PropRefOf(tp)
		file, isType, ok := ds.VP.TableFor(ref)
		if !ok {
			var err error
			if file, err = run.emptyFile(isType || !tp.O.IsVar); err != nil {
				return nil, err
			}
		}
		r := &rel{file: file, dict: ds.Dict}
		switch {
		case isType:
			r.cols = []string{st.SubjectVar}
		case !tp.O.IsVar:
			r.cols = []string{st.SubjectVar, ""}
			r.consts = []constCheck{{pos: 1, want: ds.Dict.KeyString(tp.O.Term.Key())}}
		default:
			r.cols = []string{st.SubjectVar, tp.O.Var}
		}
		inputs = append(inputs, &starInput{rel: r, keyCol: st.SubjectVar, optional: true})
	}
	return inputs, nil
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

// runner augments the shared engine runner with lazily created empty
// placeholder files for missing VP tables.
type runner struct {
	*engine.Runner
	empty1 string
	empty2 string
}

// emptyFile returns a shared empty placeholder for missing VP tables (a
// property or type absent from the dataset): single-column for type
// partitions and constant-object scans, two-column otherwise.
func (r *runner) emptyFile(oneCol bool) (string, error) {
	name := &r.empty2
	if oneCol {
		name = &r.empty1
	}
	if *name == "" {
		p := r.Path("empty1")
		if !oneCol {
			p = r.Path("empty2")
		}
		w, err := r.C.FS.Create(p, 1)
		if err != nil {
			return "", err
		}
		if err := w.Close(); err != nil {
			return "", err
		}
		*name = p
	}
	return *name, nil
}

// starJoin runs a star join, choosing a map join when all inputs but the
// largest fit the broadcast budget. stream marks the output as
// single-consumer intermediate state eligible for the DFS stream registry
// (Job.StreamOutput); pass false when the output is a checkpoint read by
// more than one downstream cycle.
func (r *runner) starJoin(conf Config, name string, inputs []*starInput, keep map[string]bool, output string, stream bool) (*rel, error) {
	driving, sideSum := 0, int64(0)
	var total int64
	largest := int64(-1)
	for i, si := range inputs {
		sz := conf.storedSize(r.C, si.rel.file)
		total += sz
		if sz > largest && !si.optional {
			largest = sz
			driving = i
		}
	}
	sideSum = total - largest
	var job *mapred.Job
	var out *rel
	if largest >= 0 && sideSum <= conf.MapJoinBytes {
		job, out = starMapJoinJob(name, inputs, driving, keep, output, store.ORCCompressionRatio)
	} else {
		// Reduce-side star joins tag records by input file, so two inputs
		// sharing a file (two constant-object patterns on one property)
		// would be ambiguous.
		seen := map[string]bool{}
		for _, si := range inputs {
			if seen[si.rel.file] {
				return nil, fmt.Errorf("hive: star join reads %s twice; not supported in reduce-side joins", si.rel.file)
			}
			seen[si.rel.file] = true
		}
		job, out = starJoinJob(name, inputs, keep, output, store.ORCCompressionRatio)
	}
	job.StreamOutput = stream
	if err := r.Exec(job); err != nil {
		return nil, err
	}
	return out, nil
}

// join runs a binary join, broadcasting whichever side fits the budget.
// stream is as in starJoin. The map-join-site decision sizes both sides
// from the planner's predicted rows instead of measured files — what a
// plan-time optimizer has to work with — and the reduce partition count
// comes from the predicted output cardinality.
func (r *runner) join(conf Config, name string, left, right *rel, leftCol, rightCol string, keep map[string]bool, output string, stream bool, est joinEst) (*rel, error) {
	leftSize := conf.estimatedSize(r.C, est.leftRows, len(left.cols))
	rightSize := conf.estimatedSize(r.C, est.rightRows, len(right.cols))
	var job *mapred.Job
	var out *rel
	switch {
	case rightSize <= conf.MapJoinBytes:
		job, out = mapJoinJob(name, left, right, leftCol, rightCol, keep, output, store.ORCCompressionRatio)
	case leftSize <= conf.MapJoinBytes:
		job, out = mapJoinJob(name, right, left, rightCol, leftCol, keep, output, store.ORCCompressionRatio)
	default:
		job, out = joinJob(name, left, right, leftCol, rightCol, keep, output, store.ORCCompressionRatio)
		job.Partitions = stats.PartitionsFor(est.outRows)
	}
	job.StreamOutput = stream
	if err := r.Exec(job); err != nil {
		return nil, err
	}
	return out, nil
}
