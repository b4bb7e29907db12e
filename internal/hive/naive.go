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
	return pl.chain(tag, starRels, gp.Joins, patternEstimator(ds, gp), keep)
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
	// A variable the pattern repeats (?s e:knows ?s, ?s ?p ?s) binds one
	// term: each later position must equal its first, and a later column
	// named like the first is dropped. vars[i] binds raw position i.
	vars := []string{tp.S.Var, tp.O.Var}
	if tp.P.IsVar {
		vars = []string{tp.S.Var, tp.P.Var, tp.O.Var}
	}
	for i := range r.cols {
		if first := slices.Index(vars, vars[i]); first < i {
			r.same = append(r.same, sameCheck{pos: i, first: first})
			if r.cols[i] == r.cols[first] {
				r.cols[i] = ""
			}
		}
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
// all inputs but the largest required one fit the broadcast budget. Inputs
// that share a non-key column are compared on it (compileStars); it
// rejects a star whose OPTIONAL input shares one with another input (an
// OPTIONAL input compares through its mark instead). Callers list the
// required inputs first, so a mark meets the column it is compared with.
func (pl *planner) starJoin(name string, inputs []*starInput, keep map[string]bool) (*rel, error) {
	for i, si := range inputs {
		for _, c := range si.rel.cols {
			for _, prev := range inputs[:i] {
				if c != "" && c != si.keyCol && slices.Contains(prev.rel.cols, c) && (si.optional || prev.optional) {
					return nil, fmt.Errorf("hive: star ?%s binds ?%s in an OPTIONAL pattern and another; not supported", si.keyCol, c)
				}
			}
		}
	}
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
			return starMapJoinJob(name, "star-map-join", inputs, driving, keep, output, store.ORCCompressionRatio)
		}), nil
	}
	return pl.add(name, "star-join", func(output string) (*mapred.Job, *rel) {
		return starJoinJob(name, "star-join", inputs, keep, output, store.ORCCompressionRatio)
	}), nil
}

// join plans the inter-star join of left and right on column col: the
// two-input star join, broadcasting whichever side fits the budget. The
// map-join-site decision sizes both sides from the planner's predicted
// rows instead of measured files — what a plan-time optimizer has to work
// with — and the reduce partition count comes from the predicted output
// cardinality. The reduce side lists right before left, so each key's
// rows come out right-major: the order of the symmetric hash join that
// FuzzBinaryJoinMatchesReference keeps as the reference.
func (pl *planner) join(name string, left, right *rel, col string, keep map[string]bool, est joinEst) *rel {
	leftSize := pl.conf.estimatedSize(pl.c, est.leftRows, len(left.cols))
	rightSize := pl.conf.estimatedSize(pl.c, est.rightRows, len(right.cols))
	driving := -1
	switch {
	case rightSize <= pl.conf.MapJoinBytes:
		driving = 0
	case leftSize <= pl.conf.MapJoinBytes:
		driving = 1
	}
	if driving >= 0 {
		return pl.add(name, "map-join", func(output string) (*mapred.Job, *rel) {
			inputs := []*starInput{{rel: left, keyCol: col}, {rel: right, keyCol: col}}
			return starMapJoinJob(name, "map-join", inputs, driving, keep, output, store.ORCCompressionRatio)
		})
	}
	return pl.add(name, "hash-join", func(output string) (*mapred.Job, *rel) {
		inputs := []*starInput{{rel: right, keyCol: col}, {rel: left, keyCol: col}}
		job, out := starJoinJob(name, "hash-join", inputs, keep, output, store.ORCCompressionRatio)
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
