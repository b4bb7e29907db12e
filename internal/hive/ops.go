// Package hive implements the two relational baselines the paper evaluates
// against: Hive (Naive), a direct SPARQL→HiveQL-style translation over
// vertically partitioned ORC tables, and Hive (MQO), the multi-query
// optimization rewriting of Le et al. [27] that evaluates a composite graph
// pattern with left outer joins, materialises it, and runs the
// grouping-aggregation queries over the materialised table.
//
// The physical operators mirror Hive 0.12's: one n-way join operator, run
// reduce-side or as a map join (broadcast small tables, map-only cycles)
// for star joins and inter-star joins alike, early projection and
// predicate pushdown on scans (Naive only — the MQO materialisation
// boundary defeats them, as the paper observes), DISTINCT, and group-by
// aggregation with combiners.
package hive

import (
	"unsafe"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// Config carries the planner's tuning knobs.
type Config struct {
	// MapJoinBytes is the largest total stored size of broadcast tables for
	// which a join compiles to a map-only cycle, interpreted at *paper
	// scale*: measured sizes are multiplied by the cluster's DataScale
	// before the comparison, so the planner behaves as Hive would on the
	// original datasets. The default is Hive's
	// hive.mapjoin.smalltable.filesize (25MB).
	MapJoinBytes int64
}

// DefaultConfig mirrors Hive 0.12 defaults.
func DefaultConfig() Config { return Config{MapJoinBytes: 25 << 20} }

// EstBytesPerField is the planner's calibrated stored size per tuple field
// when converting predicted row counts into bytes for the map-join budget:
// compact dictionary-plane fields at ORC-like compression.
const EstBytesPerField = 4

// estimatedSize converts a predicted row count for a cols-wide relation
// into paper-scale stored bytes, the estimate-driven counterpart of
// storedSize for intermediates whose size the plan-time optimizer cannot
// measure.
func (c Config) estimatedSize(cl *mapred.Cluster, rows float64, cols int) int64 {
	scale := cl.Config.DataScale
	if scale < 1 {
		scale = 1
	}
	if cols < 1 {
		cols = 1
	}
	sz := int64(rows * float64(cols*EstBytesPerField) * scale)
	if sz < 1 {
		sz = 1
	}
	return sz
}

// rel describes a relation as a scan specification: a DFS file of raw
// tuples plus the transformations applied lazily by whichever job scans it
// (column naming, constant checks from constant-object triple patterns, and
// pushed-down filters). Intermediate job outputs are rels with fully named
// columns and no residual checks. A job compiles each rel it reads into a
// scanPlan once (scan.go).
type rel struct {
	// file is the relation's DFS file: a stored table or a plan stage's
	// output.
	file string
	// cols names each raw tuple field; "" drops the field on scan.
	cols []string
	// consts are the constant-object checks; non-matching tuples are
	// dropped.
	consts []constCheck
	// same are the repeated-variable checks, applied like consts.
	same []sameCheck
	// filters are pushed-down FILTER constraints, keyed by column name.
	filters []sparql.Filter
	// dict is the dataset's dictionary: the relation's tuples are compact
	// ID-tuples whose fields are its ID-strings. The planner resolves
	// constant checks to ID-strings too, so scans compare raw field bytes;
	// filters decode through the dictionary before evaluation.
	dict *rdf.Dict
}

// materialized returns a rel describing a job output of ID-tuples with the
// given columns.
func materialized(file string, cols []string, d *rdf.Dict) *rel {
	return &rel{file: file, cols: cols, dict: d}
}

// storedSize returns a file's stored size extrapolated to paper scale, the
// quantity map-join planning compares against Config.MapJoinBytes.
func (c Config) storedSize(cl *mapred.Cluster, file string) int64 {
	f, err := cl.FS.Open(file)
	if err != nil {
		return 1 << 62
	}
	scale := cl.Config.DataScale
	if scale < 1 {
		scale = 1
	}
	defer f.Close()
	sz := int64(float64(f.StoredBytes()) * scale)
	// A non-empty table occupies at least one stored byte; compact ID-tuples
	// compress small enough to round to zero otherwise, which would let a
	// non-empty broadcast side fit a zero map-join budget.
	if sz == 0 && f.NumRecords() > 0 {
		sz = 1
	}
	return sz
}

// starInput couples a rel with its role in a (composite) star join.
type starInput struct {
	rel *rel
	// keyCol is the column the join is on: the star's subject, or a
	// binary join's join column.
	keyCol string
	// optional marks MQO secondary properties joined with LEFT OUTER
	// semantics: subjects without matches keep the star row, with NULLs in
	// the input's non-key columns.
	optional bool
	// mark, when set, is a column holding the value of variable markOf,
	// named apart so that an optional input that repeats a column an
	// earlier input keeps still has one of its own: the join compares it
	// with that column and keeps it, NULL where the input is NULL-extended.
	mark, markOf string
}

// joinAt returns the input a star join takes i-th: input first, then the
// others in input order.
func joinAt(first, i int) int {
	switch {
	case i == 0:
		return first
	case i <= first:
		return i - 1
	}
	return i
}

// starJoinJob builds the reduce-side star join of the inputs on their key
// columns, its reduce operator labelled op. Each input file is read once:
// a map task emits one tagged copy of a record for every input that reads
// the task's file, so inputs may share a file (a self-join, or two
// constant-object patterns on one property).
func starJoinJob(name, op string, inputs []*starInput, keep map[string]bool, output string, compression float64) (*mapred.Job, *rel) {
	plans := compileStars(inputs, 0, keep)
	var files []string
	tags := map[string][]int{}
	for i, si := range inputs {
		if tags[si.rel.file] == nil {
			files = append(files, si.rel.file)
		}
		tags[si.rel.file] = append(tags[si.rel.file], i)
	}
	job := &mapred.Job{
		Name:              name,
		Inputs:            files,
		Output:            output,
		OutputCompression: compression,
		MapOperator:       "vp-scan",
		ReduceOperator:    op,
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return &taggedScanMapper{plans: plans, tags: tags[tc.InputFile]}
		},
		NewReducer: func() mapred.Reducer {
			return &starReducer{rows: newStarRows(plans)}
		},
	}
	return job, materialized(output, starJoinCols(inputs[0].keyCol, plans), inputs[0].rel.dict)
}

// starMapJoinJob builds the map-only variant, its operator labelled op:
// the driving input streams and every other input is broadcast, joined in
// joinAt's order from the driving one.
func starMapJoinJob(name, op string, inputs []*starInput, driving int, keep map[string]bool, output string, compression float64) (*mapred.Job, *rel) {
	plans := compileStars(inputs, driving, keep)
	sides := make([]string, 0, len(inputs)-1)
	for i := 1; i < len(inputs); i++ {
		sides = append(sides, inputs[joinAt(driving, i)].rel.file)
	}
	job := &mapred.Job{
		Name:              name,
		Inputs:            []string{inputs[driving].rel.file},
		SideInputs:        sides,
		Output:            output,
		OutputCompression: compression,
		MapOperator:       op,
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return newStarMapJoinMapper(plans, tc.SideInput)
		},
	}
	return job, materialized(output, starJoinCols(inputs[driving].keyCol, plans), inputs[driving].rel.dict)
}

// groupAggJob builds the grouping-aggregation cycle: map emits per-row
// partial aggregate states keyed by the grouping columns, a combiner merges
// them map-side (Hive's hash aggregation), and the reducer emits one row
// per group: [group values..., aggregate finals...]. Combiner and reducer
// are the engines' shared aggregation merger (engine.NewAggMerger).
//
// valid optionally filters rows map-side (the MQO pattern-validity check);
// having optionally drops groups in the reducer.
func groupAggJob(name string, in *rel, groupCols []string, aggs []algebra.AggSpec, valid func(codec.Tuple) bool, having func([]string) bool, output string) (*mapred.Job, *rel) {
	outCols := append(append([]string{}, groupCols...), aggAliases(aggs)...)
	d := in.dict
	groupings := []engine.Grouping{{Aggs: aggs, Having: having}}
	plan := in.compile()
	groupPos := make([]int, len(groupCols))
	for i, c := range groupCols {
		groupPos[i] = plan.colIndex(c)
	}
	aggPos := make([]int, len(aggs))
	for i, a := range aggs {
		aggPos[i] = plan.colIndex(a.Var)
	}
	job := &mapred.Job{
		Name:           name,
		Inputs:         []string{in.file},
		Output:         output,
		MapOperator:    "partial-agg",
		ReduceOperator: "group-agg",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return &partialAggMapper{sc: scanner{plan: plan}, groupPos: groupPos, aggPos: aggPos, valid: valid, st: algebra.NewMultiAggState(aggs)}
		},
		NewCombiner: func() mapred.Reducer { return engine.NewAggMerger(groupings, nil) },
		NewReducer:  func() mapred.Reducer { return engine.NewAggMerger(groupings, d) },
	}
	// The reducer decodes group keys back to lexical form: aggregate outputs
	// are the decode boundary. The returned rel names the file and schema of
	// those result rows (codec.DecodeTuple, read by the engine's final
	// join); it carries no dictionary and is not scannable by the jobs here.
	return job, &rel{file: output, cols: outCols}
}

// partialAggMapper emits one partial aggregate state per scanned row, keyed
// by the row's grouping values.
type partialAggMapper struct {
	sc       scanner
	groupPos []int
	aggPos   []int
	valid    func(codec.Tuple) bool
	// st is the task's one partial state, reset per row.
	st       *algebra.MultiAggState
	key, enc []byte
}

func (m *partialAggMapper) Map(rec []byte, emit mapred.Emit) error {
	row, ok, err := m.sc.next(rec)
	if err != nil || !ok {
		return err
	}
	if m.valid != nil && !m.valid(row) {
		return nil
	}
	m.key = m.key[:0]
	for _, p := range m.groupPos {
		m.key = append(m.key, row[p]...)
	}
	m.st.Reset()
	for i, p := range m.aggPos {
		m.st.States[i].UpdateTerm(m.sc.plan.dict, row[p])
	}
	m.enc = m.st.AppendEncode(m.enc[:0])
	// The key is a view of the scratch the next row overwrites: every
	// framework Emit copies it before it returns.
	emit(unsafe.String(unsafe.SliceData(m.key), len(m.key)), m.enc)
	return nil
}

func aggAliases(aggs []algebra.AggSpec) []string {
	out := make([]string, len(aggs))
	for i, a := range aggs {
		out[i] = a.As
	}
	return out
}

// distinctJob deduplicates rows after projecting to keepCols (in order),
// optionally filtering with valid first. The full projected row is the
// grouping key, so two equal rows collapse.
func distinctJob(name string, in *rel, keepCols []string, valid func(codec.Tuple) bool, output string) (*mapred.Job, *rel) {
	plan := in.compile()
	pos := make([]int, len(keepCols))
	for i, c := range keepCols {
		pos[i] = plan.colIndex(c)
	}
	job := &mapred.Job{
		Name:           name,
		Inputs:         []string{in.file},
		Output:         output,
		MapOperator:    "project",
		ReduceOperator: "distinct",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return &projectMapper{sc: scanner{plan: plan}, pos: pos, valid: valid}
		},
		NewCombiner: func() mapred.Reducer { return firstValueReducer() },
		NewReducer:  func() mapred.Reducer { return firstValueReducer() },
	}
	return job, materialized(output, keepCols, in.dict)
}

// projectMapper emits each scanned row projected to pos, keyed by itself.
type projectMapper struct {
	sc    scanner
	pos   []int
	valid func(codec.Tuple) bool
	proj  codec.Tuple
	enc   []byte
}

func (m *projectMapper) Map(rec []byte, emit mapred.Emit) error {
	row, ok, err := m.sc.next(rec)
	if err != nil || !ok {
		return err
	}
	if m.valid != nil && !m.valid(row) {
		return nil
	}
	m.proj = m.proj[:0]
	for _, p := range m.pos {
		m.proj = append(m.proj, row[p])
	}
	m.enc = m.proj.AppendEncodeIDs(m.enc[:0])
	// The key is a view of the scratch the next row overwrites: every
	// framework Emit copies it before it returns.
	emit(unsafe.String(unsafe.SliceData(m.enc), len(m.enc)), m.enc)
	return nil
}

func firstValueReducer() mapred.Reducer {
	return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
		emit(key, values[0])
		return nil
	})
}
