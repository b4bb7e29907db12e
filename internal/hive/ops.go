// Package hive implements the two relational baselines the paper evaluates
// against: Hive (Naive), a direct SPARQL→HiveQL-style translation over
// vertically partitioned ORC tables, and Hive (MQO), the multi-query
// optimization rewriting of Le et al. [27] that evaluates a composite graph
// pattern with left outer joins, materialises it, and runs the
// grouping-aggregation queries over the materialised table.
//
// The physical operators mirror Hive 0.12's: reduce-side hash joins, map
// joins (broadcast small tables, map-only cycles), early projection and
// predicate pushdown on scans (Naive only — the MQO materialisation
// boundary defeats them, as the paper observes), DISTINCT, and group-by
// aggregation with combiners.
package hive

import (
	"fmt"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
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
// columns and no residual checks.
type rel struct {
	file string
	// cols names each raw tuple field; "" drops the field on scan.
	cols []string
	// consts maps raw field index to a required value, an ID-string
	// (Dict.KeyString: a constant absent from the data matches no tuple);
	// non-matching tuples are dropped.
	consts map[int]string
	// filters are pushed-down FILTER constraints, keyed by column name.
	filters []sparql.Filter
	// dict is the dataset's dictionary: the relation's tuples are compact
	// ID-tuples whose fields are its ID-strings. The planner resolves
	// constant checks to ID-strings too, so scans compare raw field bytes;
	// filters decode through the dictionary before evaluation.
	dict *rdf.Dict
}

// decode parses one raw record of the relation's file.
func (r *rel) decode(rec []byte) (codec.Tuple, error) {
	return codec.DecodeIDTuple(rec, r.dict)
}

// lexOf translates an ID-string to its lexical Term.Key form for filter
// evaluation.
func (r *rel) lexOf(v string) string {
	if lex, ok := r.dict.Lex(v); ok {
		if lex == "" {
			return algebra.Null
		}
		return lex
	}
	return v
}

// planeEncodeTagged serialises a row with a leading tag byte in a single
// allocation — the hot emit path of the reduce-side joins.
//
//rapid:hot
func planeEncodeTagged(tag byte, row codec.Tuple) []byte {
	buf := make([]byte, 1, 1+row.EncodedIDsLen())
	buf[0] = tag
	return row.AppendEncodeIDs(buf)
}

// outCols returns the named columns a scan of the relation produces.
func (r *rel) outCols() []string {
	var out []string
	for _, c := range r.cols {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

// scan applies the relation's lazy transformations to one raw tuple.
func (r *rel) scan(raw codec.Tuple) (codec.Tuple, bool) {
	if len(raw) != len(r.cols) {
		return nil, false
	}
	for i, want := range r.consts {
		if raw[i] != want {
			return nil, false
		}
	}
	var out codec.Tuple
	for i, c := range r.cols {
		if c == "" {
			continue
		}
		for _, f := range r.filters {
			if f.Var == c {
				ok, err := algebra.EvalFilter(f, r.lexOf(raw[i]))
				if err != nil || !ok {
					return nil, false
				}
			}
		}
		out = append(out, raw[i])
	}
	return out, true
}

func (r *rel) colIndex(name string) int {
	i := 0
	for _, c := range r.cols {
		if c == "" {
			continue
		}
		if c == name {
			return i
		}
		i++
	}
	return -1
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
	// keyCol is the subject column the star joins on.
	keyCol string
	// optional marks MQO secondary properties joined with LEFT OUTER
	// semantics: subjects without matches keep the star row, with NULLs in
	// the input's non-key columns.
	optional bool
}

func (si *starInput) nonKeyCols() []string {
	var out []string
	for _, c := range si.rel.outCols() {
		if c != si.keyCol {
			out = append(out, c)
		}
	}
	return out
}

// starJoinCols returns the output schema of a star join: the subject column
// followed by each input's non-key columns, restricted to keep (nil keeps
// everything).
func starJoinCols(inputs []*starInput, keep map[string]bool) []string {
	out := []string{inputs[0].keyCol}
	for _, si := range inputs {
		for _, c := range si.nonKeyCols() {
			if keep == nil || keep[c] {
				out = append(out, c)
			}
		}
	}
	return out
}

// starJoinJob builds the reduce-side star join of the inputs on their
// subject columns. Inputs must reference distinct files.
func starJoinJob(name string, inputs []*starInput, keep map[string]bool, output string, compression float64) (*mapred.Job, *rel) {
	outCols := starJoinCols(inputs, keep)
	d := inputs[0].rel.dict
	byFile := map[string]int{}
	for i, si := range inputs {
		byFile[si.rel.file] = i
	}
	files := make([]string, len(inputs))
	for i, si := range inputs {
		files[i] = si.rel.file
	}
	job := &mapred.Job{
		Name:              name,
		Inputs:            files,
		Output:            output,
		OutputCompression: compression,
		MapOperator:       "vp-scan",
		ReduceOperator:    "star-join",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			idx := byFile[tc.InputFile]
			si := inputs[idx]
			keyPos := si.rel.colIndex(si.keyCol)
			tag := byte(idx)
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				raw, err := si.rel.decode(rec)
				if err != nil {
					return err
				}
				row, ok := si.rel.scan(raw)
				if !ok {
					return nil
				}
				emit(row[keyPos], planeEncodeTagged(tag, row))
				return nil
			})
		},
		NewReducer: func() mapred.Reducer {
			return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
				return reduceStar(key, values, inputs, keep, emit)
			})
		},
	}
	return job, materialized(output, outCols, d)
}

// reduceStar joins one subject's rows across all inputs, honouring
// optional (left-outer) inputs.
func reduceStar(key string, values [][]byte, inputs []*starInput, keep map[string]bool, emit mapred.Emit) error {
	perInput := make([][]codec.Tuple, len(inputs))
	for _, v := range values {
		if len(v) < 1 {
			return fmt.Errorf("hive: empty star-join value")
		}
		tag := int(v[0])
		if tag >= len(inputs) {
			return fmt.Errorf("hive: bad star-join tag %d", tag)
		}
		t, err := inputs[tag].rel.decode(v[1:])
		if err != nil {
			return err
		}
		perInput[tag] = append(perInput[tag], t)
	}
	for i, si := range inputs {
		if !si.optional && len(perInput[i]) == 0 {
			return nil
		}
	}
	rows := []codec.Tuple{{key}}
	for i, si := range inputs {
		keptPos := keptPositions(si, keep)
		matches := perInput[i]
		var next []codec.Tuple
		if len(matches) == 0 { // optional, unmatched: NULL-extend
			for _, r := range rows {
				ext := append(codec.Tuple{}, r...)
				for range keptPos {
					ext = append(ext, algebra.Null)
				}
				next = append(next, ext)
			}
		} else {
			for _, r := range rows {
				for _, m := range matches {
					ext := append(codec.Tuple{}, r...)
					for _, p := range keptPos {
						ext = append(ext, m[p])
					}
					next = append(next, ext)
				}
			}
		}
		rows = next
	}
	for _, r := range rows {
		emit("", r.EncodeIDs())
	}
	return nil
}

// starMapJoinJob builds the map-only variant: the driving input streams and
// every other input is broadcast.
func starMapJoinJob(name string, inputs []*starInput, driving int, keep map[string]bool, output string, compression float64) (*mapred.Job, *rel) {
	ordered := []*starInput{inputs[driving]}
	for i, si := range inputs {
		if i != driving {
			ordered = append(ordered, si)
		}
	}
	outCols := starJoinCols(ordered, keep)
	d := ordered[0].rel.dict
	var sides []string
	for _, si := range ordered[1:] {
		sides = append(sides, si.rel.file)
	}
	job := &mapred.Job{
		Name:              name,
		Inputs:            []string{ordered[0].rel.file},
		SideInputs:        sides,
		Output:            output,
		OutputCompression: compression,
		MapOperator:       "star-map-join",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			// Hash each side by its subject column.
			hashes := make([]map[string][]codec.Tuple, len(ordered)-1)
			for i, si := range ordered[1:] {
				h := map[string][]codec.Tuple{}
				keyPos := si.rel.colIndex(si.keyCol)
				for _, rec := range tc.SideInput(si.rel.file) {
					raw, err := si.rel.decode(rec)
					if err != nil {
						continue
					}
					row, ok := si.rel.scan(raw)
					if !ok {
						continue
					}
					h[row[keyPos]] = append(h[row[keyPos]], row)
				}
				hashes[i] = h
			}
			drv := ordered[0]
			drvKey := drv.rel.colIndex(drv.keyCol)
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				raw, err := drv.rel.decode(rec)
				if err != nil {
					return err
				}
				row, ok := drv.rel.scan(raw)
				if !ok {
					return nil
				}
				key := row[drvKey]
				rows := []codec.Tuple{{key}}
				// Driving input's own non-key columns first.
				for _, p := range keptPositions(drv, keep) {
					rows[0] = append(rows[0], row[p])
				}
				for i, si := range ordered[1:] {
					matches := hashes[i][key]
					keptPos := keptPositions(si, keep)
					var next []codec.Tuple
					if len(matches) == 0 {
						if !si.optional {
							return nil
						}
						for _, r := range rows {
							ext := append(codec.Tuple{}, r...)
							for range keptPos {
								ext = append(ext, algebra.Null)
							}
							next = append(next, ext)
						}
					} else {
						for _, r := range rows {
							for _, m := range matches {
								ext := append(codec.Tuple{}, r...)
								for _, pp := range keptPos {
									ext = append(ext, m[pp])
								}
								next = append(next, ext)
							}
						}
					}
					rows = next
				}
				for _, r := range rows {
					emit("", r.EncodeIDs())
				}
				return nil
			})
		},
	}
	return job, materialized(output, outCols, d)
}

// joinJob builds a binary equi-join of two relations on named columns,
// projecting to keep (nil keeps all columns; the join column appears once,
// under the left name).
func joinJob(name string, left, right *rel, leftCol, rightCol string, keep map[string]bool, output string, compression float64) (*mapred.Job, *rel) {
	outCols := joinOutCols(left, right, leftCol, rightCol, keep)
	d := left.dict
	job := &mapred.Job{
		Name:              name,
		Inputs:            []string{left.file, right.file},
		Output:            output,
		OutputCompression: compression,
		MapOperator:       "vp-scan",
		ReduceOperator:    "hash-join",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			r, tag, keyCol := left, byte(0), leftCol
			if tc.InputFile == right.file {
				r, tag, keyCol = right, 1, rightCol
			}
			keyPos := r.colIndex(keyCol)
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				raw, err := r.decode(rec)
				if err != nil {
					return err
				}
				row, ok := r.scan(raw)
				if !ok {
					return nil
				}
				emit(row[keyPos], planeEncodeTagged(tag, row))
				return nil
			})
		},
		NewReducer: func() mapred.Reducer {
			return symJoinReducer(left, right, leftCol, rightCol, keep)
		},
	}
	return job, materialized(output, outCols, d)
}

// mapJoinJob builds the map-only variant of joinJob, broadcasting right.
func mapJoinJob(name string, left, right *rel, leftCol, rightCol string, keep map[string]bool, output string, compression float64) (*mapred.Job, *rel) {
	outCols := joinOutCols(left, right, leftCol, rightCol, keep)
	d := left.dict
	job := &mapred.Job{
		Name:              name,
		Inputs:            []string{left.file},
		SideInputs:        []string{right.file},
		Output:            output,
		OutputCompression: compression,
		MapOperator:       "map-join",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			rightKeyPos := right.colIndex(rightCol)
			h := map[string][]codec.Tuple{}
			for _, rec := range tc.SideInput(right.file) {
				raw, err := right.decode(rec)
				if err != nil {
					continue
				}
				row, ok := right.scan(raw)
				if !ok {
					continue
				}
				h[row[rightKeyPos]] = append(h[row[rightKeyPos]], row)
			}
			leftKeyPos := left.colIndex(leftCol)
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				raw, err := left.decode(rec)
				if err != nil {
					return err
				}
				row, ok := left.scan(raw)
				if !ok {
					return nil
				}
				for _, m := range h[row[leftKeyPos]] {
					emit("", mergeJoinRow(left, right, leftCol, rightCol, keep, row, m).EncodeIDs())
				}
				return nil
			})
		},
	}
	return job, materialized(output, outCols, d)
}

func joinOutCols(left, right *rel, leftCol, rightCol string, keep map[string]bool) []string {
	out := []string{leftCol}
	for _, c := range left.outCols() {
		if c != leftCol && (keep == nil || keep[c]) {
			out = append(out, c)
		}
	}
	for _, c := range right.outCols() {
		if c != rightCol && (keep == nil || keep[c]) {
			out = append(out, c)
		}
	}
	return out
}

func mergeJoinRow(left, right *rel, leftCol, rightCol string, keep map[string]bool, l, r codec.Tuple) codec.Tuple {
	out := codec.Tuple{l[left.colIndex(leftCol)]}
	for i, c := range left.outCols() {
		if c != leftCol && (keep == nil || keep[c]) {
			out = append(out, l[i])
		}
	}
	for i, c := range right.outCols() {
		if c != rightCol && (keep == nil || keep[c]) {
			out = append(out, r[i])
		}
	}
	return out
}

// groupAggJob builds the grouping-aggregation cycle: map emits per-row
// partial aggregate states keyed by the grouping columns, a combiner merges
// them map-side (Hive's hash aggregation), and the reducer emits one row
// per group: [group values..., aggregate finals...].
//
// valid optionally filters rows map-side (the MQO pattern-validity check);
// rewrite optionally renames the aggregation input columns (identity when
// nil).
func groupAggJob(name string, in *rel, groupCols []string, aggs []algebra.AggSpec, valid func(codec.Tuple) bool, having func([]string) bool, output string) (*mapred.Job, *rel) {
	outCols := append(append([]string{}, groupCols...), aggAliases(aggs)...)
	d := in.dict
	groupPos := make([]int, len(groupCols))
	for i, c := range groupCols {
		groupPos[i] = in.colIndex(c)
	}
	aggPos := make([]int, len(aggs))
	for i, a := range aggs {
		aggPos[i] = in.colIndex(a.Var)
	}
	job := &mapred.Job{
		Name:           name,
		Inputs:         []string{in.file},
		Output:         output,
		MapOperator:    "partial-agg",
		ReduceOperator: "group-agg",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			var keyBuf []byte
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				raw, err := in.decode(rec)
				if err != nil {
					return err
				}
				row, ok := in.scan(raw)
				if !ok {
					return nil
				}
				if valid != nil && !valid(row) {
					return nil
				}
				keyBuf = keyBuf[:0]
				for _, p := range groupPos {
					keyBuf = append(keyBuf, row[p]...)
				}
				st := algebra.NewMultiAggState(aggs)
				for i, p := range aggPos {
					st.States[i].UpdateTerm(d, row[p])
				}
				emit(string(keyBuf), st.AppendEncode(nil))
				return nil
			})
		},
		NewCombiner: func() mapred.Reducer { return aggMerger(aggs, false, nil, nil, nil) },
		NewReducer:  func() mapred.Reducer { return aggMerger(aggs, true, groupCols, having, d) },
	}
	// The reducer decodes group keys back to lexical form: aggregate outputs
	// are the decode boundary. The returned rel names the file and schema of
	// those result rows (codec.DecodeTuple, read by the engine's final
	// join); it carries no dictionary and is not scannable by the jobs here.
	return job, &rel{file: output, cols: outCols}
}

// splitGroupKey recovers the group values from a grouping key: a
// separator-free concatenation of self-delimiting uvarint ID-strings,
// decoded back to lexical Term.Key form here — the decode boundary.
func splitGroupKey(d *rdf.Dict, key string) ([]string, error) {
	var out []string
	buf := []byte(key)
	for len(buf) > 0 {
		id, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("hive: group key: %w", err)
		}
		buf = rest
		if id == 0 {
			out = append(out, algebra.Null)
			continue
		}
		k, ok := d.Key(id)
		if !ok {
			return nil, fmt.Errorf("hive: group key holds unknown term id %d", id)
		}
		out = append(out, k)
	}
	return out, nil
}

// aggMerger merges encoded MultiAggStates per key. As a combiner it
// re-emits the merged state; as a reducer it emits the final row, dropping
// groups that fail the HAVING predicate; the reducer decodes the grouping
// key back to lexical form through d (combiners pass nil: they never
// decode).
func aggMerger(aggs []algebra.AggSpec, final bool, groupCols []string, having func([]string) bool, d *rdf.Dict) mapred.Reducer {
	return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
		acc := algebra.NewMultiAggState(aggs)
		for _, v := range values {
			st, err := algebra.DecodeMultiAggStateBytes(v)
			if err != nil {
				return err
			}
			acc.Merge(st)
		}
		if !final {
			emit(key, acc.AppendEncode(nil))
			return nil
		}
		finals := acc.Finals()
		if having != nil && !having(finals) {
			return nil
		}
		var row codec.Tuple
		if len(groupCols) > 0 {
			groups, err := splitGroupKey(d, key)
			if err != nil {
				return err
			}
			row = append(row, groups...)
		}
		row = append(row, finals...)
		emit("", row.Encode())
		return nil
	})
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
	pos := make([]int, len(keepCols))
	for i, c := range keepCols {
		pos[i] = in.colIndex(c)
	}
	job := &mapred.Job{
		Name:           name,
		Inputs:         []string{in.file},
		Output:         output,
		MapOperator:    "project",
		ReduceOperator: "distinct",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				raw, err := in.decode(rec)
				if err != nil {
					return err
				}
				row, ok := in.scan(raw)
				if !ok {
					return nil
				}
				if valid != nil && !valid(row) {
					return nil
				}
				proj := make(codec.Tuple, len(pos))
				for i, p := range pos {
					proj[i] = row[p]
				}
				enc := proj.EncodeIDs()
				emit(string(enc), enc)
				return nil
			})
		},
		NewCombiner: func() mapred.Reducer { return firstValueReducer() },
		NewReducer:  func() mapred.Reducer { return firstValueReducer() },
	}
	return job, materialized(output, keepCols, in.dict)
}

// keptPositions returns the scan-output positions of an input's non-key
// columns that survive projection.
func keptPositions(si *starInput, keep map[string]bool) []int {
	var out []int
	for i, c := range si.rel.outCols() {
		if c != si.keyCol && (keep == nil || keep[c]) {
			out = append(out, i)
		}
	}
	return out
}

func firstValueReducer() mapred.Reducer {
	return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
		emit(key, values[0])
		return nil
	})
}
