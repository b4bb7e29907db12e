package hive

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// This file holds the map-side hot path of the Hive operators. A job
// builder compiles every rel it reads into a scanPlan once — the way
// ntga.CompileMatcher compiles a star — so the per-record loop checks
// constants and filters by position and never compares column names. Each
// map task decodes records into scratch it owns (scanner), reducers decode
// a key group's rows into one arena (tupleArena), and joined rows are built
// in a reused scratch row from precomputed positions and encoded once per
// emitted row into one reused buffer, which mapred copies before the emit
// returns.

// constCheck is a constant-object check: raw field pos must equal want, an
// ID-string (Dict.KeyString: a constant absent from the data matches no
// tuple).
type constCheck struct {
	pos  int
	want string
}

// posFilter is a pushed-down FILTER resolved to the raw field it tests.
type posFilter struct {
	pos    int
	filter sparql.Filter
}

// scanPlan is a rel compiled for the per-record loop.
type scanPlan struct {
	file string
	dict *rdf.Dict
	// arity is the raw tuple width; other widths are dropped.
	arity  int
	consts []constCheck
	// filters are ordered by column, each column's in rel order; filters
	// on dropped or unknown columns are not evaluated.
	filters []posFilter
	// kept holds the raw positions of the named columns, and cols their
	// names: the scan's output schema.
	kept []int
	cols []string
}

// compile resolves the relation's lazy transformations to positions.
func (r *rel) compile() *scanPlan {
	p := &scanPlan{file: r.file, dict: r.dict, arity: len(r.cols), consts: r.consts}
	for i, c := range r.cols {
		if c == "" {
			continue
		}
		p.kept = append(p.kept, i)
		p.cols = append(p.cols, c)
		for _, f := range r.filters {
			if f.Var == c {
				p.filters = append(p.filters, posFilter{pos: i, filter: f})
			}
		}
	}
	return p
}

// colIndex returns the scan-output position of column name, or -1.
func (p *scanPlan) colIndex(name string) int {
	for i, c := range p.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// project applies the plan to one raw tuple, appending the kept fields to
// dst. It reports false, with dst unextended, for a dropped tuple.
func (p *scanPlan) project(dst, raw codec.Tuple) (codec.Tuple, bool) {
	if len(raw) != p.arity {
		return dst, false
	}
	for _, c := range p.consts {
		if raw[c.pos] != c.want {
			return dst, false
		}
	}
	for _, f := range p.filters {
		ok, err := algebra.EvalFilter(f.filter, lexOf(p.dict, raw[f.pos]))
		if err != nil || !ok {
			return dst, false
		}
	}
	for _, k := range p.kept {
		dst = append(dst, raw[k])
	}
	return dst, true
}

// lexOf translates an ID-string to its lexical Term.Key form for filter
// evaluation.
func lexOf(d *rdf.Dict, v string) string {
	if lex, ok := d.Lex(v); ok {
		if lex == "" {
			return algebra.Null
		}
		return lex
	}
	return v
}

// scanner is one map task's reader of a compiled rel. It decodes each
// record into a scratch tuple and projects into a second one, so a
// steady-state scan allocates nothing; the row next returns is valid until
// the next call, and a mapper must encode, hash or copy it before it
// returns from Map.
type scanner struct {
	plan     *scanPlan
	raw, row codec.Tuple
}

// next decodes and scans one record; false means the plan drops it.
func (s *scanner) next(rec []byte) (codec.Tuple, bool, error) {
	raw, err := codec.AppendDecodeIDTuple(s.raw[:0], rec, s.plan.dict)
	if err != nil {
		return nil, false, err
	}
	s.raw = raw
	row, ok := s.plan.project(s.row[:0], raw)
	if !ok {
		return nil, false, nil
	}
	s.row = row
	return row, true, nil
}

// tupleArena is backing storage for rows that must outlive one record: a
// reducer's decoded key group. Returned
// tuples alias the arena (capacity-limited, so they cannot grow into each
// other) and stay valid until reset.
type tupleArena struct {
	fields []string
}

func (a *tupleArena) reset() { a.fields = a.fields[:0] }

// decode parses an ID-tuple into the arena.
func (a *tupleArena) decode(buf []byte, in codec.Interner) (codec.Tuple, error) {
	n := len(a.fields)
	f, err := codec.AppendDecodeIDTuple(a.fields, buf, in)
	if err != nil {
		return nil, err
	}
	a.fields = f
	return f[n:len(f):len(f)], nil
}

// sideIndex is a broadcast input's scanned rows grouped by key column in
// one flat array, each key's rows contiguous and in record order, behind
// an open-addressing table over the key's term ID (termID).
type sideIndex struct {
	// slots has a power-of-two length; a slot holds a group number plus
	// one, 0 when empty, and keys[g] is group g's term ID.
	slots []int32
	keys  []uint64
	// start[g] is where group g's rows begin; start has a final sentinel.
	start []int32
	rows  []codec.Tuple
	// err, naming the file, is the first record that failed to decode.
	err error
}

// termID decodes an ID-string, the canonical uvarint of a term ID. A
// string that is not one — rdf.MissingIDString, an overlong or truncated
// form, trailing bytes — reports false; it equals no decoded field.
func termID(s string) (uint64, bool) {
	id, n := binary.Uvarint([]byte(s))
	return id, n == len(s) && n > 0 && (n == 1 || s[n-1] != 0)
}

// find returns the slot holding term ID id, or the empty slot that would.
func (x *sideIndex) find(id uint64) int {
	i := int(id*0x9E3779B97F4A7C15>>32) & (len(x.slots) - 1)
	for x.slots[i] != 0 && x.keys[x.slots[i]-1] != id {
		i = (i + 1) & (len(x.slots) - 1)
	}
	return i
}

// buildSideIndex scans the records of a broadcast input, read in place
// from its open snapshot, and groups them by scan-output column keyPos.
// Records the scan drops are skipped; the first that fails to decode, or a
// read error, is kept as x.err. Every scanned row is len(p.kept) fields
// wide, so scanned row i is the i-th window of one flat field array.
func buildSideIndex(f *dfs.File, p *scanPlan, keyPos int) *sideIndex {
	// More than twice as many slots as records, so a probe always ends;
	// keys and count are sized to the records, a bound on the groups.
	n := f.NumRecords()
	x := &sideIndex{slots: make([]int32, 2<<bits.Len(uint(n))), keys: make([]uint64, 0, n)}
	sc := scanner{plan: p}
	w := len(p.kept)
	fields := make([]string, 0, n*w)
	groupOf := make([]int32, 0, n)
	count := make([]int32, 0, n)
	it := f.Records(0)
	for it.Next() {
		row, ok, err := sc.next(it.Record())
		if err != nil && x.err == nil {
			x.err = fmt.Errorf("hive: broadcast side %s: %w", p.file, err)
		}
		if !ok {
			continue
		}
		id, _ := termID(row[keyPos]) // a decoded field is canonical
		i := x.find(id)
		if x.slots[i] == 0 {
			x.keys = append(x.keys, id)
			count = append(count, 0)
			x.slots[i] = int32(len(x.keys))
		}
		g := x.slots[i] - 1
		fields = append(fields, row...)
		count[g]++
		groupOf = append(groupOf, g)
	}
	if err := it.Err(); err != nil && x.err == nil {
		x.err = fmt.Errorf("hive: broadcast side %s: %w", p.file, err)
	}
	// A counting sort by group keeps each group's rows in record order.
	x.start = make([]int32, len(count)+1)
	for g, n := range count {
		x.start[g+1] = x.start[g] + n
	}
	next := append(count[:0], x.start[:len(count)]...)
	x.rows = make([]codec.Tuple, len(groupOf))
	for i, g := range groupOf {
		x.rows[next[g]] = fields[i*w : (i+1)*w : (i+1)*w]
		next[g]++
	}
	return x
}

// lookup returns the rows whose key column equals key.
func (x *sideIndex) lookup(key string) []codec.Tuple {
	id, ok := termID(key)
	if !ok {
		return nil
	}
	g := x.slots[x.find(id)] - 1
	if g < 0 {
		return nil
	}
	return x.rows[x.start[g]:x.start[g+1]]
}

// starPlan is one star-join input compiled once per job.
type starPlan struct {
	scan *scanPlan
	// keyPos is the scan-output position of the subject column.
	keyPos int
	// kept holds the scan-output positions of the non-key columns that
	// survive the join's projection.
	kept     []int
	optional bool
}

func compileStar(si *starInput, keep map[string]bool) *starPlan {
	p := &starPlan{scan: si.rel.compile(), optional: si.optional}
	p.keyPos = p.scan.colIndex(si.keyCol)
	for i, c := range p.scan.cols {
		if c != si.keyCol && (keep == nil || keep[c]) {
			p.kept = append(p.kept, i)
		}
	}
	return p
}

func compileStars(inputs []*starInput, keep map[string]bool) []*starPlan {
	plans := make([]*starPlan, len(inputs))
	for i, si := range inputs {
		plans[i] = compileStar(si, keep)
	}
	return plans
}

// starJoinCols returns the output schema of a star join: the subject
// column followed by each input's kept columns.
func starJoinCols(keyCol string, plans []*starPlan) []string {
	out := []string{keyCol}
	for _, p := range plans {
		for _, k := range p.kept {
			out = append(out, p.scan.cols[k])
		}
	}
	return out
}

// starRows builds one subject's joined star rows in a scratch row. Before
// emit, matches[i] holds input i's rows for the subject; an empty list
// NULL-extends an optional input, and required inputs must be non-empty.
// Rows come out input-0-major: the cross product's first input varies
// slowest.
type starRows struct {
	plans   []*starPlan
	matches [][]codec.Tuple
	// offs[i] is where input i's kept columns start in row.
	offs []int
	row  codec.Tuple
	// buf is the encode buffer of every emitted row.
	buf []byte
	out mapred.Emit
}

func newStarRows(plans []*starPlan) *starRows {
	x := &starRows{plans: plans, matches: make([][]codec.Tuple, len(plans)), offs: make([]int, len(plans))}
	w := 1
	for i, p := range plans {
		x.offs[i] = w
		w += len(p.kept)
	}
	x.row = make(codec.Tuple, w)
	return x
}

// emit emits every joined row of subject key.
func (x *starRows) emit(key string, emit mapred.Emit) {
	x.row[0], x.out = key, emit
	x.expand(0)
	x.out = nil
}

// expand fills input i's columns with each of its matches in turn and
// recurses; past the last input it emits the row.
func (x *starRows) expand(i int) {
	if i == len(x.plans) {
		x.buf = x.row.AppendEncodeIDs(x.buf[:0])
		x.out("", x.buf)
		return
	}
	p := x.plans[i]
	cols := x.row[x.offs[i] : x.offs[i]+len(p.kept)]
	if len(x.matches[i]) == 0 { // optional, unmatched: NULL-extend
		for k := range cols {
			cols[k] = algebra.Null
		}
		x.expand(i + 1)
		return
	}
	for _, m := range x.matches[i] {
		for k, pos := range p.kept {
			cols[k] = m[pos]
		}
		x.expand(i + 1)
	}
}

// joinPlan is a binary equi-join compiled once per job.
type joinPlan struct {
	left, right       *scanPlan
	leftKey, rightKey int
	// leftKept and rightKept hold each side's scan-output positions of the
	// non-key columns that survive the join's projection.
	leftKept, rightKept []int
	// cols is the output schema: the join column once, under the left
	// name, then the left and the right kept columns.
	cols []string
}

// compileJoin compiles the join of left and right on leftCol = rightCol,
// projecting to keep (nil keeps all columns).
func compileJoin(left, right *rel, leftCol, rightCol string, keep map[string]bool) *joinPlan {
	j := &joinPlan{left: left.compile(), right: right.compile(), cols: []string{leftCol}}
	j.leftKey, j.rightKey = j.left.colIndex(leftCol), j.right.colIndex(rightCol)
	for i, c := range j.left.cols {
		if c != leftCol && (keep == nil || keep[c]) {
			j.leftKept = append(j.leftKept, i)
			j.cols = append(j.cols, c)
		}
	}
	for i, c := range j.right.cols {
		if c != rightCol && (keep == nil || keep[c]) {
			j.rightKept = append(j.rightKept, i)
			j.cols = append(j.cols, c)
		}
	}
	return j
}

// appendRow appends the joined row of scan outputs l and r to dst.
func (j *joinPlan) appendRow(dst, l, r codec.Tuple) codec.Tuple {
	dst = append(dst, l[j.leftKey])
	for _, p := range j.leftKept {
		dst = append(dst, l[p])
	}
	for _, p := range j.rightKept {
		dst = append(dst, r[p])
	}
	return dst
}

// taggedScanMapper is the map side of the reduce-side joins: it emits each
// scanned row under its join key, encoded after a leading byte that tags
// its input.
type taggedScanMapper struct {
	sc     scanner
	keyPos int
	tag    byte
	buf    []byte
}

func (m *taggedScanMapper) Map(rec []byte, emit mapred.Emit) error {
	row, ok, err := m.sc.next(rec)
	if err != nil || !ok {
		return err
	}
	m.buf = row.AppendEncodeIDs(append(m.buf[:0], m.tag))
	emit(row[m.keyPos], m.buf)
	return nil
}

var errUntagged = errors.New("hive: join value missing its input tag")

// badTag builds the failure for an out-of-range input tag. It is a function
// of its own so the per-row reducers hold no formatting call.
func badTag(tag byte) error {
	return fmt.Errorf("hive: bad star-join tag %d", tag)
}

// starReducer joins one subject's rows across all inputs, honouring
// optional (left-outer) inputs.
type starReducer struct {
	rows  *starRows
	arena tupleArena
}

func (r *starReducer) Reduce(key string, values [][]byte, emit mapred.Emit) error {
	x := r.rows
	r.arena.reset()
	for i := range x.matches {
		x.matches[i] = x.matches[i][:0]
	}
	for _, v := range values {
		if len(v) < 1 {
			return errUntagged
		}
		tag := v[0]
		if int(tag) >= len(x.plans) {
			return badTag(tag)
		}
		t, err := r.arena.decode(v[1:], x.plans[tag].scan.dict)
		if err != nil {
			return err
		}
		x.matches[tag] = append(x.matches[tag], t)
	}
	for i, p := range x.plans {
		if !p.optional && len(x.matches[i]) == 0 {
			return nil
		}
	}
	x.emit(key, emit)
	return nil
}

// starMapJoinMapper streams the driving input (plans[0]) against indexes
// of the broadcast inputs, built once per task.
type starMapJoinMapper struct {
	sc    scanner
	sides []*sideIndex
	rows  *starRows
	// drv backs matches[0]: the driving row is its own single match.
	drv [1]codec.Tuple
	// err is the first side index's decode failure.
	err error
}

// newStarMapJoinMapper builds a task's mapper; side returns the open
// snapshot of a broadcast input (TaskContext.SideInput).
func newStarMapJoinMapper(plans []*starPlan, side func(file string) *dfs.File) *starMapJoinMapper {
	m := &starMapJoinMapper{sc: scanner{plan: plans[0].scan}, rows: newStarRows(plans)}
	m.rows.matches[0] = m.drv[:]
	m.sides = make([]*sideIndex, len(plans)-1)
	for i, p := range plans[1:] {
		m.sides[i] = buildSideIndex(side(p.scan.file), p.scan, p.keyPos)
		m.err = cmp.Or(m.err, m.sides[i].err)
	}
	return m
}

func (m *starMapJoinMapper) Map(rec []byte, emit mapred.Emit) error {
	if m.err != nil {
		return m.err
	}
	row, ok, err := m.sc.next(rec)
	if err != nil || !ok {
		return err
	}
	x := m.rows
	key := row[x.plans[0].keyPos]
	m.drv[0] = row
	for i, side := range m.sides {
		ms := side.lookup(key)
		if len(ms) == 0 && !x.plans[i+1].optional {
			return nil
		}
		x.matches[i+1] = ms
	}
	x.emit(key, emit)
	return nil
}

// Close fails a task whose split held no record on a corrupt side input.
func (m *starMapJoinMapper) Close(mapred.Emit) error { return m.err }

// mapJoinMapper streams the left input against an index of the broadcast
// right input, built once per task.
type mapJoinMapper struct {
	sc    scanner
	plan  *joinPlan
	right *sideIndex
	out   codec.Tuple
	buf   []byte
}

func (m *mapJoinMapper) Map(rec []byte, emit mapred.Emit) error {
	if m.right.err != nil {
		return m.right.err
	}
	row, ok, err := m.sc.next(rec)
	if err != nil || !ok {
		return err
	}
	for _, r := range m.right.lookup(row[m.plan.leftKey]) {
		m.out = m.plan.appendRow(m.out[:0], row, r)
		m.buf = m.out.AppendEncodeIDs(m.buf[:0])
		emit("", m.buf)
	}
	return nil
}

// Close fails a task whose split held no record on a corrupt side input.
func (m *mapJoinMapper) Close(mapred.Emit) error { return m.right.err }
