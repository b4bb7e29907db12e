package hive

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// map task decodes records into scratch it owns (scanner). Hive has one
// join, the star join: a binary join is its two-input case. Its reduce
// and map forms keep each matched row as the encoded segment of the
// columns they emit (rowSet, sideIndex) and emit a joined row by appending
// segments to an encoded prefix. Every joined row is encoded into one
// reused buffer, which mapred copies before the emit returns.

// constCheck is a constant-object check: raw field pos must equal want, an
// ID-string (Dict.KeyString: a constant absent from the data matches no
// tuple).
type constCheck struct {
	pos  int
	want string
}

// sameCheck is a repeated-variable check: raw field pos must equal raw
// field first, where the pattern binds the variable first (?s e:knows ?s).
type sameCheck struct {
	pos, first int
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
	same   []sameCheck
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
	p := &scanPlan{file: r.file, dict: r.dict, arity: len(r.cols), consts: r.consts, same: r.same}
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
	for _, c := range p.same {
		if raw[c.pos] != raw[c.first] {
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

// rowSet holds encoded row segments: row r is data[off[r]:off[r+1]], the
// ID-strings of the columns a join emits from it, concatenated. ID-strings
// are self-delimiting, so appending segments to an encoded prefix yields
// the joined row's encoding (codec.Tuple.AppendEncodeIDs). order lists the
// rows a join takes, in the order it takes them.
type rowSet struct {
	data  []byte
	off   []int32
	order []int32
}

// reset empties the set, keeping its storage.
func (s *rowSet) reset() {
	s.data, s.off, s.order = s.data[:0], append(s.off[:0], 0), s.order[:0]
}

// push appends the fields of t at positions cols as a new row and returns
// its number; order is left to the caller.
func (s *rowSet) push(t codec.Tuple, cols []int) int32 {
	for _, p := range cols {
		s.data = append(s.data, t[p]...)
	}
	s.off = append(s.off, int32(len(s.data)))
	return int32(len(s.off) - 2)
}

// row returns row r's segment.
func (s *rowSet) row(r int32) []byte { return s.data[s.off[r]:s.off[r+1]:s.off[r+1]] }

// sideIndex is a broadcast input's scanned rows, each kept as the segment
// of the columns its join emits, behind an open-addressing table over the
// key column's term ID (rdf.ReadID). order holds the row numbers group by
// group, each group in record order.
type sideIndex struct {
	// slots has a power-of-two length; a slot holds a group number plus
	// one, 0 when empty, and keys[g] is group g's term ID.
	slots []int32
	keys  []uint64
	// order[start[g]:start[g+1]] are group g's rows; start has a final
	// sentinel.
	start []int32
	rowSet
	// err, naming the file, is the first record that failed to decode.
	err error
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
// from its open snapshot, groups them by scan-output column keyPos and
// keeps each as the segment of its scan-output columns at positions cols,
// the ones its join emits.
// Records the scan drops are skipped; the first that fails to decode, or a
// read error, is kept as x.err.
func buildSideIndex(f *dfs.File, p *scanPlan, keyPos int, cols []int) *sideIndex {
	// More than twice as many slots as records, so a probe always ends;
	// keys and start are sized to the records, a bound on the groups, and
	// data to the emitted columns' share of the file's bytes. While the
	// scan runs, start[g+1] counts group g's rows.
	n := f.NumRecords()
	x := &sideIndex{slots: make([]int32, 2<<bits.Len(uint(n))), keys: make([]uint64, 0, n)}
	x.data = make([]byte, 0, f.Bytes()*int64(len(cols))/int64(max(p.arity, 1)))
	x.off = append(make([]int32, 0, n+1), 0)
	x.start = make([]int32, 1, n+1)
	sc := scanner{plan: p}
	groupOf := make([]int32, 0, n)
	it := f.Records(0)
	for it.Next() {
		row, ok, err := sc.next(it.Record())
		if err != nil && x.err == nil {
			x.err = fmt.Errorf("hive: broadcast side %s: %w", p.file, err)
		}
		if !ok {
			continue
		}
		id, _, _ := rdf.ReadID(row[keyPos], math.MaxUint64) // a decoded field
		i := x.find(id)
		if x.slots[i] == 0 {
			x.keys = append(x.keys, id)
			x.start = append(x.start, 0)
			x.slots[i] = int32(len(x.keys))
		}
		g := x.slots[i] - 1
		x.push(row, cols)
		x.start[g+1]++
		groupOf = append(groupOf, g)
	}
	if err := it.Err(); err != nil && x.err == nil {
		x.err = fmt.Errorf("hive: broadcast side %s: %w", p.file, err)
	}
	// A counting sort by group keeps each group's rows in record order.
	// Placing a row advances its group's start to the next group's, so
	// the starts come back shifted one group down.
	for g := 1; g < len(x.start); g++ {
		x.start[g] += x.start[g-1]
	}
	x.order = make([]int32, len(groupOf))
	for r, g := range groupOf {
		x.order[x.start[g]] = int32(r)
		x.start[g]++
	}
	copy(x.start[1:], x.start)
	x.start[0] = 0
	return x
}

// lookup returns the numbers of the rows whose key column equals key.
func (x *sideIndex) lookup(key string) []int32 {
	// A key that is no whole ID-string equals no decoded field.
	id, n, err := rdf.ReadID(key, math.MaxUint64)
	if err != nil || n != len(key) {
		return nil
	}
	g := x.slots[x.find(id)] - 1
	if g < 0 {
		return nil
	}
	return x.order[x.start[g]:x.start[g+1]]
}

// starPlan is one star-join input compiled once per job.
type starPlan struct {
	scan *scanPlan
	// keyPos is the scan-output position of the key column.
	keyPos int
	// kept holds the scan-output positions of the non-key columns that
	// survive the join's projection.
	kept []int
	// checks are the input's columns an earlier input emits too, each as
	// the joined row's field after the key that holds it: the join
	// compares them and emits none but a mark. A row's segment holds the
	// check fields, then the kept ones (stored).
	checks   []int
	stored   []int
	optional bool
}

// compileStars compiles the inputs of one star join in joinAt's order from
// inputs[first]. A column that several inputs bind is kept by the first
// and checked by the others, whatever keep says of it; a mark is checked
// against the column of its variable and kept.
func compileStars(inputs []*starInput, first int, keep map[string]bool) []*starPlan {
	plans := make([]*starPlan, len(inputs))
	for i := range inputs {
		si := inputs[joinAt(first, i)]
		p := &starPlan{scan: si.rel.compile(), optional: si.optional}
		p.keyPos = p.scan.colIndex(si.keyCol)
		var pos []int // the checks' scan-output positions
		for k, c := range p.scan.cols {
			if c == si.keyCol {
				continue
			}
			v := c
			if c == si.mark {
				v = si.markOf
			}
			if f := keptField(plans[:i], v); f >= 0 {
				p.checks, pos = append(p.checks, f), append(pos, k)
				if c != si.mark {
					continue
				}
			}
			if keep == nil || keep[c] || slices.ContainsFunc(inputs, func(o *starInput) bool { return o != si && slices.Contains(o.rel.cols, c) }) {
				p.kept = append(p.kept, k)
			}
		}
		if p.stored = p.kept; len(pos) > 0 {
			p.stored = append(pos, p.kept...)
		}
		plans[i] = p
	}
	return plans
}

// keptField returns the field after the key of the joined row that holds
// column c, which one of plans keeps, or -1.
func keptField(plans []*starPlan, c string) int {
	field := 0
	for _, p := range plans {
		if f := slices.IndexFunc(p.kept, func(k int) bool { return p.scan.cols[k] == c }); f >= 0 {
			return field + f
		}
		field += len(p.kept)
	}
	return -1
}

// starJoinCols returns the output schema of a star join: the key column
// followed by each input's kept columns. Every consumer reads a join
// output's columns by name, so the order of the inputs only permutes the
// columns; a name that occurred twice would make it choose between them,
// and panics instead.
func starJoinCols(keyCol string, plans []*starPlan) []string {
	out := []string{keyCol}
	for _, p := range plans {
		for _, k := range p.kept {
			c := p.scan.cols[k]
			if slices.Contains(out, c) {
				panic(fmt.Sprintf("hive: join output column %s occurs twice", c))
			}
			out = append(out, c)
		}
	}
	return out
}

// starRows emits one subject's joined star rows. begin writes the rows'
// common prefix; emit(from) takes input i's rows, for each i from from on,
// from matches[i], each the segment of the input's stored columns. An
// optional input none of whose rows passes its checks is NULL-extended,
// and required inputs must have rows. Rows come out input-0-major: the
// cross product's first input varies slowest.
type starRows struct {
	plans   []*starPlan
	matches []rowSet
	// width is the joined rows' arity: the subject and every kept column.
	width int
	// buf is the encode buffer of every emitted row: the arity and the
	// subject, then one segment per input.
	buf []byte
	out mapred.Emit
}

func newStarRows(plans []*starPlan) starRows {
	x := starRows{plans: plans, matches: make([]rowSet, len(plans)), width: 1}
	for _, p := range plans {
		x.width += len(p.kept)
	}
	return x
}

// begin starts the rows of subject key: the prefix is the arity and the
// key, to which a caller whose inputs before from have one match each
// appends their segments.
func (x *starRows) begin(key string) {
	x.buf = append(binary.AppendUvarint(x.buf[:0], uint64(x.width)), key...)
}

// emit emits every joined row of the prefix with the matches of inputs
// from on.
func (x *starRows) emit(from int, emit mapred.Emit) {
	x.out = emit
	x.expand(from)
	x.out = nil
}

// expand appends each of input i's matches in turn to the row built so
// far and recurses; past the last input it emits the row. A match whose
// check fields differ from the earlier inputs' values is skipped; an
// optional input left with no match is NULL-extended.
func (x *starRows) expand(i int) {
	if i == len(x.plans) {
		x.out("", x.buf)
		return
	}
	n, matched := len(x.buf), false
	m := &x.matches[i]
next:
	for _, r := range m.order {
		seg := m.row(r)
		for _, c := range x.plans[i].checks {
			_, l, _ := rdf.ReadID(seg, math.MaxUint64)
			if string(seg[:l]) != string(x.field(c)) {
				continue next
			}
			seg = seg[l:]
		}
		matched = true
		x.buf = append(x.buf[:n], seg...)
		x.expand(i + 1)
	}
	if x.buf = x.buf[:n]; !matched && x.plans[i].optional {
		for range x.plans[i].kept {
			x.buf = append(x.buf, algebra.Null...)
		}
		x.expand(i + 1)
		x.buf = x.buf[:n]
	}
}

// field returns field f after the key of the row in buf.
func (x *starRows) field(f int) []byte {
	_, n := binary.Uvarint(x.buf) // the arity; the key is field -1
	for b, f := x.buf[n:], f+1; ; f-- {
		_, l, _ := rdf.ReadID(b, math.MaxUint64) // a decoded field
		if f == 0 {
			return b[:l]
		}
		b = b[l:]
	}
}

// taggedScanMapper is the map side of the reduce-side star join: for each
// input that reads the task's file it scans the record and emits the row
// under its key column, encoded after a leading byte that tags the input.
type taggedScanMapper struct {
	plans []*starPlan
	// tags are the inputs that read the task's file, in input order.
	tags []int
	// raw is the decode scratch of one record, row the scan output of one
	// input's plan and buf its tagged encoding.
	raw, row codec.Tuple
	buf      []byte
}

func (m *taggedScanMapper) Map(rec []byte, emit mapred.Emit) error {
	raw, err := codec.AppendDecodeIDTuple(m.raw[:0], rec, m.plans[m.tags[0]].scan.dict)
	if err != nil {
		return err
	}
	m.raw = raw
	for _, tag := range m.tags {
		p := m.plans[tag]
		row, ok := p.scan.project(m.row[:0], raw)
		if !ok {
			continue
		}
		m.row = row
		m.buf = row.AppendEncodeIDs(append(m.buf[:0], byte(tag)))
		emit(row[p.keyPos], m.buf)
	}
	return nil
}

var errUntagged = errors.New("hive: join value missing its input tag")

// badTag builds the failure for an out-of-range input tag. It is a function
// of its own so the per-row reducers hold no formatting call.
func badTag(tag byte) error {
	return fmt.Errorf("hive: bad star-join tag %d", tag)
}

// starReducer joins one key's rows across all inputs, honouring optional
// (left-outer) inputs.
type starReducer struct {
	rows starRows
	// t is the decode scratch of one value.
	t codec.Tuple
}

func (r *starReducer) Reduce(key string, values [][]byte, emit mapred.Emit) error {
	x := &r.rows
	for i := range x.matches {
		x.matches[i].reset()
	}
	for _, v := range values {
		if len(v) < 1 {
			return errUntagged
		}
		tag := v[0]
		if int(tag) >= len(x.plans) {
			return badTag(tag)
		}
		p := x.plans[tag]
		t, err := codec.AppendDecodeIDTuple(r.t[:0], v[1:], p.scan.dict)
		if err != nil {
			return err
		}
		r.t = t
		m := &x.matches[tag]
		m.order = append(m.order, m.push(t, p.stored))
	}
	for i, p := range x.plans {
		if !p.optional && len(x.matches[i].order) == 0 {
			return nil
		}
	}
	x.begin(key)
	x.emit(0, emit)
	return nil
}

// starMapJoinMapper streams the driving input (plans[0]) against indexes
// of the broadcast inputs, built once per task.
type starMapJoinMapper struct {
	sc    scanner
	sides []*sideIndex
	rows  starRows
	// err is the first side index's decode failure.
	err error
}

// newStarMapJoinMapper builds a task's mapper; side returns the open
// snapshot of a broadcast input (TaskContext.SideInput). Input i+1's
// matches are windows of side index i's order over its rows.
func newStarMapJoinMapper(plans []*starPlan, side func(file string) *dfs.File) *starMapJoinMapper {
	m := &starMapJoinMapper{sc: scanner{plan: plans[0].scan}, rows: newStarRows(plans)}
	m.sides = make([]*sideIndex, len(plans)-1)
	for i, p := range plans[1:] {
		s := buildSideIndex(side(p.scan.file), p.scan, p.keyPos, p.stored)
		m.sides[i] = s
		m.rows.matches[i+1] = rowSet{data: s.data, off: s.off}
		m.err = cmp.Or(m.err, s.err)
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
	x := &m.rows
	key := row[x.plans[0].keyPos]
	for i, side := range m.sides {
		ms := side.lookup(key)
		if len(ms) == 0 && !x.plans[i+1].optional {
			return nil
		}
		x.matches[i+1].order = ms
	}
	// The driving row is input 0's one match: its kept fields join the
	// prefix.
	x.begin(key)
	for _, p := range x.plans[0].kept {
		x.buf = append(x.buf, row[p]...)
	}
	x.emit(1, emit)
	return nil
}

// Close fails a task whose split held no record on a corrupt side input.
func (m *starMapJoinMapper) Close(mapred.Emit) error { return m.err }
