package engine

import (
	"fmt"
	"unsafe"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
)

// The final phase of every engine's workflow joins the per-subquery
// aggregated results on their shared grouping columns and evaluates the
// outer projection. Aggregated results are small (one row per group), so
// all engines execute this as a single map-only cycle with the non-driving
// inputs broadcast — Hive's map-join, and the paper's "map-only phase to
// join the aggregated TG equivalence classes".

// FinalJoinJob builds the map-only join job over the subqueries' rows in
// either layout (defaults.go). With a file per subquery, file 0 drives and
// the others are broadcast; the one tagged file is both the driving input
// (its subquery-0 rows) and the broadcast side (the others).
func FinalJoinJob(aq *algebra.AnalyticalQuery, inputs []string, output string) *mapred.Job {
	isTagged := tagged(aq, inputs)
	keyCols := map[string]bool{} // the grouping variables' columns hold term keys
	for _, sq := range aq.Subqueries {
		for _, v := range sq.GroupBy {
			keyCols[v] = true
		}
	}
	sideInputs := inputs[1:]
	if isTagged {
		sideInputs = inputs
	}
	return &mapred.Job{
		Name:        "final-join",
		Inputs:      inputs[:1],
		SideInputs:  sideInputs,
		Output:      output,
		MapOperator: "final-join",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return newFinalJoinMapper(aq, tc, inputs, isTagged, keyCols)
		},
	}
}

type finalJoinMapper struct {
	aq     *algebra.AnalyticalQuery
	tc     *mapred.TaskContext // holds the broadcast side inputs
	inputs []string            // the files of FinalJoinJob, the driving one first
	tagged bool                // driving rows carry a subquery tag

	// cols[i] and joinCols[i] are subquery i's output columns and the
	// columns it joins on, resolved once per task; keyCols are the columns
	// that hold term keys, shared by the job's tasks.
	cols, joinCols [][]string
	keyCols        map[string]bool
	indexes        []sideIndex // lazy hash indexes per side

	// Scratch reused across records: the decoded record, the partial row,
	// the join key, the columns each recursion depth added, the projected
	// row and its encoding.
	rec   codec.Tuple
	row   map[string]string
	key   []byte
	keys  []byte // the broadcast sides' distinct keys, back to back
	added [][]string
	out   codec.Tuple
	buf   []byte
}

func newFinalJoinMapper(aq *algebra.AnalyticalQuery, tc *mapred.TaskContext, inputs []string, isTagged bool, keyCols map[string]bool) *finalJoinMapper {
	n := len(aq.Subqueries)
	m := &finalJoinMapper{
		aq: aq, tc: tc, inputs: inputs, tagged: isTagged,
		cols: make([][]string, n), joinCols: make([][]string, n),
		keyCols: keyCols, row: map[string]string{}, added: make([][]string, n),
		out: make(codec.Tuple, len(aq.Projection)),
	}
	for i, sq := range aq.Subqueries {
		m.cols[i] = sq.OutputColumns()
		m.joinCols[i] = aq.JoinColumns(i)
	}
	return m
}

func (m *finalJoinMapper) Map(rec []byte, emit mapred.Emit) error {
	if m.indexes == nil {
		if err := m.buildIndexes(); err != nil {
			return err
		}
	}
	var err error
	if m.rec, err = codec.AppendDecodeTuple(m.rec[:0], rec); err != nil {
		return fmt.Errorf("engine: reading %s: %w", m.inputs[0], err)
	}
	id, t, ok := rowSubquery(m.rec, 0, m.tagged)
	if !ok {
		return fmt.Errorf("engine: aggregate row without a subquery tag")
	}
	if id != 0 {
		return nil // non-driving rows arrive via the side input
	}
	cols := m.cols[0]
	if len(t) != len(cols) {
		return fmt.Errorf("engine: subquery 0 row has %d fields, want %d", len(t), len(cols))
	}
	clear(m.row)
	for i, c := range cols {
		m.row[c] = t[i]
	}
	m.extend(1, emit)
	return nil
}

// buildIndexes decodes the broadcast sides and hashes every side on its
// join columns. Each side's fields decode into one flat slice its rows are
// cut from. A side record that does not decode, whose subquery tag is not
// one of the query's, or whose width is not its subquery's, is an error
// naming its file.
func (m *finalJoinMapper) buildIndexes() error {
	n := len(m.aq.Subqueries)
	fields := make([]codec.Tuple, n-1) // per side: its rows' fields
	ends := make([][]int, n-1)         // per side: where each row ends
	for fi, name := range m.inputs {
		if fi == 0 && !m.tagged {
			continue // the driving input
		}
		f := m.tc.SideInput(name)
		if !m.tagged && fi < n { // the file holds subquery fi's rows alone
			fields[fi-1] = make(codec.Tuple, 0, f.NumRecords()*len(m.cols[fi]))
			ends[fi-1] = make([]int, 0, f.NumRecords())
		}
		it := f.Records(0)
		for it.Next() {
			var err error
			if m.rec, err = codec.AppendDecodeTuple(m.rec[:0], it.Record()); err != nil {
				return fmt.Errorf("engine: reading side input %s: %w", name, err)
			}
			id, row, ok := rowSubquery(m.rec, fi, m.tagged)
			if !ok || id < 0 || id >= n {
				return fmt.Errorf("engine: side input %s holds a row with a bad subquery tag", name)
			}
			if id == 0 {
				continue // a driving row of the tagged file
			}
			if len(row) != len(m.cols[id]) {
				return fmt.Errorf("engine: side input %s holds a subquery %d row of %d fields, want %d", name, id, len(row), len(m.cols[id]))
			}
			fields[id-1] = append(fields[id-1], row...)
			ends[id-1] = append(ends[id-1], len(fields[id-1]))
		}
		if err := it.Err(); err != nil {
			return fmt.Errorf("engine: reading side input %s: %w", name, err)
		}
	}
	m.indexes = make([]sideIndex, n-1)
	for i := range m.indexes {
		m.indexes[i] = m.indexSide(fields[i], ends[i], columnPositions(m.cols[i+1], m.joinCols[i+1]))
	}
	return nil
}

// sideIndex hashes one broadcast side's rows on their join key. Row i is
// fields[ends[i-1]:ends[i]]; a key's rows are chained in record order
// from its group's head through next, so the index allocates per side and
// per growth, not per key or row.
type sideIndex struct {
	fields codec.Tuple
	ends   []int
	group  map[string]int32 // a key's group
	heads  []int32          // a group's first row
	next   []int32          // the row after row i in its key's group, or -1
}

// row returns row i.
func (x *sideIndex) row(i int32) codec.Tuple {
	start := 0
	if i > 0 {
		start = x.ends[i-1]
	}
	end := x.ends[i]
	return x.fields[start:end:end]
}

// first returns the first row of key's group, or -1 when no row holds key.
func (x *sideIndex) first(key []byte) int32 {
	if g, ok := x.group[string(key)]; ok {
		return x.heads[g]
	}
	return -1
}

// indexSide indexes the rows of one side on the join columns at pos,
// walking them backwards so that each row goes in front of its group's
// chain. A key is built in m.key, in the form extend probes with; each
// distinct key is copied into m.keys, whose bytes never change, and the
// index keeps it as a view.
func (m *finalJoinMapper) indexSide(fields codec.Tuple, ends []int, pos []int) sideIndex {
	x := sideIndex{fields: fields, ends: ends, group: map[string]int32{}, next: make([]int32, len(ends))}
	for i := int32(len(ends)) - 1; i >= 0; i-- {
		r := x.row(i)
		m.key = m.key[:0]
		for k, p := range pos {
			if k > 0 {
				m.key = append(m.key, 0x1f)
			}
			if p >= 0 {
				m.key = append(m.key, r[p]...)
			}
		}
		g, ok := x.group[string(m.key)]
		if !ok {
			start := len(m.keys)
			m.keys = append(m.keys, m.key...)
			g = int32(len(x.heads))
			x.group[unsafe.String(unsafe.SliceData(m.keys[start:]), len(m.key))] = g
			x.heads = append(x.heads, -1)
		}
		x.next[i] = x.heads[g]
		x.heads[g] = i
	}
	return x
}

// extend joins the partial row with subquery i's rows and recurses;
// at the end it evaluates the outer projection.
func (m *finalJoinMapper) extend(i int, emit mapred.Emit) {
	if i == len(m.aq.Subqueries) {
		m.project(emit)
		return
	}
	m.key = m.key[:0]
	for k, c := range m.joinCols[i] {
		if k > 0 {
			m.key = append(m.key, 0x1f)
		}
		m.key = append(m.key, m.row[c]...)
	}
	cols := m.cols[i]
	idx := &m.indexes[i-1]
	for j := idx.first(m.key); j >= 0; j = idx.next[j] {
		r := idx.row(j)
		added := m.added[i][:0]
		ok := true
		for j, c := range cols {
			if prev, exists := m.row[c]; exists {
				if prev != r[j] {
					ok = false
					break
				}
				continue
			}
			m.row[c] = r[j]
			added = append(added, c)
		}
		m.added[i] = added
		if ok {
			m.extend(i+1, emit)
		}
		for _, c := range added {
			delete(m.row, c)
		}
	}
}

func (m *finalJoinMapper) project(emit mapred.Emit) {
	for i, pi := range m.aq.Projection {
		if pi.Expr != nil {
			v, err := algebra.EvalExpr(pi.Expr, m.row, m.keyCols)
			if err != nil {
				m.out[i] = algebra.Null
				continue
			}
			m.out[i] = algebra.FormatNumber(v)
			continue
		}
		v, ok := m.row[pi.Var]
		if !ok {
			v = algebra.Null
		}
		m.out[i] = v
	}
	m.buf = m.out.AppendEncode(m.buf[:0])
	emit("", m.buf)
}

func columnPositions(cols, want []string) []int {
	pos := make([]int, len(want))
	for i, w := range want {
		pos[i] = -1
		for j, c := range cols {
			if c == w {
				pos[i] = j
				break
			}
		}
	}
	return pos
}
