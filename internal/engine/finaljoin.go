package engine

import (
	"fmt"

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
			n := len(aq.Subqueries)
			sides := make([][]codec.Tuple, n-1)
			for fi, name := range inputs {
				if fi == 0 && !isTagged {
					continue // the driving input
				}
				for _, rec := range tc.SideInput(name) {
					t, err := codec.DecodeTuple(rec)
					if err != nil {
						continue
					}
					if id, row, ok := rowSubquery(t, fi, isTagged); ok && id > 0 && id < n {
						sides[id-1] = append(sides[id-1], row)
					}
				}
			}
			return newFinalJoinMapper(aq, sides, isTagged)
		},
	}
}

type finalJoinMapper struct {
	aq     *algebra.AnalyticalQuery
	sides  [][]codec.Tuple // rows of subqueries 1..n-1
	tagged bool            // driving rows carry a subquery tag

	// cols[i] and joinCols[i] are subquery i's output columns and the
	// columns it joins on, resolved once per task.
	cols, joinCols [][]string
	indexes        []map[string][]codec.Tuple // lazy hash indexes per side

	// Scratch reused across records: the partial row, the join key, the
	// columns each recursion depth added, the projected row and its
	// encoding.
	row   map[string]string
	key   []byte
	added [][]string
	out   codec.Tuple
	buf   []byte
}

func newFinalJoinMapper(aq *algebra.AnalyticalQuery, sides [][]codec.Tuple, isTagged bool) *finalJoinMapper {
	n := len(aq.Subqueries)
	m := &finalJoinMapper{
		aq: aq, sides: sides, tagged: isTagged,
		cols: make([][]string, n), joinCols: make([][]string, n),
		row: map[string]string{}, added: make([][]string, n),
		out: make(codec.Tuple, len(aq.Projection)),
	}
	for i, sq := range aq.Subqueries {
		m.cols[i] = sq.OutputColumns()
		m.joinCols[i] = aq.JoinColumns(i)
	}
	return m
}

func (m *finalJoinMapper) Map(rec []byte, emit mapred.Emit) error {
	t, err := codec.DecodeTuple(rec)
	if err != nil {
		return err
	}
	id, t, ok := rowSubquery(t, 0, m.tagged)
	if !ok {
		return fmt.Errorf("engine: aggregate row without a subquery tag")
	}
	if id != 0 {
		return nil // non-driving rows arrive via the side input
	}
	if m.indexes == nil {
		m.buildIndexes()
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

// buildIndexes hashes every side on its join columns.
func (m *finalJoinMapper) buildIndexes() {
	m.indexes = make([]map[string][]codec.Tuple, len(m.sides))
	for i, rows := range m.sides {
		idx := map[string][]codec.Tuple{}
		cols := m.cols[i+1]
		pos := columnPositions(cols, m.joinCols[i+1])
		for _, r := range rows {
			if len(r) != len(cols) {
				continue
			}
			m.key = m.key[:0]
			for k, p := range pos {
				if k > 0 {
					m.key = append(m.key, 0x1f)
				}
				if p >= 0 {
					m.key = append(m.key, r[p]...)
				}
			}
			idx[string(m.key)] = append(idx[string(m.key)], r)
		}
		m.indexes[i] = idx
	}
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
	for _, r := range m.indexes[i-1][string(m.key)] {
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
			v, err := algebra.EvalExpr(pi.Expr, m.row)
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
