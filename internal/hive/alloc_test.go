package hive

import (
	"fmt"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// Once a task's scratch is warm, every per-record operator allocates
// nothing, except the one key string per row that mapred.Emit's string key
// costs the aggregation and distinct mappers.
func TestOperatorsSteadyStateAllocs(t *testing.T) {
	d := rdf.NewDict()
	// Term IDs from 128 up take two uvarint bytes. The runtime converts a
	// one-byte slice to a string without allocating, which would hide a
	// per-row copy.
	for i := range 200 {
		d.Add(fmt.Sprintf("Lpad%d", i))
	}
	rec := idRow(d, codec.Tuple{"Ia", "L1", "L7"}).EncodeIDs()
	side := [][]byte{idRow(d, codec.Tuple{"Ia", "Lx"}).EncodeIDs(), idRow(d, codec.Tuple{"Ia", "Ly"}).EncodeIDs()}
	tag := func(tag byte, f ...string) []byte { return tagged(tag, idRow(d, f)) }
	key := idRow(d, codec.Tuple{"Ia"})[0]

	left := &rel{file: "l", cols: []string{"k", "v", "n"}, dict: d}
	right := &rel{file: "r", cols: []string{"k", "w"}, dict: d}
	jp := compileJoin(left, right, "k", "k", nil)
	stars := compileStars([]*starInput{{rel: left, keyCol: "k"}, {rel: right, keyCol: "k"}, {rel: right, keyCol: "k", optional: true}}, nil)
	starVals := [][]byte{tag(0, "Ia", "L1", "L7"), tag(1, "Ia", "Lx"), tag(1, "Ia", "Ly")}
	joinVals := [][]byte{tag(0, "Ia", "L1", "L7"), tag(1, "Ia", "Lx"), tag(0, "Ia", "L2", "L7")}

	emits := 0
	emit := func(string, []byte) { emits++ }
	mapper := func(m mapred.Mapper) func() error { return func() error { return m.Map(rec, emit) } }
	reducer := func(r mapred.Reducer, values [][]byte) func() error {
		return func() error { return r.Reduce(key, values, emit) }
	}
	var arena tupleArena
	for _, c := range []struct {
		name  string
		bound float64
		run   func() error
	}{
		{"tupleArena.decode", 0, func() error {
			arena.reset()
			_, err := arena.decode(rec, d)
			emits++
			return err
		}},
		{"taggedScanMapper.Map", 0, mapper(&taggedScanMapper{sc: scanner{plan: jp.left}, keyPos: jp.leftKey})},
		{"mapJoinMapper.Map", 0, mapper(&mapJoinMapper{sc: scanner{plan: jp.left}, plan: jp, right: buildSideIndex(side, jp.right, jp.rightKey)})},
		{"starMapJoinMapper.Map", 0, mapper(newStarMapJoinMapper(stars, func(string) [][]byte { return side }))},
		{"starReducer.Reduce", 0, reducer(&starReducer{rows: newStarRows(stars)}, starVals)},
		{"symJoinReducer.Reduce", 0, reducer(&symJoinReducer{plan: jp}, joinVals)},
		// Emit takes its key as a string: one per row.
		{"partialAggMapper.Map", 1, mapper(&partialAggMapper{sc: scanner{plan: left.compile()}, groupPos: []int{1}, aggPos: []int{2},
			st: algebra.NewMultiAggState([]algebra.AggSpec{{Func: sparql.Sum, Var: "n"}})})},
		{"projectMapper.Map", 1, mapper(&projectMapper{sc: scanner{plan: left.compile()}, pos: []int{0, 1}})},
	} {
		emits = 0
		if err := c.run(); err != nil || emits == 0 {
			t.Fatalf("%s warm-up: %d emits, %v", c.name, emits, err)
		}
		if n := testing.AllocsPerRun(100, func() { c.run() }); n > c.bound {
			t.Errorf("%s allocates %v times per call, want at most %v", c.name, n, c.bound)
		}
	}
}
