package hive

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// Once a task's scratch is warm, every per-record operator allocates
// nothing: the aggregation and distinct mappers emit their keys as views of
// their scratch.
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
	// An optional star input that matches nothing: its side holds Ib only.
	other := &rel{file: "o", cols: []string{"k", "u"}, dict: d}
	sides := map[string][][]byte{"r": side, "o": {idRow(d, codec.Tuple{"Ib", "Lz"}).EncodeIDs()}}
	stars := compileStars([]*starInput{{rel: left, keyCol: "k"}, {rel: right, keyCol: "k"}, {rel: other, keyCol: "k", optional: true}}, 0, nil)
	starVals := [][]byte{tag(0, "Ia", "L1", "L7"), tag(1, "Ia", "Lx"), tag(1, "Ia", "Ly")}
	// A binary join is the two-input star join: reduce-side over [right,
	// left], map-side driving on left.
	joins := compileStars([]*starInput{{rel: right, keyCol: "k"}, {rel: left, keyCol: "k"}}, 0, nil)
	joinVals := [][]byte{tag(1, "Ia", "L1", "L7"), tag(0, "Ia", "Lx"), tag(1, "Ia", "L2", "L7")}
	mapJoin := compileStars([]*starInput{{rel: left, keyCol: "k"}, {rel: right, keyCol: "k"}}, 0, nil)
	sideOf := func(file string) *dfs.File { return sideFile(t, sides[file]) }

	emits := 0
	emit := func(string, []byte) { emits++ }
	mapper := func(m mapred.Mapper) func() error { return func() error { return m.Map(rec, emit) } }
	reducer := func(r mapred.Reducer, values [][]byte) func() error {
		return func() error { return r.Reduce(key, values, emit) }
	}
	for _, c := range []struct {
		name  string
		bound float64
		run   func() error
	}{
		{"taggedScanMapper.Map", 0, mapper(&taggedScanMapper{plans: stars, tags: []int{0}})},
		{"taggedScanMapper.Map, one file read by two inputs", 0, mapper(&taggedScanMapper{plans: joins, tags: []int{0, 1}})},
		{"starMapJoinMapper.Map", 0, mapper(newStarMapJoinMapper(stars, sideOf))},
		{"starMapJoinMapper.Map, two inputs", 0, mapper(newStarMapJoinMapper(mapJoin, sideOf))},
		{"starReducer.Reduce", 0, reducer(&starReducer{rows: newStarRows(stars)}, starVals)},
		{"starReducer.Reduce, two inputs", 0, reducer(&starReducer{rows: newStarRows(joins)}, joinVals)},
		{"partialAggMapper.Map", 0, mapper(&partialAggMapper{sc: scanner{plan: left.compile()}, groupPos: []int{1}, aggPos: []int{2},
			st: algebra.NewMultiAggState([]algebra.AggSpec{{Func: sparql.Sum, Var: "n"}})})},
		{"projectMapper.Map", 0, mapper(&projectMapper{sc: scanner{plan: left.compile()}, pos: []int{0, 1}})},
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

// A side index keeps each row as the bytes of the columns its join emits:
// for a 2-column side of 10k rows, one emitted column of two-byte term IDs,
// building it allocates well under the 16 B string header per field and
// 24 B tuple header per row that a decoded-tuple index would spend.
func TestSideIndexBytesPerRow(t *testing.T) {
	d := rdf.NewDict()
	for i := range 200 {
		d.Add(fmt.Sprintf("Lpad%d", i))
	}
	const n = 10000
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = idRow(d, codec.Tuple{fmt.Sprintf("Ik%d", i%2000), fmt.Sprintf("Lv%d", i%500)}).EncodeIDs()
	}
	f := sideFile(t, recs)
	p := (&rel{file: "side", cols: []string{"k", "w"}, dict: d}).compile()
	perRow := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x := buildSideIndex(f, p, 0, []int{1})
		runtime.ReadMemStats(&after)
		if len(x.order) != n {
			t.Fatalf("index holds %d rows, want %d", len(x.order), n)
		}
		perRow = min(perRow, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	t.Logf("%.1f B allocated per row", perRow)
	if perRow > 48 {
		t.Errorf("buildSideIndex allocates %.1f B per row, want at most 48", perRow)
	}
}
