package hive

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// The per-record logic before scan plans were compiled, kept as the
// equivalence reference: scanRef resolves the rel's columns, constants and
// filters by name on every tuple, mergeJoinRowRef looks the join's columns
// up by name on every row, and starRowsRef expands a subject's star rows by
// materialising each input's cross product in turn.

func (r *rel) outColsRef() []string {
	var out []string
	for _, c := range r.cols {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

func (r *rel) scanRef(raw codec.Tuple) (codec.Tuple, bool) {
	if len(raw) != len(r.cols) {
		return nil, false
	}
	for _, c := range r.consts {
		if raw[c.pos] != c.want {
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
				ok, err := algebra.EvalFilter(f, lexOf(r.dict, raw[i]))
				if err != nil || !ok {
					return nil, false
				}
			}
		}
		out = append(out, raw[i])
	}
	return out, true
}

func mergeJoinRowRef(left, right *rel, leftCol, rightCol string, keep map[string]bool, l, r codec.Tuple) codec.Tuple {
	out := codec.Tuple{l[slices.Index(left.outColsRef(), leftCol)]}
	for i, c := range left.outColsRef() {
		if c != leftCol && (keep == nil || keep[c]) {
			out = append(out, l[i])
		}
	}
	for i, c := range right.outColsRef() {
		if c != rightCol && (keep == nil || keep[c]) {
			out = append(out, r[i])
		}
	}
	return out
}

func keptPositionsRef(si *starInput, keep map[string]bool) []int {
	var out []int
	for i, c := range si.rel.outColsRef() {
		if c != si.keyCol && (keep == nil || keep[c]) {
			out = append(out, i)
		}
	}
	return out
}

func starRowsRef(key string, inputs []*starInput, keep map[string]bool, perInput [][]codec.Tuple) []codec.Tuple {
	rows := []codec.Tuple{{key}}
	for i, si := range inputs {
		keptPos := keptPositionsRef(si, keep)
		var next []codec.Tuple
		for _, r := range rows {
			if len(perInput[i]) == 0 { // optional, unmatched: NULL-extend
				ext := append(codec.Tuple{}, r...)
				for range keptPos {
					ext = append(ext, algebra.Null)
				}
				next = append(next, ext)
				continue
			}
			for _, m := range perInput[i] {
				ext := append(codec.Tuple{}, r...)
				for _, p := range keptPos {
					ext = append(ext, m[p])
				}
				next = append(next, ext)
			}
		}
		rows = next
	}
	return rows
}

// scanCorpus draws seeded random relations and raw tuples over one
// dictionary: column lists with dropped and repeated names, constant
// checks that hit and miss, filters on kept, dropped and unknown columns
// (several per column), and fields that are NULL, numeric or not.
type scanCorpus struct {
	rng  *rand.Rand
	d    *rdf.Dict
	vals []string // ID-strings, NULL included
}

func newScanCorpus(seed int64) *scanCorpus {
	c := &scanCorpus{rng: rand.New(rand.NewSource(seed)), d: rdf.NewDict(), vals: []string{algebra.Null}}
	for _, k := range []string{"L1", "L5", "L10", "L-2", "L7.5", "Lx", "Lfoo", "Ia", "Ib", "Ihttp://e/c"} {
		c.vals = append(c.vals, c.d.AddString(k))
	}
	return c
}

func (c *scanCorpus) value() string { return c.vals[c.rng.Intn(len(c.vals))] }

func (c *scanCorpus) filter(v string) sparql.Filter {
	switch c.rng.Intn(4) {
	case 0:
		return sparql.Filter{Kind: sparql.FilterCompare, Var: v, Op: []string{">", "<", "=", "!="}[c.rng.Intn(4)], Value: []string{"1", "5", "7.5"}[c.rng.Intn(3)], IsNumeric: true}
	case 1:
		return sparql.Filter{Kind: sparql.FilterCompare, Var: v, Op: []string{">=", "<="}[c.rng.Intn(2)], Value: "foo"}
	case 2:
		return sparql.Filter{Kind: sparql.FilterRegex, Var: v, Pattern: "^(f|1)"}
	default:
		return sparql.Filter{Kind: sparql.FilterCompare, Var: v, Op: "!=", Value: "x"}
	}
}

func (c *scanCorpus) rel() *rel {
	r := &rel{file: "f", dict: c.d, cols: make([]string, 1+c.rng.Intn(4))}
	for i := range r.cols {
		r.cols[i] = []string{"", "a", "b", "c", "a"}[c.rng.Intn(5)]
	}
	for range c.rng.Intn(3) {
		want := c.value()
		if c.rng.Intn(4) == 0 {
			want = rdf.MissingIDString
		}
		r.consts = append(r.consts, constCheck{pos: c.rng.Intn(len(r.cols)), want: want})
	}
	for range c.rng.Intn(4) {
		r.filters = append(r.filters, c.filter([]string{"a", "b", "c", "z"}[c.rng.Intn(4)]))
	}
	return r
}

func (c *scanCorpus) tuple(arity int) codec.Tuple {
	if c.rng.Intn(8) == 0 {
		arity = c.rng.Intn(5)
	}
	t := make(codec.Tuple, arity)
	for i := range t {
		t[i] = c.value()
	}
	return t
}

func TestCompiledScanAgreesWithReference(t *testing.T) {
	c := newScanCorpus(1)
	var seen struct{ arity, constHit, constMiss, droppedFilter, nulls, multiFilter, kept, dropped int }
	for range 400 {
		r := c.rel()
		p := r.compile()
		if strings.Join(p.cols, ",") != strings.Join(r.outColsRef(), ",") {
			t.Fatalf("cols %v, reference %v", p.cols, r.outColsRef())
		}
		named := map[string]int{}
		for _, col := range r.cols {
			named[col]++
		}
		perVar := map[string]int{}
		for _, f := range r.filters {
			perVar[f.Var]++
			if named[f.Var] == 0 {
				seen.droppedFilter++
			}
		}
		for v, n := range perVar {
			if n > 1 && named[v] > 0 {
				seen.multiFilter++
			}
		}
		sc := scanner{plan: p}
		// A dirty scratch row: project must append after dst's length.
		dirty := codec.Tuple{"stale", "stale"}
		for range 50 {
			raw := c.tuple(len(r.cols))
			if len(raw) != len(r.cols) {
				seen.arity++
			} else if len(r.consts) > 0 {
				hit := true
				for _, k := range r.consts {
					hit = hit && raw[k.pos] == k.want
				}
				if hit {
					seen.constHit++
				} else {
					seen.constMiss++
				}
			}
			if slices.Contains(raw, algebra.Null) {
				seen.nulls++
			}
			want, wantOK := r.scanRef(raw)
			got, ok := p.project(dirty, raw)
			if ok != wantOK {
				t.Fatalf("rel %+v on %q: keep = %v, reference %v", r, raw, ok, wantOK)
			}
			if !ok {
				seen.dropped++
				if len(got) != len(dirty) {
					t.Fatalf("dropped tuple extended dst to %q", got)
				}
				continue
			}
			seen.kept++
			if !slices.Equal(got[:len(dirty)], dirty) || !slices.Equal(got[len(dirty):], want) {
				t.Fatalf("rel %+v on %q: projected %q, reference %q", r, raw, got, want)
			}
			row, ok, err := sc.next(raw.EncodeIDs())
			if err != nil || !ok || !slices.Equal(row, want) {
				t.Fatalf("scanner on %q: %q, %v, %v; reference %q", raw, row, ok, err, want)
			}
		}
	}
	t.Logf("coverage: %+v", seen)
	for name, n := range map[string]int{
		"arity mismatch": seen.arity, "constant hit": seen.constHit, "constant miss": seen.constMiss,
		"filter on a dropped column": seen.droppedFilter, "NULL field": seen.nulls,
		"several filters on one column": seen.multiFilter, "kept": seen.kept, "dropped": seen.dropped,
	} {
		if n == 0 {
			t.Errorf("corpus never exercised %s", name)
		}
	}
}

func TestJoinPlanAgreesWithMergeJoinRow(t *testing.T) {
	c := newScanCorpus(2)
	for range 300 {
		left, right := c.rel(), c.rel()
		left.filters, right.filters, left.consts, right.consts = nil, nil, nil, nil
		lc, rc := left.outColsRef(), right.outColsRef()
		if len(lc) == 0 || len(rc) == 0 {
			continue
		}
		leftCol, rightCol := lc[c.rng.Intn(len(lc))], rc[c.rng.Intn(len(rc))]
		var keep map[string]bool
		if c.rng.Intn(2) == 0 {
			keep = map[string]bool{"a": c.rng.Intn(2) == 0, "b": true, "c": c.rng.Intn(2) == 0}
		}
		jp := compileJoin(left, right, leftCol, rightCol, keep)
		l, r := c.tuple(len(lc)), c.tuple(len(rc))
		if len(l) != len(lc) || len(r) != len(rc) {
			continue
		}
		want := mergeJoinRowRef(left, right, leftCol, rightCol, keep, l, r)
		if got := jp.appendRow(nil, l, r); !slices.Equal(got, want) {
			t.Fatalf("join %v⋈%v on %s=%s keep %v: %q, reference %q", left.cols, right.cols, leftCol, rightCol, keep, got, want)
		}
		if len(jp.cols) != len(want) {
			t.Fatalf("schema %v has %d columns, rows %d", jp.cols, len(jp.cols), len(want))
		}
	}
}

func TestStarRowsAgreeWithReference(t *testing.T) {
	c := newScanCorpus(3)
	for range 300 {
		var inputs []*starInput
		for i := range 1 + c.rng.Intn(3) {
			cols := []string{"s"}
			for j := range c.rng.Intn(3) {
				cols = append(cols, fmt.Sprintf("v%d_%d", i, j))
			}
			inputs = append(inputs, &starInput{rel: &rel{cols: cols, dict: c.d}, keyCol: "s", optional: i > 0 && c.rng.Intn(2) == 0})
		}
		var keep map[string]bool
		if c.rng.Intn(2) == 0 {
			keep = map[string]bool{"v0_0": true, "v1_1": true, "v2_0": true}
		}
		perInput := make([][]codec.Tuple, len(inputs))
		for i, si := range inputs {
			n := c.rng.Intn(3)
			if !si.optional && n == 0 {
				n = 1
			}
			for range n {
				m := make(codec.Tuple, len(si.rel.cols))
				for k := range m {
					m[k] = c.value()
				}
				perInput[i] = append(perInput[i], m)
			}
		}
		want := starRowsRef("Kkey", inputs, keep, perInput)
		x := newStarRows(compileStars(inputs, keep))
		copy(x.matches, perInput)
		var got [][]byte
		x.emit("Kkey", func(_ string, v []byte) { got = append(got, bytes.Clone(v)) })
		if len(got) != len(want) {
			t.Fatalf("%d rows, reference %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i].EncodeIDs()) {
				t.Fatalf("row %d: %x, reference %q", i, got[i], want[i])
			}
		}
	}
}

// emitted is a mapred.Emit that copies what it is given, as the framework
// does.
type emitted struct{ keys, values []string }

func (e *emitted) emit(key string, value []byte) {
	e.keys = append(e.keys, key)
	e.values = append(e.values, string(value))
}

// tagged encodes row after the input tag byte, as taggedScanMapper does.
func tagged(tag byte, row codec.Tuple) []byte {
	return row.AppendEncodeIDs([]byte{tag})
}

// A row a scanner returns for record n is scratch that record n+1
// overwrites; every emit built from it must already be independent.
func TestScanScratchDoesNotLeakAcrossRecords(t *testing.T) {
	d := rdf.NewDict()
	recs := [][]byte{
		idRow(d, codec.Tuple{"Ia", "L1", "Lp"}).EncodeIDs(),
		idRow(d, codec.Tuple{"Ib", "L2", "Lq"}).EncodeIDs(),
		idRow(d, codec.Tuple{"Ia", "L3", "Lr"}).EncodeIDs(),
	}
	side := [][]byte{
		idRow(d, codec.Tuple{"Ia", "Lx"}).EncodeIDs(),
		idRow(d, codec.Tuple{"Ib", "Ly"}).EncodeIDs(),
		idRow(d, codec.Tuple{"Ia", "Lz"}).EncodeIDs(),
	}
	left := &rel{file: "l", cols: []string{"k", "v", ""}, dict: d}
	right := &rel{file: "r", cols: []string{"k", "w"}, dict: d}

	// Reference rows, built per record with the old per-record logic.
	var wantJoin, wantStar, wantTagged []string
	for _, rec := range recs {
		raw, _ := codec.DecodeIDTuple(rec, d)
		l, _ := left.scanRef(raw)
		wantTagged = append(wantTagged, string(tagged(0, l)))
		var ms []codec.Tuple
		for _, srec := range side {
			sraw, _ := codec.DecodeIDTuple(srec, d)
			if r, _ := right.scanRef(sraw); r[0] == l[0] {
				ms = append(ms, r)
				wantJoin = append(wantJoin, string(mergeJoinRowRef(left, right, "k", "k", nil, l, r).EncodeIDs()))
			}
		}
		star := []*starInput{{rel: left, keyCol: "k"}, {rel: right, keyCol: "k"}}
		for _, row := range starRowsRef(l[0], star, nil, [][]codec.Tuple{{l}, ms}) {
			wantStar = append(wantStar, string(row.EncodeIDs()))
		}
	}

	jp := compileJoin(left, right, "k", "k", nil)
	mj := &mapJoinMapper{sc: scanner{plan: jp.left}, plan: jp, right: buildSideIndex(side, jp.right, jp.rightKey)}
	plans := compileStars([]*starInput{{rel: left, keyCol: "k"}, {rel: right, keyCol: "k"}}, nil)
	smj := newStarMapJoinMapper(plans, func(string) [][]byte { return side })
	tm := &taggedScanMapper{sc: scanner{plan: jp.left}, keyPos: jp.leftKey}
	for _, tc := range []struct {
		name string
		m    mapred.Mapper
		want []string
	}{
		{"map-join", mj, wantJoin},
		{"star-map-join", smj, wantStar},
		{"vp-scan", tm, wantTagged},
	} {
		var out emitted
		for _, rec := range recs {
			if err := tc.m.Map(rec, out.emit); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(out.values, tc.want) {
			t.Errorf("%s emitted %q, want %q", tc.name, out.values, tc.want)
		}
	}

	// The contract itself: the next record reuses the returned row.
	sc := scanner{plan: left.compile()}
	first, _, _ := sc.next(recs[0])
	kept := slices.Clone(first)
	second, _, _ := sc.next(recs[1])
	if &first[0] != &second[0] || slices.Equal(first, kept) {
		t.Errorf("scanner did not reuse its scratch: %q then %q", kept, second)
	}
}

// Reducers reuse one encode buffer: mapred copies each reduce emit before
// it returns, so a copy taken at emit time must equal the reference.
func TestReducersEncodeThroughReusedBuffer(t *testing.T) {
	d := rdf.NewDict()
	l := func(f ...string) []byte { return tagged(0, idRow(d, f)) }
	r := func(f ...string) []byte { return tagged(1, idRow(d, f)) }
	left := &rel{cols: []string{"k", "v"}, dict: d}
	right := &rel{cols: []string{"w", "k"}, dict: d}
	red := &symJoinReducer{plan: compileJoin(left, right, "k", "k", nil)}
	var out emitted
	copyEmit := func(k string, v []byte) { out.emit(k, v) }
	key := idRow(d, codec.Tuple{"Ia"})[0]
	if err := red.Reduce(key, [][]byte{l("Ia", "L1"), r("Ix", "Ia"), l("Ia", "L2"), r("Iy", "Ia")}, copyEmit); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range out.values {
		tu, err := codec.DecodeIDTuple([]byte(v), d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tu {
			tu[i] = lexOf(d, tu[i])
		}
		got = append(got, strings.Join(tu, "|"))
	}
	want := []string{"Ia|L1|Ix", "Ia|L2|Ix", "Ia|L1|Iy", "Ia|L2|Iy"}
	if !slices.Equal(got, want) {
		t.Errorf("symmetric join rows %q, want %q", got, want)
	}
}

func TestSteadyStateScanAllocatesNothing(t *testing.T) {
	d := rdf.NewDict()
	// Term IDs from 128 up take two uvarint bytes. The runtime converts a
	// one-byte slice to a string without allocating, which would hide a
	// per-field copy on the decode path.
	for i := range 200 {
		d.Add(fmt.Sprintf("Lpad%d", i))
	}
	r := &rel{
		cols:    []string{"s", "", "o"},
		consts:  []constCheck{{pos: 1, want: d.AddString("LX")}},
		filters: []sparql.Filter{{Kind: sparql.FilterCompare, Var: "o", Op: ">", Value: "5", IsNumeric: true}},
		dict:    d,
	}
	kept := idRow(d, codec.Tuple{"Is1", "LX", "L10"}).EncodeIDs()
	dropped := idRow(d, codec.Tuple{"Is1", "LX", "L3"}).EncodeIDs()
	sc := scanner{plan: r.compile()}
	if _, ok, err := sc.next(kept); !ok || err != nil {
		t.Fatalf("warm-up scan: %v, %v", ok, err)
	}
	for name, rec := range map[string][]byte{"kept": kept, "dropped": dropped} {
		if n := testing.AllocsPerRun(200, func() {
			if _, _, err := sc.next(rec); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("steady-state scan of a %s record allocates %v times", name, n)
		}
	}
}

// sideIndexRef is a broadcast side as a map from key to the rows the
// reference scan keeps, each key's rows in record order.
func sideIndexRef(recs [][]byte, r *rel, keyCol string) map[string][]codec.Tuple {
	key := slices.Index(r.outColsRef(), keyCol)
	out := map[string][]codec.Tuple{}
	for _, rec := range recs {
		raw, err := codec.DecodeIDTuple(rec, r.dict)
		if err != nil {
			continue
		}
		if row, ok := r.scanRef(raw); ok {
			out[row[key]] = append(out[row[key]], row)
		}
	}
	return out
}

// buildSideIndex must answer every lookup with the reference map's rows,
// row by row, over random sides: records of the wrong arity, failing a
// constant or a filter, or not decodable at all, duplicate keys, keys
// absent from the side, and empty sides. Each row is capacity-clipped, so
// appending to it cannot overwrite the next.
func TestSideIndexAgreesWithReference(t *testing.T) {
	c := newScanCorpus(4)
	var seen struct{ sides, empty, dropped, undecodable, duplicate, absent int }
	for range 400 {
		r := c.rel()
		cols := r.outColsRef()
		if len(cols) == 0 {
			continue
		}
		keyCol := cols[c.rng.Intn(len(cols))]
		p := r.compile()
		var recs [][]byte
		for range c.rng.Intn(40) {
			rec := c.tuple(len(r.cols)).EncodeIDs()
			if c.rng.Intn(12) == 0 {
				rec = append(rec, 0) // a trailing byte: undecodable
				seen.undecodable++
			}
			recs = append(recs, rec)
		}
		want := sideIndexRef(recs, r, keyCol)
		x := buildSideIndex(recs, p, p.colIndex(keyCol))
		seen.sides++
		if len(recs) == 0 {
			seen.empty++
		}
		kept := 0
		for _, k := range append([]string{rdf.MissingIDString}, c.vals...) {
			got, w := x.lookup(k), want[k]
			kept += len(w)
			switch {
			case len(w) == 0:
				seen.absent++
			case len(w) > 1:
				seen.duplicate++
			}
			if len(got) != len(w) {
				t.Fatalf("rel %+v key %q: %d rows, reference %d", r, k, len(got), len(w))
			}
			for i := range got {
				if !slices.Equal(got[i], w[i]) || cap(got[i]) != len(got[i]) {
					t.Fatalf("rel %+v key %q row %d: %q (cap %d), reference %q", r, k, i, got[i], cap(got[i]), w[i])
				}
			}
		}
		if kept < len(recs) {
			seen.dropped++
		}
	}
	t.Logf("coverage: %+v", seen)
	for name, n := range map[string]int{
		"empty side": seen.empty, "dropped record": seen.dropped, "undecodable record": seen.undecodable,
		"duplicate key": seen.duplicate, "absent key": seen.absent,
	} {
		if n == 0 {
			t.Errorf("corpus never exercised %s", name)
		}
	}
}
