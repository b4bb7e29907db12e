package hive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
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

// newScanCorpus draws from the NULL ID-string and ten terms, added to the
// dictionary after pad others: with pad ≥ 127 every term ID takes two
// uvarint bytes.
func newScanCorpus(seed int64, pad int) *scanCorpus {
	c := &scanCorpus{rng: rand.New(rand.NewSource(seed)), d: rdf.NewDict(), vals: []string{algebra.Null}}
	for i := range pad {
		c.d.Add(fmt.Sprintf("Lpad%d", i))
	}
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
	c := newScanCorpus(1, 0)
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
	c := newScanCorpus(2, 0)
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
	c := newScanCorpus(3, 0)
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
		x := newStarRows(compileStars(inputs, 0, keep))
		for i, p := range x.plans {
			x.matches[i] = rowSetOf(perInput[i], p.kept)
		}
		var got [][]byte
		x.begin("Kkey")
		x.emit(0, func(_ string, v []byte) { got = append(got, bytes.Clone(v)) })
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
	e.keys = append(e.keys, strings.Clone(key))
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

	plans := compileStars([]*starInput{{rel: left, keyCol: "k"}, {rel: right, keyCol: "k"}}, 0, nil)
	smj := newStarMapJoinMapper(plans, func(string) *dfs.File { return sideFile(t, side) })
	tm := &taggedScanMapper{plans: plans, tags: []int{0}}
	// left and right over one file: each record is scanned by both.
	selfJoin := compileStars([]*starInput{{rel: left, keyCol: "k"}, {rel: &rel{file: "l", cols: []string{"k", "", "w"}, dict: d}, keyCol: "k"}}, 0, nil)
	tm2 := &taggedScanMapper{plans: selfJoin, tags: []int{0, 1}}
	var wantTwice []string
	for _, rec := range recs {
		raw, _ := codec.DecodeIDTuple(rec, d)
		l, _ := left.scanRef(raw)
		w := codec.Tuple{raw[0], raw[2]}
		wantTwice = append(wantTwice, string(tagged(0, l)), string(tagged(1, w)))
	}
	if !slices.Equal(wantStar, wantJoin) {
		t.Fatalf("two-input star rows %q, binary join rows %q", wantStar, wantJoin)
	}
	for _, tc := range []struct {
		name string
		m    mapred.Mapper
		want []string
	}{
		{"star-map-join", smj, wantStar},
		{"vp-scan", tm, wantTagged},
		{"vp-scan of a file two inputs read", tm2, wantTwice},
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
// it returns, so a copy taken at emit time must equal the reference. The
// two-input star join over [right, left] emits the symmetric binary
// join's rows in its order, its columns permuted.
func TestReducersEncodeThroughReusedBuffer(t *testing.T) {
	d := rdf.NewDict()
	row := func(tag byte, f ...string) []byte { return tagged(tag, idRow(d, f)) }
	left := &rel{cols: []string{"k", "v"}, dict: d}
	right := &rel{cols: []string{"w", "k"}, dict: d}
	key := idRow(d, codec.Tuple{"Ia"})[0]
	lex := func(out emitted) []string {
		var rows []string
		for _, v := range out.values {
			tu, err := codec.DecodeIDTuple([]byte(v), d)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tu {
				tu[i] = lexOf(d, tu[i])
			}
			rows = append(rows, strings.Join(tu, "|"))
		}
		return rows
	}
	var ref, star emitted
	sym := &symJoinReducer{plan: compileJoin(left, right, "k", "k", nil)}
	// The shuffle hands the symmetric join every left value before every
	// right one.
	if err := sym.Reduce(key, [][]byte{row(0, "Ia", "L1"), row(0, "Ia", "L2"), row(1, "Ix", "Ia"), row(1, "Iy", "Ia")}, ref.emit); err != nil {
		t.Fatal(err)
	}
	sr := &starReducer{rows: newStarRows(compileStars([]*starInput{{rel: right, keyCol: "k"}, {rel: left, keyCol: "k"}}, 0, nil))}
	if err := sr.Reduce(key, [][]byte{row(0, "Ix", "Ia"), row(1, "Ia", "L1"), row(0, "Iy", "Ia"), row(1, "Ia", "L2")}, star.emit); err != nil {
		t.Fatal(err)
	}
	if got, want := lex(ref), []string{"Ia|L1|Ix", "Ia|L2|Ix", "Ia|L1|Iy", "Ia|L2|Iy"}; !slices.Equal(got, want) {
		t.Errorf("symmetric join rows %q, want %q", got, want)
	}
	if got, want := lex(star), []string{"Ia|Ix|L1", "Ia|Ix|L2", "Ia|Iy|L1", "Ia|Iy|L2"}; !slices.Equal(got, want) {
		t.Errorf("two-input star join rows %q, want %q", got, want)
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
// reference scan keeps, each key's rows in record order, and the first
// record that does not decode.
func sideIndexRef(recs [][]byte, r *rel, keyCol string) (map[string][]codec.Tuple, error) {
	key := slices.Index(r.outColsRef(), keyCol)
	out := map[string][]codec.Tuple{}
	var first error
	for _, rec := range recs {
		raw, err := codec.DecodeIDTuple(rec, r.dict)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		if row, ok := r.scanRef(raw); ok {
			out[row[key]] = append(out[row[key]], row)
		}
	}
	return out, first
}

// probeKeys are the corpus's values (NULL among them) and strings that
// are no canonical ID: MissingIDString, overlong forms of IDs 0 and 1, a
// lone continuation byte and a value with a trailing byte.
func (c *scanCorpus) probeKeys() []string {
	v := c.vals[len(c.vals)-1]
	return append([]string{rdf.MissingIDString, "\x80\x00", "\x81\x00", v[:1], v + "\x01"}, c.vals...)
}

// segment is the encoding of row's fields at positions emit, as a side
// index keeps a row.
func segment(row codec.Tuple, emit []int) []byte {
	var out []byte
	for _, p := range emit {
		out = append(out, row[p]...)
	}
	return out
}

// rowSetOf keeps rows' fields at positions emit, every row taken in order.
func rowSetOf(rows []codec.Tuple, emit []int) rowSet {
	var s rowSet
	s.reset()
	for _, r := range rows {
		s.order = append(s.order, s.push(r, emit))
	}
	return s
}

// checkSideIndex compares x, built to keep the scan-output columns at
// positions emit, with the reference over recs at every probe: the same
// rows, row by row, each the segment of the reference row's emitted
// fields, capacity-clipped so that appending to it cannot overwrite the
// next; as many stored rows as the reference keeps; and a decode error
// exactly when the reference met one, naming the side's file. It returns
// how many rows the probes found, and the reference.
func checkSideIndex(t *testing.T, x *sideIndex, recs [][]byte, r *rel, keyCol string, emit []int, probes []string) (int, map[string][]codec.Tuple) {
	t.Helper()
	want, werr := sideIndexRef(recs, r, keyCol)
	if (x.err != nil) != (werr != nil) || x.err != nil && !strings.Contains(x.err.Error(), "broadcast side "+r.file) {
		t.Fatalf("rel %+v: index error %v, reference %v", r, x.err, werr)
	}
	stored := 0
	for _, rows := range want {
		stored += len(rows)
	}
	if len(x.off)-1 != stored || len(x.order) != stored {
		t.Fatalf("rel %+v: %d rows stored, %d ordered, reference %d", r, len(x.off)-1, len(x.order), stored)
	}
	found := 0
	for _, k := range probes {
		got, w := x.lookup(k), want[k]
		found += len(w)
		if len(got) != len(w) {
			t.Fatalf("rel %+v key %q: %d rows, reference %d", r, k, len(got), len(w))
		}
		for i, row := range got {
			seg := x.row(row)
			if ref := segment(w[i], emit); !bytes.Equal(seg, ref) || cap(seg) != len(seg) {
				t.Fatalf("rel %+v key %q emit %v row %d: %x (cap %d), reference %q", r, k, emit, i, seg, cap(seg), w[i])
			}
		}
	}
	return found, want
}

// sideFile writes recs to a file of a fresh in-memory DFS and opens it, as
// a map-join task finds its broadcast input.
func sideFile(t testing.TB, recs [][]byte) *dfs.File {
	t.Helper()
	fs := dfs.New()
	w, err := fs.Create("side", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		w.Write(rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("side")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// buildSideIndex must answer every lookup with the reference map's rows,
// each as the segment of the columns the index keeps, over random sides:
// records of the wrong arity, failing a constant or a filter, duplicate
// keys, NULL keys, keys absent from the side, probes that are no canonical
// ID, and empty sides, each side keeping a random choice of its columns in
// random order (none, or the key among them). A record that does not
// decode is the index's error. Term IDs take two uvarint bytes.
func TestSideIndexAgreesWithReference(t *testing.T) {
	c := newScanCorpus(4, 200)
	var seen struct{ sides, empty, dropped, undecodable, duplicate, absent, null, noColumn, keyKept int }
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
		emit := c.rng.Perm(len(cols))[:c.rng.Intn(len(cols)+1)]
		x := buildSideIndex(sideFile(t, recs), p, p.colIndex(keyCol), emit)
		found, want := checkSideIndex(t, x, recs, r, keyCol, emit, c.probeKeys())
		seen.sides++
		if len(emit) == 0 {
			seen.noColumn++
		} else if slices.Contains(emit, p.colIndex(keyCol)) {
			seen.keyKept++
		}
		if len(recs) == 0 {
			seen.empty++
		}
		if found < len(recs) {
			seen.dropped++
		}
		for k, rows := range want {
			switch {
			case k == algebra.Null:
				seen.null++
			case len(rows) > 1:
				seen.duplicate++
			}
		}
		if len(want) < len(c.vals) {
			seen.absent++
		}
	}
	t.Logf("coverage: %+v", seen)
	for name, n := range map[string]int{
		"empty side": seen.empty, "dropped record": seen.dropped, "undecodable record": seen.undecodable,
		"duplicate key": seen.duplicate, "absent key": seen.absent, "NULL key": seen.null,
		"no column kept": seen.noColumn, "key column kept": seen.keyKept,
	} {
		if n == 0 {
			t.Errorf("corpus never exercised %s", name)
		}
	}
}

// A side input whose block fails its CRC on disk is the index's error, as
// an undecodable record is.
func TestSideIndexReadError(t *testing.T) {
	dir := t.TempDir()
	fs, err := dfs.NewDisk(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := newScanCorpus(6, 200)
	r := &rel{file: "side", dict: c.d, cols: []string{"a", "b"}}
	w, err := fs.Create("side", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(codec.Tuple{c.vals[0], c.vals[1]}.EncodeIDs())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*", "side*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segment of side: %v, %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	seg[9] ^= 0xff // the first payload byte after the header and block CRC
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("side")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if x := buildSideIndex(f, r.compile(), 0, []int{1}); x.err == nil {
		t.Error("a side input with a corrupt block built an index without error")
	}
}

// A lookup allocates nothing, hit or miss.
func TestSideIndexLookupAllocatesNothing(t *testing.T) {
	c := newScanCorpus(5, 200)
	r := &rel{file: "side", dict: c.d, cols: []string{"a", "b"}}
	var recs [][]byte
	for i := range 50 {
		recs = append(recs, codec.Tuple{c.vals[i%len(c.vals)], c.vals[(i/3)%len(c.vals)]}.EncodeIDs())
	}
	p := r.compile()
	x := buildSideIndex(sideFile(t, recs), p, 0, []int{1})
	for _, k := range []string{c.vals[3], rdf.MissingIDString, c.vals[3] + "\x01"} {
		if n := testing.AllocsPerRun(200, func() { x.lookup(k) }); n != 0 {
			t.Errorf("lookup(%q) allocates %v times", k, n)
		}
	}
}

// FuzzSideIndexMatchesReference builds a random side from seed plus the
// raw record, and probes it with every corpus value, the probe string and
// the fixed odd keys; the index must agree with sideIndexRef.
func FuzzSideIndexMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{2, 3, 4}, "\x80")
	f.Add(int64(2), []byte{1, 0x80, 0x01}, "\x80\x01")
	f.Add(int64(3), []byte{}, "\x00")
	f.Add(int64(4), []byte{2, 0x81, 0x00, 5}, "\x81\x00")
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, probe string) {
		c := newScanCorpus(seed, 200)
		r := c.rel()
		cols := r.outColsRef()
		if len(cols) == 0 {
			return
		}
		keyCol := cols[c.rng.Intn(len(cols))]
		var recs [][]byte
		for range c.rng.Intn(24) {
			recs = append(recs, c.tuple(len(r.cols)).EncodeIDs())
		}
		recs = slices.Insert(recs, c.rng.Intn(len(recs)+1), raw)
		p := r.compile()
		emit := c.rng.Perm(len(cols))[:c.rng.Intn(len(cols)+1)]
		checkSideIndex(t, buildSideIndex(sideFile(t, recs), p, p.colIndex(keyCol), emit), recs, r, keyCol, emit, append(c.probeKeys(), probe))
	})
}

// The binary join before it became the two-input star join, kept as the
// equivalence reference: joinPlan compiles the join once per job;
// joinJobRef tags each side's rows by the file it reads and
// symJoinReducer pairs them in one symmetric pass over a key group
// decoded into a tupleArena; mapJoinJobRef streams the left side against
// a side index of the broadcast right side (mapJoinMapper).

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

// tupleArena is backing storage for a reducer's decoded key group.
// Returned tuples alias the arena (capacity-limited, so they cannot grow
// into each other) and stay valid until reset.
type tupleArena struct {
	fields []string
}

func (a *tupleArena) reset() { a.fields = a.fields[:0] }

// decode parses an ID-tuple into the arena.
func (a *tupleArena) decode(buf []byte, d *rdf.Dict) (codec.Tuple, error) {
	n := len(a.fields)
	f, err := codec.AppendDecodeIDTuple(a.fields, buf, d)
	if err != nil {
		return nil, err
	}
	a.fields = f
	return f[n:len(f):len(f)], nil
}

// symJoinReducer pairs each arriving left row with every right row seen so
// far and vice versa, so each (l, r) pair is emitted once, at whichever
// arrives later.
type symJoinReducer struct {
	plan   *joinPlan
	arena  tupleArena
	ls, rs []codec.Tuple
	out    codec.Tuple
	buf    []byte
}

func (r *symJoinReducer) Reduce(key string, values [][]byte, emit mapred.Emit) error {
	r.arena.reset()
	r.ls, r.rs = r.ls[:0], r.rs[:0]
	for _, v := range values {
		if len(v) < 1 {
			return errUntagged
		}
		t, err := r.arena.decode(v[1:], r.plan.left.dict)
		if err != nil {
			return err
		}
		if v[0] == 0 {
			for _, rr := range r.rs {
				r.emitJoined(t, rr, emit)
			}
			r.ls = append(r.ls, t)
		} else {
			for _, l := range r.ls {
				r.emitJoined(l, t, emit)
			}
			r.rs = append(r.rs, t)
		}
	}
	return nil
}

func (r *symJoinReducer) emitJoined(l, rr codec.Tuple, emit mapred.Emit) {
	r.out = r.plan.appendRow(r.out[:0], l, rr)
	r.buf = r.out.AppendEncodeIDs(r.buf[:0])
	emit("", r.buf)
}

// mapJoinMapper streams the left input against an index of the broadcast
// right input that keeps each right row's kept columns.
type mapJoinMapper struct {
	sc    scanner
	plan  *joinPlan
	right *sideIndex
	buf   []byte
}

func newMapJoinMapper(jp *joinPlan, right *dfs.File) *mapJoinMapper {
	return &mapJoinMapper{sc: scanner{plan: jp.left}, plan: jp, right: buildSideIndex(right, jp.right, jp.rightKey, jp.rightKept)}
}

func (m *mapJoinMapper) Map(rec []byte, emit mapred.Emit) error {
	if m.right.err != nil {
		return m.right.err
	}
	row, ok, err := m.sc.next(rec)
	if err != nil || !ok {
		return err
	}
	key := row[m.plan.leftKey]
	ms := m.right.lookup(key)
	if len(ms) == 0 {
		return nil
	}
	m.buf = append(binary.AppendUvarint(m.buf[:0], uint64(len(m.plan.cols))), key...)
	for _, p := range m.plan.leftKept {
		m.buf = append(m.buf, row[p]...)
	}
	n := len(m.buf)
	for _, r := range ms {
		m.buf = append(m.buf[:n], m.right.row(r)...)
		emit("", m.buf)
	}
	return nil
}

func (m *mapJoinMapper) Close(mapred.Emit) error { return m.right.err }

// fileTagMapper emits each scanned row under its join key after one byte
// tagging the side its file belongs to.
type fileTagMapper struct {
	sc     scanner
	keyPos int
	tag    byte
	buf    []byte
}

func (m *fileTagMapper) Map(rec []byte, emit mapred.Emit) error {
	row, ok, err := m.sc.next(rec)
	if err != nil || !ok {
		return err
	}
	m.buf = row.AppendEncodeIDs(append(m.buf[:0], m.tag))
	emit(row[m.keyPos], m.buf)
	return nil
}

// joinJobRef is the reduce-side binary join of left and right, which must
// read different files.
func joinJobRef(name string, left, right *rel, leftCol, rightCol string, keep map[string]bool, output string) *mapred.Job {
	jp := compileJoin(left, right, leftCol, rightCol, keep)
	return &mapred.Job{
		Name:   name,
		Inputs: []string{left.file, right.file},
		Output: output,
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			if tc.InputFile == right.file {
				return &fileTagMapper{sc: scanner{plan: jp.right}, keyPos: jp.rightKey, tag: 1}
			}
			return &fileTagMapper{sc: scanner{plan: jp.left}, keyPos: jp.leftKey, tag: 0}
		},
		NewReducer: func() mapred.Reducer { return &symJoinReducer{plan: jp} },
	}
}

// mapJoinJobRef is the map-only binary join broadcasting right.
func mapJoinJobRef(name string, left, right *rel, leftCol, rightCol string, keep map[string]bool, output string) *mapred.Job {
	jp := compileJoin(left, right, leftCol, rightCol, keep)
	return &mapred.Job{
		Name:       name,
		Inputs:     []string{left.file},
		SideInputs: []string{right.file},
		Output:     output,
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return newMapJoinMapper(jp, tc.SideInput(right.file))
		},
	}
}

// joinSide draws one side of a binary join named prefix over the corpus:
// the key column k at a random position among up to four columns, the
// others its own or dropped, with at most one constant check and one
// filter.
func (c *scanCorpus) joinSide(file, prefix string) *rel {
	n := 1 + c.rng.Intn(4)
	r := &rel{file: file, dict: c.d, cols: make([]string, n)}
	key := c.rng.Intn(n)
	for i := range r.cols {
		switch {
		case i == key:
			r.cols[i] = "k"
		case c.rng.Intn(4) > 0:
			r.cols[i] = fmt.Sprintf("%s%d", prefix, i)
		}
	}
	if c.rng.Intn(4) == 0 {
		want := c.value()
		if c.rng.Intn(4) == 0 {
			want = rdf.MissingIDString
		}
		r.consts = append(r.consts, constCheck{pos: c.rng.Intn(n), want: want})
	}
	if c.rng.Intn(2) == 0 {
		r.filters = append(r.filters, c.filter(r.cols[c.rng.Intn(n)]))
	}
	return r
}

// joinRecords draws up to 40 records for side r, the key from the
// corpus's first four values (NULL among them), so keys repeat.
func (c *scanCorpus) joinRecords(r *rel) [][]byte {
	key := slices.Index(r.cols, "k")
	var recs [][]byte
	for range c.rng.Intn(41) {
		t := c.tuple(len(r.cols))
		if len(t) == len(r.cols) {
			t[key] = c.vals[c.rng.Intn(4)]
		}
		recs = append(recs, t.EncodeIDs())
	}
	return recs
}

// decodedRows reads a job output as rows of ID-strings.
func decodedRows(t *testing.T, c *mapred.Cluster, d *rdf.Dict, name string) []codec.Tuple {
	t.Helper()
	var out []codec.Tuple
	for _, rec := range readRecords(t, c, name) {
		tu, err := codec.DecodeIDTuple(rec, d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tu)
	}
	return out
}

// byName permutes each row of schema cols into schema want.
func byName(rows []codec.Tuple, cols, want []string) []codec.Tuple {
	out := make([]codec.Tuple, len(rows))
	for i, row := range rows {
		out[i] = make(codec.Tuple, len(want))
		for j, c := range want {
			out[i][j] = row[slices.Index(cols, c)]
		}
	}
	return out
}

// joinCoverage counts what the binary join checks exercised.
type joinCoverage struct {
	rows, manyToMany, unmatched, dropped, projected, spilled int
}

// checkBinaryJoin runs the binary join of two random sides through the
// two-input star join and through the reference, over 1 and 3 reduce
// partitions, with and without a tiny spill threshold. Either map join
// must write the reference's bytes; the reduce-side join over [right,
// left] the reference's rows in the reference's order, once columns are
// matched by name.
func checkBinaryJoin(t *testing.T, seed int64, cov *joinCoverage) {
	c := newScanCorpus(seed, 200)
	left, right := c.joinSide("L", "l"), c.joinSide("R", "r")
	var keep map[string]bool
	if c.rng.Intn(2) == 0 {
		keep = map[string]bool{}
		for _, col := range slices.Concat(left.cols, right.cols) {
			if col != "" && c.rng.Intn(2) == 0 {
				keep[col] = true
			}
		}
		cov.projected++
	}
	lrecs, rrecs := c.joinRecords(left), c.joinRecords(right)
	// Scanned rows per key on each side, from the reference scan.
	perKey := map[string][2]int{}
	for side, in := range []struct {
		r    *rel
		recs [][]byte
	}{{left, lrecs}, {right, rrecs}} {
		for _, rec := range in.recs {
			raw, err := codec.DecodeIDTuple(rec, c.d)
			if err != nil {
				t.Fatal(err)
			}
			row, ok := in.r.scanRef(raw)
			if !ok {
				cov.dropped++
				continue
			}
			n := perKey[row[slices.Index(in.r.outColsRef(), "k")]]
			n[side]++
			perKey[row[slices.Index(in.r.outColsRef(), "k")]] = n
		}
	}
	for _, n := range perKey {
		switch {
		case n[0] > 1 && n[1] > 1:
			cov.manyToMany++
		case n[0] == 0 || n[1] == 0:
			cov.unmatched++
		}
	}
	run := func(job *mapred.Job, partitions int, spill int64) (*mapred.Cluster, *mapred.Metrics) {
		t.Helper()
		cfg := mapred.DefaultConfig()
		cfg.ExecSplitBytes = 64
		cfg.SpillThresholdBytes = spill
		cl := mapred.NewCluster(cfg)
		for file, recs := range map[string][][]byte{"L": lrecs, "R": rrecs} {
			w, err := cl.FS.Create(file, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				w.Write(rec)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		job.Partitions = partitions
		m, err := cl.Run(job)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		return cl, m
	}
	both := []*starInput{{rel: left, keyCol: "k"}, {rel: right, keyCol: "k"}}
	for _, partitions := range []int{1, 3} {
		for _, spill := range []int64{0, 16} {
			for driving, ref := range []*mapred.Job{
				mapJoinJobRef("ref", left, right, "k", "k", keep, "out"),
				mapJoinJobRef("ref", right, left, "k", "k", keep, "out"),
			} {
				job, _ := starMapJoinJob("j", "map-join", both, driving, keep, "out", 1)
				gc, _ := run(job, partitions, spill)
				wc, _ := run(ref, partitions, spill)
				if got, want := readRecords(t, gc, "out"), readRecords(t, wc, "out"); !slices.EqualFunc(got, want, bytes.Equal) {
					t.Fatalf("seed %d, driving %d: map join wrote %q, reference %q", seed, driving, got, want)
				}
			}
			job, out := starJoinJob("j", "hash-join", []*starInput{both[1], both[0]}, keep, "out", 1)
			jp := compileJoin(left, right, "k", "k", keep)
			gc, m := run(job, partitions, spill)
			wc, _ := run(joinJobRef("ref", left, right, "k", "k", keep, "out"), partitions, spill)
			got, want := decodedRows(t, gc, c.d, "out"), decodedRows(t, wc, c.d, "out")
			if got = byName(got, out.cols, jp.cols); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("seed %d, %d partitions, spill %d: reduce-side join %q, reference %q", seed, partitions, spill, got, want)
			}
			cov.rows += len(want)
			if m.SpillRuns > 0 {
				cov.spilled++
			}
		}
	}
}

func TestBinaryJoinMatchesReference(t *testing.T) {
	var cov joinCoverage
	for seed := range int64(60) {
		checkBinaryJoin(t, seed, &cov)
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"joined row": cov.rows, "key with several rows on both sides": cov.manyToMany, "unmatched key": cov.unmatched,
		"record the scan drops": cov.dropped, "projection": cov.projected, "spilling map task": cov.spilled,
	} {
		if n == 0 {
			t.Errorf("corpus never exercised a %s", name)
		}
	}
}

// FuzzBinaryJoinMatchesReference draws the sides of a binary join from
// seed: duplicate and unmatched keys on both sides, NULL keys, constant
// checks, filters, and kept and dropped columns.
func FuzzBinaryJoinMatchesReference(f *testing.F) {
	for seed := range int64(4) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkBinaryJoin(t, seed, &joinCoverage{}) })
}
