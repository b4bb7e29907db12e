package engine

import (
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/sparql"
)

func mustAQ(t *testing.T, q string) *algebra.AnalyticalQuery {
	t.Helper()
	parsed, err := sparql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	aq, err := algebra.Build(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return aq
}

const twoSubqueries = `PREFIX e: <http://e/>
SELECT ?g ?cntG ?cntT {
  { SELECT ?g (COUNT(?x) AS ?cntG) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g }
  { SELECT (COUNT(?y) AS ?cntT) { ?s2 e:y ?y . } }
}`

func writeRecs(t *testing.T, fs *dfs.FS, name string, recs ...[]byte) {
	t.Helper()
	w, err := fs.Create(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		w.Write(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readRecs(t *testing.T, fs *dfs.FS, name string) [][]byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := f.AllRecords()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestResultEqualDiff(t *testing.T) {
	a := &Result{Columns: []string{"x", "y"}, Rows: []codec.Tuple{{"1", "2"}, {"3", "4"}}}
	b := &Result{Columns: []string{"x", "y"}, Rows: []codec.Tuple{{"3", "4"}, {"1", "2"}}}
	if !a.Equal(b) {
		t.Error("row order should not matter")
	}
	if d := a.Diff(b); d != "" {
		t.Errorf("Diff = %q", d)
	}
	c := &Result{Columns: []string{"x", "y"}, Rows: []codec.Tuple{{"1", "2"}}}
	if a.Equal(c) || a.Diff(c) == "" {
		t.Error("row-count difference not detected")
	}
	d := &Result{Columns: []string{"x", "y"}, Rows: []codec.Tuple{{"1", "2"}, {"3", "5"}}}
	if a.Equal(d) || !strings.Contains(a.Diff(d), "row") {
		t.Errorf("value difference not detected: %q", a.Diff(d))
	}
	e := &Result{Columns: []string{"x"}, Rows: nil}
	if a.Equal(e) {
		t.Error("column difference not detected")
	}
}

// Display decides by column: a key column loses its tag, a lexical
// column keeps its first byte whatever it is, and NULL is NULL in both.
func TestDisplay(t *testing.T) {
	r := &Result{Columns: []string{"k", "v"}, Keys: []bool{true, false}}
	cases := []struct {
		col      int
		in, want string
	}{
		{0, "Ihttp://e/x", "http://e/x"},
		{0, "Iabc", "abc"},
		{0, "LUK", "UK"},
		{0, "B_b1", "_b1"},
		{0, algebra.Null, "NULL"},
		{1, "42", "42"},
		{1, "London", "London"},
		{1, "Lima", "Lima"},
		{1, "Ihttp://e/x", "Ihttp://e/x"},
		{1, algebra.Null, "NULL"},
	}
	for _, c := range cases {
		if got := r.Display(c.col, c.in); got != c.want {
			t.Errorf("Display(%d, %q) = %q, want %q", c.col, c.in, got, c.want)
		}
	}
}

// NewResult marks exactly the projected grouping variables as key
// columns: aggregates and expressions are lexical.
func TestNewResultKeys(t *testing.T) {
	aq := mustAQ(t, `PREFIX e: <http://e/>
SELECT ?g ?n ((?n * 2) AS ?d) {
  { SELECT ?g (COUNT(?x) AS ?n) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g }
}`)
	res := NewResult(aq)
	if !slices.Equal(res.Keys, []bool{true, false, false}) {
		t.Errorf("Keys = %v for columns %v", res.Keys, res.Columns)
	}
}

func TestPretty(t *testing.T) {
	r := &Result{Columns: []string{"country", "cnt"}, Keys: []bool{true, false}, Rows: []codec.Tuple{{"LUK", "10"}, {"LDE", "3"}}}
	out := r.Pretty()
	if !strings.Contains(out, "country") || !strings.Contains(out, "UK") {
		t.Errorf("Pretty = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("Pretty lines = %d", len(lines))
	}
}

func TestFinalJoinJobCrossJoin(t *testing.T) {
	aq := mustAQ(t, twoSubqueries)
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "sub0", codec.Tuple{"Ig1", "3"}.Encode(), codec.Tuple{"Ig2", "5"}.Encode())
	writeRecs(t, c.FS, "sub1", codec.Tuple{"7"}.Encode())
	if _, err := c.Run(FinalJoinJob(aq, []string{"sub0", "sub1"}, "out")); err != nil {
		t.Fatal(err)
	}
	res, err := ReadResult(c.FS, "out", aq)
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{Columns: aq.OutputColumns(), Rows: []codec.Tuple{
		{"Ig1", "3", "7"}, {"Ig2", "5", "7"},
	}}
	if d := want.Diff(res); d != "" {
		t.Errorf("final join: %s", d)
	}
}

func TestTaggedFinalJoinJob(t *testing.T) {
	aq := mustAQ(t, twoSubqueries)
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "tagged",
		codec.Tuple{"0", "Ig1", "3"}.Encode(),
		codec.Tuple{"1", "7"}.Encode(),
		codec.Tuple{"0", "Ig2", "5"}.Encode())
	m, err := c.Run(FinalJoinJob(aq, []string{"tagged"}, "out"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.MapOnly {
		t.Error("tagged final join should be map-only")
	}
	res, err := ReadResult(c.FS, "out", aq)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEnsureDefaultRows(t *testing.T) {
	aq := mustAQ(t, twoSubqueries)
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "sub0", codec.Tuple{"Ig1", "3"}.Encode())
	writeRecs(t, c.FS, "sub1") // empty GROUP BY ALL result
	if err := RepairGroupByAll(c.FS, []string{"sub0", "sub1"}, aq); err != nil {
		t.Fatal(err)
	}
	recs := readRecs(t, c.FS, "sub1")
	if len(recs) != 1 {
		t.Fatalf("default row not appended: %d records", len(recs))
	}
	tu, err := codec.DecodeTuple(recs[0])
	if err != nil || len(tu) != 1 || tu[0] != "0" {
		t.Errorf("default row = %v, %v (want COUNT default 0)", tu, err)
	}
	// The grouped subquery must NOT be repaired.
	c2 := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c2.FS, "sub0")
	writeRecs(t, c2.FS, "sub1", codec.Tuple{"9"}.Encode())
	if err := RepairGroupByAll(c2.FS, []string{"sub0", "sub1"}, aq); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*mapred.Cluster{c, c2} {
		if n := c.FS.OpenHandles(); n != 0 {
			t.Errorf("%d DFS handles left open", n)
		}
	}
	f0, _ := c2.FS.Open("sub0")
	defer f0.Close()
	if f0.NumRecords() != 0 {
		t.Error("grouped subquery file repaired; should stay empty")
	}
	// Idempotent on non-empty files.
	f1, _ := c2.FS.Open("sub1")
	defer f1.Close()
	if f1.NumRecords() != 1 {
		t.Error("non-empty GROUP BY ALL file modified")
	}
}

// HAVING applies to a GROUP BY ALL subquery's one group after its default
// row exists, in either layout: a row that fails it is dropped, a missing
// default that fails it is not appended, one that passes is, and grouped
// rows are left alone.
func TestRepairAppliesGroupByAllHaving(t *testing.T) {
	having := func(op string) *algebra.AnalyticalQuery {
		return mustAQ(t, `PREFIX e: <http://e/>
SELECT ?g ?cntG ?cntT {
  { SELECT ?g (COUNT(?x) AS ?cntG) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g }
  { SELECT (COUNT(?y) AS ?cntT) { ?s2 e:y ?y . } HAVING (COUNT(?y) `+op+`) }
}`)
	}
	rows := func(t *testing.T, fs *dfs.FS, name string) []string {
		var out []string
		for _, rec := range readRecs(t, fs, name) {
			tu, err := codec.DecodeTuple(rec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, strings.Join(tu, "|"))
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		op    string
		files map[string][]codec.Tuple
		want  map[string][]string
	}{
		{"passing row kept", "> 1", map[string][]codec.Tuple{"sub0": {{"Ig1", "1"}}, "sub1": {{"5"}}},
			map[string][]string{"sub0": {"Ig1|1"}, "sub1": {"5"}}},
		{"failing row dropped", "> 1", map[string][]codec.Tuple{"sub0": {{"Ig1", "1"}}, "sub1": {{"1"}}},
			map[string][]string{"sub0": {"Ig1|1"}, "sub1": nil}},
		{"failing default not appended", "> 1", map[string][]codec.Tuple{"sub0": nil, "sub1": nil},
			map[string][]string{"sub0": nil, "sub1": nil}},
		{"passing default appended", "= 0", map[string][]codec.Tuple{"sub0": nil, "sub1": nil},
			map[string][]string{"sub0": nil, "sub1": {"0"}}},
		{"tagged, failing row dropped", "> 1", map[string][]codec.Tuple{"tagged": {{"0", "Ig1", "1"}, {"1", "1"}, {"0", "Ig2", "3"}}},
			map[string][]string{"tagged": {"0|Ig1|1", "0|Ig2|3"}}},
		{"tagged, passing default appended", "= 0", map[string][]codec.Tuple{"tagged": {{"0", "Ig1", "1"}}},
			map[string][]string{"tagged": {"0|Ig1|1", "1|0"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mapred.NewCluster(mapred.DefaultConfig())
			files := slices.Sorted(maps.Keys(tc.files))
			for _, name := range files {
				var recs [][]byte
				for _, row := range tc.files[name] {
					recs = append(recs, row.Encode())
				}
				writeRecs(t, c.FS, name, recs...)
			}
			if err := RepairGroupByAll(c.FS, files, having(tc.op)); err != nil {
				t.Fatal(err)
			}
			for _, name := range files {
				if got := rows(t, c.FS, name); !slices.Equal(got, tc.want[name]) {
					t.Errorf("%s holds %q, want %q", name, got, tc.want[name])
				}
			}
			if n := c.FS.OpenHandles(); n != 0 {
				t.Errorf("%d DFS handles left open", n)
			}
		})
	}
}

func TestEnsureDefaultRowsTagged(t *testing.T) {
	aq := mustAQ(t, twoSubqueries)
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "tagged", codec.Tuple{"0", "Ig1", "3"}.Encode()) // only subquery 0 rows
	if err := RepairGroupByAll(c.FS, []string{"tagged"}, aq); err != nil {
		t.Fatal(err)
	}
	recs := readRecs(t, c.FS, "tagged")
	if len(recs) != 2 {
		t.Fatalf("records = %d, want default row appended", len(recs))
	}
	tu, _ := codec.DecodeTuple(recs[1])
	if len(tu) != 2 || tu[0] != "1" || tu[1] != "0" {
		t.Errorf("appended row = %v", tu)
	}
}

// End-to-end through the executor: repairing and joining yields the
// oracle shape even when the ALL side matched nothing.
func TestFinishWithEmptyAllSide(t *testing.T) {
	aq := mustAQ(t, twoSubqueries)
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "sub0", codec.Tuple{"Ig1", "3"}.Encode())
	writeRecs(t, c.FS, "sub1")
	res, wm, err := finish(c, aq, []string{"sub0", "sub1"})
	if err != nil {
		t.Fatal(err)
	}
	if last := wm.Jobs[len(wm.Jobs)-1]; wm.Cycles() != 3 || !last.MapOnly {
		t.Errorf("cycles = %d, want the two loads and a map-only final join", wm.Cycles())
	}
	if len(res.Rows) != 1 || res.Rows[0][2] != "0" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCompareRows(t *testing.T) {
	aq := mustAQ(t, `PREFIX e: <http://e/>
SELECT ?g (COUNT(?x) AS ?n) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g ORDER BY DESC(?n) ?g`)
	a := codec.Tuple{"Ib", "10"}
	b := codec.Tuple{"Ia", "9"}
	// DESC(?n): a (10) sorts before b (9).
	if CompareRows(a, b, OrderKeys(aq), a.Encode(), b.Encode()) >= 0 {
		t.Error("descending count ordering wrong")
	}
	// Equal counts: ascending group key breaks the tie.
	c := codec.Tuple{"Ia", "10"}
	if CompareRows(c, a, OrderKeys(aq), c.Encode(), a.Encode()) >= 0 {
		t.Error("secondary key ordering wrong")
	}
	// Fully equal keys: raw bytes break the tie deterministically.
	if CompareRows(a, a, OrderKeys(aq), []byte{1}, []byte{2}) >= 0 {
		t.Error("raw tiebreaker wrong")
	}
	// NULLs sort first.
	n := codec.Tuple{algebra.Null, "10"}
	asc := mustAQ(t, `PREFIX e: <http://e/>
SELECT ?g (COUNT(?x) AS ?n) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g ORDER BY ?g`)
	if CompareRows(n, a, OrderKeys(asc), n.Encode(), a.Encode()) >= 0 {
		t.Error("NULL should sort first ascending")
	}
	// Only a grouping column holds term keys; a lexical aggregate is
	// compared with its first byte.
	if k := OrderKeys(aq); k[0].Key || !k[1].Key {
		t.Errorf("order keys %+v: want ?n lexical, ?g a term key", k)
	}
	lex := mustAQ(t, `PREFIX e: <http://e/>
SELECT ?g (MIN(?c) AS ?m) { ?s e:c ?c ; e:g ?g . } GROUP BY ?g ORDER BY ?m`)
	berlin, lima := codec.Tuple{"Ig1", "Berlin"}, codec.Tuple{"Ig2", "Lima"}
	if CompareRows(berlin, lima, OrderKeys(lex), berlin.Encode(), lima.Encode()) >= 0 {
		t.Error("lexical MIN ordered Lima before Berlin")
	}
}

// The ORDER BY keys are resolved once per sort: a comparison allocates
// nothing, and SortJob's reducer sorting 1,000 rows allocates a few growing
// slices — its decoded rows are views of the values — not one string per
// row, let alone O(rows·log rows).
func TestSortAllocatesPerRowNotPerComparison(t *testing.T) {
	aq := mustAQ(t, `PREFIX e: <http://e/>
SELECT ?g (COUNT(?x) AS ?n) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g ORDER BY DESC(?n) ?g`)
	keys := OrderKeys(aq)
	a, b := codec.Tuple{"Ib", "10"}, codec.Tuple{"Ia", "10"}
	rawA, rawB := a.Encode(), b.Encode()
	if allocs := testing.AllocsPerRun(100, func() { CompareRows(a, b, keys, rawA, rawB) }); allocs != 0 {
		t.Errorf("CompareRows allocates %v times per comparison, want 0", allocs)
	}

	rng := rand.New(rand.NewSource(1))
	values := make([][]byte, 1000)
	for i := range values {
		values[i] = codec.Tuple{"Ig" + strconv.Itoa(rng.Intn(300)), strconv.Itoa(rng.Intn(50))}.Encode()
	}
	red := SortJob(aq, "in", "out").NewReducer()
	var prev []byte
	sorted := 0
	emit := func(_ string, v []byte) {
		if prev != nil && CompareRows(decode(t, prev), decode(t, v), keys, prev, v) > 0 {
			t.Fatalf("rows out of order: %q before %q", prev, v)
		}
		prev = v
		sorted++
	}
	if err := red.Reduce("", values, emit); err != nil || sorted != len(values) {
		t.Fatalf("sorted %d of %d rows, err %v", sorted, len(values), err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := red.Reduce("", values, func(string, []byte) {}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(len(values))/10 {
		t.Errorf("sorting %d rows allocates %v times, want fewer than one per 10 rows", len(values), allocs)
	}
}

func decode(t *testing.T, rec []byte) codec.Tuple {
	t.Helper()
	tu, err := codec.DecodeTuple(rec)
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

const twoGrouped = `PREFIX e: <http://e/>
SELECT ?g ?cntX ?cntY {
  { SELECT ?g (COUNT(?x) AS ?cntX) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g }
  { SELECT ?g (COUNT(?y) AS ?cntY) { ?s2 e:g ?g ; e:y ?y . } GROUP BY ?g }
}`

// A side input of the final join whose block fails its CRC on disk fails
// the join with the file's name, and closes every handle: tasks read the
// open side snapshot in place, so the read error surfaces in the map task.
func TestFinalJoinFailsOnUnreadableSide(t *testing.T) {
	dir := t.TempDir()
	fs, err := dfs.NewDisk(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := mapred.NewClusterFS(mapred.DefaultConfig(), fs)
	writeRecs(t, fs, "sub0", codec.Tuple{"Ig1", "3"}.Encode())
	writeRecs(t, fs, "sub1", codec.Tuple{"5"}.Encode())
	segs, err := filepath.Glob(filepath.Join(dir, "*", "sub1*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segment of sub1: %v, %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	seg[9] ^= 0xff // the first payload byte after the header and block CRC
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(FinalJoinJob(mustAQ(t, twoSubqueries), []string{"sub0", "sub1"}, "out"))
	if err == nil || !strings.Contains(err.Error(), "side input sub1") {
		t.Errorf("err = %v, want the side input's read error", err)
	}
	if n := fs.OpenHandles(); n != 0 {
		t.Errorf("%d DFS handles left open", n)
	}
}

// A side row of the final join that does not decode, has the wrong width
// or carries no valid subquery tag fails the query with the file's name
// instead of dropping the row.
func TestFinalJoinRejectsMalformedSideRows(t *testing.T) {
	aq := mustAQ(t, twoGrouped)
	corrupt := codec.Tuple{"Ig2", "4"}.Encode()
	corrupt = corrupt[:len(corrupt)-1]
	for _, tc := range []struct {
		name  string
		files map[string][][]byte
	}{
		{"undecodable", map[string][][]byte{
			"sub0": {codec.Tuple{"Ig1", "3"}.Encode()},
			"sub1": {codec.Tuple{"Ig1", "5"}.Encode(), corrupt},
		}},
		{"wrong width", map[string][][]byte{
			"sub0": {codec.Tuple{"Ig1", "3"}.Encode()},
			"sub1": {codec.Tuple{"Ig1"}.Encode()},
		}},
		{"bad tag", map[string][][]byte{
			"tagged": {codec.Tuple{"0", "Ig1", "3"}.Encode(), codec.Tuple{"1", "Ig1", "5"}.Encode(), codec.Tuple{"7", "Ig1", "5"}.Encode()},
		}},
	} {
		c := mapred.NewCluster(mapred.DefaultConfig())
		var names []string
		for _, name := range []string{"sub0", "sub1", "tagged"} {
			if recs, ok := tc.files[name]; ok {
				writeRecs(t, c.FS, name, recs...)
				names = append(names, name)
			}
		}
		res, _, err := finish(c, aq, names)
		if err == nil {
			t.Errorf("%s: query returned %v, want an error", tc.name, res.Rows)
			continue
		}
		if want := names[len(names)-1]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, want)
		}
		if n := c.FS.OpenHandles(); n != 0 {
			t.Errorf("%s: %d DFS handles left open", tc.name, n)
		}
	}
}

// A GROUP BY ALL row that does not decode fails the query: it must neither
// count as the group's row (suppressing the default) nor vanish later.
func TestEnsureDefaultRowsRejectsMalformedRows(t *testing.T) {
	aq := mustAQ(t, twoSubqueries)
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "sub0", codec.Tuple{"Ig1", "3"}.Encode())
	writeRecs(t, c.FS, "sub1", []byte{0x01, 0x05, 'x'})
	if err := RepairGroupByAll(c.FS, []string{"sub0", "sub1"}, aq); err == nil {
		t.Error("RepairGroupByAll accepted an undecodable GROUP BY ALL row")
	}
	if n := c.FS.OpenHandles(); n != 0 {
		t.Errorf("%d DFS handles left open on the error path", n)
	}
	res, _, err := finish(c, aq, []string{"sub0", "sub1"})
	if err == nil {
		t.Fatalf("query returned %v, want an error", res.Rows)
	}
	if !strings.Contains(err.Error(), "sub1") {
		t.Errorf("error %q does not name sub1", err)
	}
	if n := c.FS.OpenHandles(); n != 0 {
		t.Errorf("%d DFS handles left open on the error path", n)
	}
}

// A GROUP BY ALL file that fails to read mid-scan — a block failing its
// CRC on the disk backend — fails the repair, with and without a HAVING
// to apply, with every file and writer closed.
func TestRepairClosesHandlesOnReadErrors(t *testing.T) {
	const withHaving = `PREFIX e: <http://e/>
SELECT ?g ?cntG ?cntT {
  { SELECT ?g (COUNT(?x) AS ?cntG) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g }
  { SELECT (COUNT(?y) AS ?cntT) { ?s2 e:y ?y . } HAVING (COUNT(?y) > 1) }
}`
	for _, tc := range []struct {
		name   string
		query  string
		repair func(*dfs.FS, []string, *algebra.AnalyticalQuery) error
	}{
		{"scan", twoSubqueries, RepairGroupByAll},
		{"rewrite", withHaving, RepairGroupByAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := dfs.NewDisk(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			writeRecs(t, fs, "sub0", codec.Tuple{"Ig1", "3"}.Encode())
			writeRecs(t, fs, "sub1", codec.Tuple{"5"}.Encode())
			segs, err := filepath.Glob(filepath.Join(dir, "*", "sub1*"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segment of sub1: %v, %v", segs, err)
			}
			seg, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			seg[9] ^= 0xff // the first payload byte after the header and block CRC
			if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.repair(fs, []string{"sub0", "sub1"}, mustAQ(t, tc.query)); err == nil {
				t.Error("repair read a corrupt block without error")
			}
			if n := fs.OpenHandles(); n != 0 {
				t.Errorf("%d DFS handles left open", n)
			}
		})
	}
}

// Once its broadcast indexes are built, the final join maps a driving
// record without allocating: the record decodes into views of its bytes,
// the partial row and the projection reuse the task's scratch.
func TestFinalJoinMapAllocatesNothing(t *testing.T) {
	aq := mustAQ(t, twoSubqueries)
	c := mapred.NewCluster(mapred.DefaultConfig())
	rec := codec.Tuple{"Ig1", "3"}.Encode()
	writeRecs(t, c.FS, "sub0", rec)
	writeRecs(t, c.FS, "sub1", codec.Tuple{"7"}.Encode(), codec.Tuple{"8"}.Encode())
	job := FinalJoinJob(aq, []string{"sub0", "sub1"}, "out")
	var m *finalJoinMapper
	newMapper := job.NewMapper
	job.NewMapper = func(tc *mapred.TaskContext) mapred.Mapper {
		m = newMapper(tc).(*finalJoinMapper)
		return m
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	if m == nil || m.indexes == nil {
		t.Fatal("the final join built no indexes")
	}
	emits := 0
	emit := func(string, []byte) { emits++ }
	if err := m.Map(rec, emit); err != nil || emits != 2 {
		t.Fatalf("%d emits, want 2: %v", emits, err)
	}
	if n := testing.AllocsPerRun(100, func() { m.Map(rec, emit) }); n != 0 {
		t.Errorf("finalJoinMapper.Map allocates %v times per driving record, want 0", n)
	}
}

// The final join's broadcast index keeps each side row's join key as a
// view of one append-only arena, not as a string of its own: indexing
// 1,000 side rows that share 10 two-column keys allocates for the groups
// and for growth, not once per row.
func TestFinalJoinIndexCopiesNoKeyPerRow(t *testing.T) {
	aq := mustAQ(t, `PREFIX e: <http://e/>
SELECT ?g ?h ?n ?m {
  { SELECT ?g ?h (COUNT(?x) AS ?n) { ?s e:g ?g ; e:h ?h ; e:x ?x . } GROUP BY ?g ?h }
  { SELECT ?g ?h (COUNT(?y) AS ?m) { ?u e:g ?g ; e:h ?h ; e:y ?y . } GROUP BY ?g ?h }
}`)
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "sub0", codec.Tuple{"Ig1", "Ih1", "3"}.Encode())
	const rows = 1000
	side := make([][]byte, rows)
	for i := range side {
		side[i] = codec.Tuple{"Ig" + strconv.Itoa(i%10), "Ih" + strconv.Itoa(i%10), strconv.Itoa(i)}.Encode()
	}
	writeRecs(t, c.FS, "sub1", side...)
	job := FinalJoinJob(aq, []string{"sub0", "sub1"}, "out")
	allocs := -1.0
	newMapper := job.NewMapper
	job.NewMapper = func(tc *mapred.TaskContext) mapred.Mapper {
		m := newMapper(tc).(*finalJoinMapper)
		allocs = testing.AllocsPerRun(10, func() {
			m.indexes, m.keys = nil, nil
			if err := m.buildIndexes(); err != nil {
				t.Error(err)
			}
		})
		if got := len(m.indexes[0].group); got != 10 {
			t.Errorf("the index holds %d keys, want 10", got)
		}
		return m
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	if allocs < 0 || allocs > rows/5 {
		t.Errorf("indexing %d side rows allocates %v times, want at most %d", rows, allocs, rows/5)
	}
}
