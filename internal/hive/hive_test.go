package hive

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

func newCluster() *mapred.Cluster {
	cfg := mapred.DefaultConfig()
	cfg.ExecSplitBytes = 128
	return mapred.NewCluster(cfg)
}

// idRow interns a term-key row into d the way store.BuildVP does; NULL
// fields keep the reserved NULL ID-string.
func idRow(d *rdf.Dict, row codec.Tuple) codec.Tuple {
	out := make(codec.Tuple, len(row))
	for i, f := range row {
		if algebra.IsNull(f) {
			out[i] = f
		} else {
			out[i] = d.AddString(f)
		}
	}
	return out
}

// writeTuples stores term-key rows as the ID-tuples every rel scans.
func writeTuples(c *mapred.Cluster, d *rdf.Dict, name string, rows ...codec.Tuple) {
	w, err := c.FS.Create(name, 1)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		w.Write(idRow(d, r).EncodeIDs())
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
}

// readRecords returns the raw records of a job output.
func readRecords(t *testing.T, c *mapred.Cluster, name string) [][]byte {
	t.Helper()
	f, err := c.FS.Open(name)
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

// readRows reads a join or DISTINCT output — ID-tuples, decoded through d —
// as sorted "|"-joined term-key rows.
func readRows(t *testing.T, c *mapred.Cluster, d *rdf.Dict, name string) []string {
	t.Helper()
	var out []string
	for _, rec := range readRecords(t, c, name) {
		tu, err := codec.DecodeIDTuple(rec, d)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tu {
			tu[i] = lexOf(d, v)
		}
		out = append(out, strings.Join(tu, "|"))
	}
	sort.Strings(out)
	return out
}

// readResultRows reads an aggregation output — lexical result rows, past
// the decode boundary — as sorted "|"-joined rows.
func readResultRows(t *testing.T, c *mapred.Cluster, name string) []string {
	t.Helper()
	var out []string
	for _, rec := range readRecords(t, c, name) {
		tu, err := codec.DecodeTuple(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, strings.Join(tu, "|"))
	}
	sort.Strings(out)
	return out
}

func TestRelScan(t *testing.T) {
	d := rdf.NewDict()
	raw := func(fields ...string) codec.Tuple { return idRow(d, fields) }
	r := &rel{
		file:   "f",
		cols:   []string{"s", "", "o"},
		consts: []constCheck{{pos: 1, want: d.AddString("LX")}},
		filters: []sparql.Filter{{
			Kind: sparql.FilterCompare, Var: "o", Op: ">", Value: "5", IsNumeric: true,
		}},
		dict: d,
	}
	p := r.compile()
	if got := p.cols; strings.Join(got, ",") != "s,o" {
		t.Errorf("cols = %v", got)
	}
	if row, ok := p.project(nil, raw("Is1", "LX", "L10")); !ok || lexOf(d, row[0]) != "Is1" || lexOf(d, row[1]) != "L10" {
		t.Errorf("scan = %v, %v", row, ok)
	}
	if _, ok := p.project(nil, raw("Is1", "LY", "L10")); ok {
		t.Error("constant check not applied")
	}
	if _, ok := p.project(nil, raw("Is1", "LX", "L3")); ok {
		t.Error("filter not applied")
	}
	if _, ok := p.project(nil, raw("Is1")); ok {
		t.Error("arity mismatch accepted")
	}
	if p.colIndex("o") != 1 || p.colIndex("s") != 0 || p.colIndex("zz") != -1 {
		t.Error("colIndex wrong")
	}
}

func starFixture(c *mapred.Cluster, d *rdf.Dict) []*starInput {
	writeTuples(c, d, "t_type", codec.Tuple{"Ip1"}, codec.Tuple{"Ip2"})
	writeTuples(c, d, "t_label",
		codec.Tuple{"Ip1", "Lone"},
		codec.Tuple{"Ip2", "Ltwo"},
		codec.Tuple{"Ip3", "Lthree"}, // no type: drops out
	)
	writeTuples(c, d, "t_pf",
		codec.Tuple{"Ip1", "If1"},
		codec.Tuple{"Ip1", "If2"}, // multi-valued
	)
	return []*starInput{
		{rel: &rel{file: "t_type", cols: []string{"p"}, dict: d}, keyCol: "p"},
		{rel: &rel{file: "t_label", cols: []string{"p", "l"}, dict: d}, keyCol: "p"},
		{rel: &rel{file: "t_pf", cols: []string{"p", "f"}, dict: d}, keyCol: "p", optional: true},
	}
}

// Inner + left-outer star join, reduce-side and map-side must agree.
func TestStarJoinVariantsAgree(t *testing.T) {
	c1, d1 := newCluster(), rdf.NewDict()
	inputs1 := starFixture(c1, d1)
	job1, out1 := starJoinJob("sj", "star-join", inputs1, nil, "out1", 1)
	if _, err := c1.Run(job1); err != nil {
		t.Fatal(err)
	}
	reduceRows := readRows(t, c1, d1, "out1")

	c2, d2 := newCluster(), rdf.NewDict()
	inputs2 := starFixture(c2, d2)
	job2, out2 := starMapJoinJob("sj", "star-map-join", inputs2, 1 /* drive on label */, nil, "out2", 1)
	m, err := c2.Run(job2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.MapOnly {
		t.Error("map join not map-only")
	}
	mapRows := readRows(t, c2, d2, "out2")

	// Expected: p1 x {f1, f2}, p2 with NULL feature; p3 dropped.
	if len(reduceRows) != 3 {
		t.Fatalf("reduce-side rows = %v", reduceRows)
	}
	// Column orders differ between the two variants (driving input first);
	// compare per-subject multiplicity and feature sets instead.
	countBySubject := func(rows []string) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			m[strings.SplitN(r, "|", 2)[0]]++
		}
		return m
	}
	rc, mc := countBySubject(reduceRows), countBySubject(mapRows)
	if rc["Ip1"] != 2 || rc["Ip2"] != 1 || rc["Ip3"] != 0 {
		t.Errorf("reduce-side multiplicities = %v", rc)
	}
	if mc["Ip1"] != rc["Ip1"] || mc["Ip2"] != rc["Ip2"] {
		t.Errorf("map-side multiplicities differ: %v vs %v", mc, rc)
	}
	if len(out1.cols) == 0 || len(out2.cols) == 0 {
		t.Error("output schemas missing")
	}
}

// readRowsAs reads a join output of schema cols like readRows, each row
// permuted into schema want first.
func readRowsAs(t *testing.T, c *mapred.Cluster, d *rdf.Dict, name string, cols, want []string) []string {
	t.Helper()
	var out []string
	for _, row := range readRows(t, c, d, name) {
		fields := strings.Split(row, "|")
		perm := make([]string, len(want))
		for i, col := range want {
			perm[i] = fields[slices.Index(cols, col)]
		}
		out = append(out, strings.Join(perm, "|"))
	}
	sort.Strings(out)
	return out
}

// A binary join is the two-input star join: reduce-side over [right,
// left] and map-side driving on left, it yields the same rows.
func TestJoinJobAndMapJoinAgree(t *testing.T) {
	build := func() (*mapred.Cluster, *rel, *rel) {
		c, d := newCluster(), rdf.NewDict()
		writeTuples(c, d, "L",
			codec.Tuple{"Ia", "L1"},
			codec.Tuple{"Ib", "L2"},
			codec.Tuple{"Ia", "L3"},
		)
		writeTuples(c, d, "R",
			codec.Tuple{"Ix", "Ia"},
			codec.Tuple{"Iy", "Ia"},
			codec.Tuple{"Iz", "Ic"},
		)
		return c, &rel{file: "L", cols: []string{"k", "v"}, dict: d}, &rel{file: "R", cols: []string{"s", "k"}, dict: d}
	}
	c1, l1, r1 := build()
	j1, out1 := starJoinJob("j", "hash-join", []*starInput{{rel: r1, keyCol: "k"}, {rel: l1, keyCol: "k"}}, nil, "out", 1)
	if _, err := c1.Run(j1); err != nil {
		t.Fatal(err)
	}
	c2, l2, r2 := build()
	j2, out2 := starMapJoinJob("j", "map-join", []*starInput{{rel: l2, keyCol: "k"}, {rel: r2, keyCol: "k"}}, 0, nil, "out", 1)
	if _, err := c2.Run(j2); err != nil {
		t.Fatal(err)
	}
	if j1.ReduceOperator != "hash-join" || j2.MapOperator != "map-join" {
		t.Errorf("operators %q and %q", j1.ReduceOperator, j2.MapOperator)
	}
	a, b := readRowsAs(t, c1, l1.dict, "out", out1.cols, out2.cols), readRows(t, c2, l2.dict, "out")
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Errorf("join variants disagree:\n%v\n%v", a, b)
	}
	if len(a) != 4 { // (a,1),(a,3) x (x,y)
		t.Errorf("join rows = %v", a)
	}
}

func TestGroupAggJob(t *testing.T) {
	c, d := newCluster(), rdf.NewDict()
	writeTuples(c, d, "in",
		codec.Tuple{"Ig1", "L10"},
		codec.Tuple{"Ig1", "L20"},
		codec.Tuple{"Ig2", "L5"},
	)
	in := &rel{file: "in", cols: []string{"g", "v"}, dict: d}
	aggs := []algebra.AggSpec{
		{Func: sparql.Count, Var: "v", As: "cnt"},
		{Func: sparql.Avg, Var: "v", As: "avg"},
	}
	job, out := groupAggJob("agg", in, []string{"g"}, aggs, nil, nil, "out")
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	rows := readResultRows(t, c, "out")
	want := []string{"Ig1|2|15", "Ig2|1|5"}
	if strings.Join(rows, ";") != strings.Join(want, ";") {
		t.Errorf("rows = %v", rows)
	}
	if strings.Join(out.cols, ",") != "g,cnt,avg" {
		t.Errorf("schema = %v", out.cols)
	}
}

func TestGroupAggJobGroupByAll(t *testing.T) {
	c, d := newCluster(), rdf.NewDict()
	writeTuples(c, d, "in", codec.Tuple{"L1"}, codec.Tuple{"L2"})
	in := &rel{file: "in", cols: []string{"v"}, dict: d}
	job, _ := groupAggJob("agg", in, nil, []algebra.AggSpec{{Func: sparql.Sum, Var: "v", As: "s"}}, nil, nil, "out")
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	rows := readResultRows(t, c, "out")
	if len(rows) != 1 || rows[0] != "3" {
		t.Errorf("rows = %v", rows)
	}
}

func TestGroupAggValidityFilter(t *testing.T) {
	c, d := newCluster(), rdf.NewDict()
	writeTuples(c, d, "in",
		codec.Tuple{"Ig1", "L10", algebra.Null},
		codec.Tuple{"Ig1", "L20", "Lx"},
	)
	in := &rel{file: "in", cols: []string{"g", "v", "sec"}, dict: d}
	valid := func(row codec.Tuple) bool { return !algebra.IsNull(row[2]) }
	job, _ := groupAggJob("agg", in, []string{"g"}, []algebra.AggSpec{{Func: sparql.Count, Var: "v", As: "c"}}, valid, nil, "out")
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	rows := readResultRows(t, c, "out")
	if len(rows) != 1 || rows[0] != "Ig1|1" {
		t.Errorf("rows = %v", rows)
	}
}

func TestDistinctJob(t *testing.T) {
	c, d := newCluster(), rdf.NewDict()
	writeTuples(c, d, "in",
		codec.Tuple{"Ia", "L1", "Ljunk1"},
		codec.Tuple{"Ia", "L1", "Ljunk2"}, // same after projection
		codec.Tuple{"Ib", "L2", "Ljunk3"},
	)
	in := &rel{file: "in", cols: []string{"s", "v", "junk"}, dict: d}
	job, out := distinctJob("d", in, []string{"s", "v"}, nil, "out")
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	rows := readRows(t, c, d, "out")
	if strings.Join(rows, ";") != "Ia|L1;Ib|L2" {
		t.Errorf("rows = %v", rows)
	}
	if strings.Join(out.cols, ",") != "s,v" {
		t.Errorf("schema = %v", out.cols)
	}
}

// A reduce-side star join reads each file once, however many of its
// inputs share it, and returns the map-side rows: a star of two
// constant-object patterns on one property, and a chain joining a table
// with itself.
func TestStarJoinReadsSharedFileOnce(t *testing.T) {
	c, d := newCluster(), rdf.NewDict()
	writeTuples(c, d, "tag", codec.Tuple{"Ia", "Ix"}, codec.Tuple{"Ia", "Iy"}, codec.Tuple{"Ib", "Ix"}, codec.Tuple{"Ic", "Iy"})
	writeTuples(c, d, "val", codec.Tuple{"Ia", "L1"}, codec.Tuple{"Ib", "L2"}, codec.Tuple{"Ic", "L3"})
	writeTuples(c, d, "knows", codec.Tuple{"Ia", "Ib"}, codec.Tuple{"Ib", "Ic"}, codec.Tuple{"Ib", "Ia"})
	tagged := func(o string) *starInput {
		return &starInput{rel: &rel{file: "tag", cols: []string{"s", ""}, consts: []constCheck{{pos: 1, want: d.AddString(o)}}, dict: d}, keyCol: "s"}
	}
	for _, tc := range []struct {
		name    string
		inputs  []*starInput
		driving int
		files   []string
		want    []string
	}{
		{"two constants on one property", []*starInput{tagged("Ix"), tagged("Iy"), {rel: &rel{file: "val", cols: []string{"s", "v"}, dict: d}, keyCol: "s"}},
			2, []string{"tag", "val"}, []string{"Ia|L1"}},
		{"self-join", []*starInput{{rel: &rel{file: "knows", cols: []string{"y", "z"}, dict: d}, keyCol: "y"}, {rel: &rel{file: "knows", cols: []string{"x", "y"}, dict: d}, keyCol: "y"}},
			1, []string{"knows"}, []string{"Ia|Ib|Ib", "Ib|Ia|Ia", "Ib|Ia|Ic"}}, // y, x, z
	} {
		t.Run(tc.name, func(t *testing.T) {
			reduce, rout := starJoinJob("sj-"+tc.name, "star-join", tc.inputs, nil, "reduce-"+tc.name, 1)
			if !slices.Equal(reduce.Inputs, tc.files) {
				t.Errorf("reduce-side join reads %v, want %v", reduce.Inputs, tc.files)
			}
			mapSide, mout := starMapJoinJob("smj-"+tc.name, "star-map-join", tc.inputs, tc.driving, nil, "map-"+tc.name, 1)
			for _, job := range []*mapred.Job{reduce, mapSide} {
				if _, err := c.Run(job); err != nil {
					t.Fatal(err)
				}
			}
			got := readRowsAs(t, c, d, rout.file, rout.cols, mout.cols)
			if want := readRows(t, c, d, mout.file); !slices.Equal(got, want) || !slices.Equal(want, tc.want) {
				t.Errorf("reduce-side rows %q, map-side %q, want %q", got, want, tc.want)
			}
		})
	}
}

func TestMapJoinThresholdScalesWithData(t *testing.T) {
	cfg := mapred.DefaultConfig()
	cfg.DataScale = 1000
	c := mapred.NewCluster(cfg)
	w, err := c.FS.Create("f", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, 1<<10)) // 1024B -> 1,024,000B at paper scale
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	conf := DefaultConfig()
	if got := conf.storedSize(c, "f"); got != 1024*1000 {
		t.Errorf("scaled stored size = %d, want %d", got, 1024*1000)
	}
	if got := conf.storedSize(c, "missing"); got < 1<<60 {
		t.Errorf("missing file size = %d, want huge", got)
	}
}

// A broadcast side record that does not decode fails a map join, naming
// the side file, also when the driving input is
// empty, so no Map call ever sees the index; a side record the scan drops
// does not.
func TestMapJoinFailsOnUndecodableSideRecord(t *testing.T) {
	for _, tc := range []struct {
		name    string
		driving []codec.Tuple
		corrupt bool
	}{
		{"corrupt side", []codec.Tuple{{"Ia", "L1"}, {"Ib", "L2"}}, true},
		{"corrupt side, empty driving input", nil, true},
		{"side row of the wrong width", []codec.Tuple{{"Ia", "L1"}}, false},
	} {
		c := newCluster()
		d := rdf.NewDict()
		writeTuples(c, d, "drv", tc.driving...)
		w, err := c.FS.Create("side", 1)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(idRow(d, codec.Tuple{"Ia", "Lx"}).EncodeIDs())
		w.Write(idRow(d, codec.Tuple{"Ib", "Ly"}).EncodeIDs())
		if tc.corrupt {
			w.Write(append(idRow(d, codec.Tuple{"Ib", "Lz"}).EncodeIDs(), 0))
		} else {
			w.Write(idRow(d, codec.Tuple{"Ib", "Lz", "Lw"}).EncodeIDs())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		left := &rel{file: "drv", cols: []string{"k", "v"}, dict: d}
		right := &rel{file: "side", cols: []string{"k", "w"}, dict: d}
		job, _ := starMapJoinJob("j", "map-join", []*starInput{{rel: left, keyCol: "k"}, {rel: right, keyCol: "k"}}, 0, nil, "out", 1)
		_, err = c.Run(job)
		switch {
		case !tc.corrupt && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.corrupt && (err == nil || !strings.Contains(err.Error(), "broadcast side side")):
			t.Errorf("%s: error %v, want one naming the side file", tc.name, err)
		}
	}
}

// Every Hive stage's job is built once, at plan time: the stage returns
// that one job on every call, writing the path Add named and reading the
// files the stage lists.
func TestStageJobsBuiltAtPlanTime(t *testing.T) {
	g := &rdf.Graph{}
	e := func(n string) rdf.Term { return rdf.NewIRI("http://e/" + n) }
	for i := range 4 {
		s := e(fmt.Sprint("s", i))
		g.Add(rdf.T(s, e("g"), e(fmt.Sprint("g", i%2))), rdf.T(s, e("x"), rdf.NewLiteral(fmt.Sprint(i))))
		if i%2 == 0 {
			g.Add(rdf.T(s, e("y"), rdf.NewLiteral("y")))
		}
	}
	c := newCluster()
	ds, err := engine.Load(c, "t", rdf.Intern(g, rdf.NewDict()))
	if err != nil {
		t.Fatal(err)
	}
	aq, err := algebra.Build(sparql.MustParse(`PREFIX e: <http://e/>
SELECT ?g ?n ?m {
  { SELECT ?g (COUNT(?x) AS ?n) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g }
  { SELECT ?g (COUNT(?y) AS ?m) { ?s e:g ?g ; e:x ?x ; e:y ?y . } GROUP BY ?g }
} ORDER BY ?g`))
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []engine.Engine{NewNaive(), NewMQO()} {
		p, err := eng.Plan(c, ds, aq)
		if err != nil {
			t.Fatal(err)
		}
		hive := 0
		for _, st := range p.Stages {
			if st.Op == "final-join" || st.Op == "order-by" {
				continue // the engine package's finish path
			}
			hive++
			job := st.Job(st.Out)
			if again := st.Job(st.Out); again != job {
				t.Errorf("%s: stage %s built its job twice", eng.Name(), st.Name)
			}
			if job.Output != st.Out {
				t.Errorf("%s: stage %s writes %s, Add named %s", eng.Name(), st.Name, job.Output, st.Out)
			}
			if reads := slices.Concat(job.Inputs, job.SideInputs); !slices.Equal(st.Reads, reads) {
				t.Errorf("%s: stage %s lists %v, its job reads %v", eng.Name(), st.Name, st.Reads, reads)
			}
		}
		if hive < 2 {
			t.Errorf("%s: %d Hive stages, want several", eng.Name(), hive)
		}
	}
}
