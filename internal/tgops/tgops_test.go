package tgops

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

func newCluster() *mapred.Cluster {
	cfg := mapred.DefaultConfig()
	cfg.ExecSplitBytes = 128
	return mapred.NewCluster(cfg)
}

// writeTGs stores term-key fixtures the way store.WriteTG does: interned
// into d and ID-encoded.
func writeTGs(c *mapred.Cluster, d *rdf.Dict, name string, tgs ...ntga.TripleGroup) {
	w, err := c.FS.Create(name, 1)
	if err != nil {
		panic(err)
	}
	for i := range tgs {
		idtg := intern(tgs[i], d)
		w.Write(idtg.EncodeIDs())
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
}

// intern returns the term-key triplegroup g with every field replaced by
// its ID-string in d, registering terms d has not seen; properties are
// registered as IRI terms, as rdf.Intern does at load.
func intern(g ntga.TripleGroup, d *rdf.Dict) ntga.TripleGroup {
	out := ntga.TripleGroup{Subject: d.AddString(g.Subject), Triples: make([]ntga.PO, len(g.Triples))}
	for i, po := range g.Triples {
		out.Triples[i] = ntga.PO{Prop: d.AddString("I" + po.Prop), Obj: d.AddString(po.Obj)}
	}
	return out
}

// tg builds a triplegroup in term-key form (see writeTGs).
func tg(subject string, pos ...[2]string) ntga.TripleGroup {
	g := ntga.TripleGroup{Subject: "I" + subject}
	for _, po := range pos {
		g.Triples = append(g.Triples, ntga.PO{Prop: po[0], Obj: po[1]})
	}
	return g
}

// lex decodes an ID-string of d back to its term key.
func lex(t *testing.T, d *rdf.Dict, idStr string) string {
	t.Helper()
	key, ok := d.Lex(idStr)
	if !ok {
		t.Fatalf("ID-string %q not in dictionary", idStr)
	}
	return key
}

func readAnnTGs(t *testing.T, c *mapred.Cluster, d *rdf.Dict, name string) []ntga.AnnTG {
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
	out := make([]ntga.AnnTG, 0, len(recs))
	for _, rec := range recs {
		a, err := ntga.DecodeAnnTGIDs(rec, d)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out = append(out, a)
	}
	return out
}

// Subject-object join between a product star and an offer star.
func TestAlphaJoinSubjectObject(t *testing.T) {
	c, d := newCluster(), rdf.NewDict()
	writeTGs(c, d, "prods",
		tg("p1", [2]string{"type", "IPT1"}, [2]string{"pf", "If1"}),
		tg("p2", [2]string{"type", "IPT1"}),
		tg("p3", [2]string{"type", "IPT9"}), // filtered by prim
	)
	writeTGs(c, d, "offers",
		tg("o1", [2]string{"product", "Ip1"}, [2]string{"price", "L10"}),
		tg("o2", [2]string{"product", "Ip2"}, [2]string{"price", "L20"}),
		tg("o3", [2]string{"product", "Ip9"}, [2]string{"price", "L30"}), // dangling
	)
	left := JoinSide{
		Src: Source{Files: []string{"prods"}, Dict: d, Scan: &ScanSpec{
			Star: 0,
			Prim: []algebra.PropRef{{Prop: "type", Obj: rdf.NewIRI("PT1")}},
			Opt:  []algebra.PropRef{{Prop: "pf"}},
		}},
		Ep: Endpoint{Star: 0, Role: algebra.RoleSubject},
	}
	right := JoinSide{
		Src: Source{Files: []string{"offers"}, Dict: d, Scan: &ScanSpec{
			Star: 1,
			Prim: []algebra.PropRef{{Prop: "product"}, {Prop: "price"}},
		}},
		Ep: Endpoint{Star: 1, Role: algebra.RoleObject, Props: []algebra.PropRef{{Prop: "product"}}},
	}
	job := AlphaJoinJob("j", left, right, nil, "out")
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	got := readAnnTGs(t, c, d, "out")
	if len(got) != 2 {
		t.Fatalf("joined = %d, want 2", len(got))
	}
	for _, a := range got {
		if len(a.Stars) != 2 {
			t.Errorf("joined stars = %v", a.Stars)
		}
	}
}

// Object-object joins emit one key per matching object (Algorithm 2's
// objList) and join on value equality.
func TestAlphaJoinObjectObject(t *testing.T) {
	c, d := newCluster(), rdf.NewDict()
	writeTGs(c, d, "bio",
		tg("b1", [2]string{"gi", "L100"}, [2]string{"gi", "L200"}),
	)
	writeTGs(c, d, "prot",
		tg("u1", [2]string{"gi", "L200"}),
		tg("u2", [2]string{"gi", "L300"}),
	)
	left := JoinSide{
		Src: Source{Files: []string{"bio"}, Dict: d, Scan: &ScanSpec{Star: 0, Prim: []algebra.PropRef{{Prop: "gi"}}}},
		Ep:  Endpoint{Star: 0, Role: algebra.RoleObject, Props: []algebra.PropRef{{Prop: "gi"}}},
	}
	right := JoinSide{
		Src: Source{Files: []string{"prot"}, Dict: d, Scan: &ScanSpec{Star: 1, Prim: []algebra.PropRef{{Prop: "gi"}}}},
		Ep:  Endpoint{Star: 1, Role: algebra.RoleObject, Props: []algebra.PropRef{{Prop: "gi"}}},
	}
	if _, err := c.Run(AlphaJoinJob("j", left, right, nil, "out")); err != nil {
		t.Fatal(err)
	}
	got := readAnnTGs(t, c, d, "out")
	if len(got) != 1 {
		t.Fatalf("joined = %d, want 1 (b1 ⋈ u1 via gi=200)", len(got))
	}
}

// Both sides reading the same equivalence-class file must each see it.
func TestAlphaJoinSharedFile(t *testing.T) {
	c, d := newCluster(), rdf.NewDict()
	// One class holds subjects with both p and q.
	writeTGs(c, d, "shared",
		tg("x1", [2]string{"p", "Iy1"}, [2]string{"q", "L5"}),
		tg("y1", [2]string{"p", "Iz"}, [2]string{"q", "L7"}),
	)
	left := JoinSide{
		Src: Source{Files: []string{"shared"}, Dict: d, Scan: &ScanSpec{Star: 0, Prim: []algebra.PropRef{{Prop: "p"}}}},
		Ep:  Endpoint{Star: 0, Role: algebra.RoleObject, Props: []algebra.PropRef{{Prop: "p"}}},
	}
	right := JoinSide{
		Src: Source{Files: []string{"shared"}, Dict: d, Scan: &ScanSpec{Star: 1, Prim: []algebra.PropRef{{Prop: "q"}}}},
		Ep:  Endpoint{Star: 1, Role: algebra.RoleSubject},
	}
	job := AlphaJoinJob("j", left, right, nil, "out")
	if len(job.Inputs) != 1 {
		t.Fatalf("inputs = %v, want deduplicated", job.Inputs)
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	got := readAnnTGs(t, c, d, "out")
	// x1's p object Iy1 joins y1's subject.
	if len(got) != 1 {
		t.Fatalf("joined = %d, want 1", len(got))
	}
	if comp, ok := got[0].Component(1); !ok || lex(t, d, comp.Subject) != "Iy1" {
		t.Errorf("component 1 = %v, %v", comp, ok)
	}
}

// Property-level filters drop triples and then whole triplegroups when a
// primary property loses its last triple.
func TestScanPropFilters(t *testing.T) {
	spec := &ScanSpec{
		Star: 0,
		Prim: []algebra.PropRef{{Prop: "price"}},
		Filters: []PropFilter{{
			Prop:   "price",
			Filter: sparql.Filter{Kind: sparql.FilterCompare, Var: "p", Op: ">", Value: "15", IsNumeric: true},
		}},
	}
	d := rdf.NewDict()
	src := Source{Scan: spec, Dict: d}
	keep := intern(tg("o1", [2]string{"price", "L10"}, [2]string{"price", "L20"}), d)
	a, ok, err := src.scanner().annTGOf(keep.EncodeIDs())
	if err != nil || !ok {
		t.Fatalf("annTGOf: %v %v", ok, err)
	}
	if len(a.TGs[0].Triples) != 1 || lex(t, d, a.TGs[0].Triples[0].Obj) != "L20" {
		t.Errorf("filtered triples = %v", a.TGs[0].Triples)
	}
	drop := intern(tg("o2", [2]string{"price", "L5"}), d)
	if _, ok, err := src.scanner().annTGOf(drop.EncodeIDs()); err != nil || ok {
		t.Errorf("triplegroup with no surviving primary triple passed: %v %v", ok, err)
	}
}

func aggSpecs(tagged bool) []AggJoinSpec {
	tps := map[int][]sparql.TriplePattern{0: {
		{S: sparql.V("s"), P: sparql.C(rdf.NewIRI("price")), O: sparql.V("pr")},
	}}
	count := []algebra.AggSpec{{Func: sparql.Count, Var: "pr", As: "cnt"}}
	sum := []algebra.AggSpec{{Func: sparql.Sum, Var: "pr", As: "sum"}}
	if !tagged {
		return []AggJoinSpec{{GroupVars: []string{"s"}, Aggs: count, TPs: tps}}
	}
	return []AggJoinSpec{
		{GroupVars: []string{"s"}, Aggs: count, TPs: tps},
		{GroupVars: nil, Aggs: sum, TPs: tps},
	}
}

func aggInput(c *mapred.Cluster) Source {
	d := rdf.NewDict()
	writeTGs(c, d, "in",
		tg("a", [2]string{"price", "L10"}, [2]string{"price", "L20"}),
		tg("b", [2]string{"price", "L5"}),
	)
	return Source{Files: []string{"in"}, Dict: d, Scan: &ScanSpec{Star: 0, Prim: []algebra.PropRef{{Prop: "price"}}}}
}

func readTuples(t *testing.T, c *mapred.Cluster, name string) []string {
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
	var out []string
	for _, rec := range recs {
		tu, err := codec.DecodeTuple(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, strings.Join(tu, "|"))
	}
	sort.Strings(out)
	return out
}

func TestAggJoinUntagged(t *testing.T) {
	for _, hash := range []bool{false, true} {
		c := newCluster()
		src := aggInput(c)
		job := AggJoinJob("agg", src, aggSpecs(false), hash, "out")
		m, err := c.Run(job)
		if err != nil {
			t.Fatalf("hash=%v: %v", hash, err)
		}
		got := readTuples(t, c, "out")
		want := []string{"Ia|2", "Ib|1"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("hash=%v: rows = %v", hash, got)
		}
		if m.MapEmitRecords == 0 {
			t.Error("no emit accounting")
		}
	}
}

// Hash pre-aggregation emits fewer map records than the combiner path for
// skewed groups — the Algorithm 3 benefit the cost model charges for.
func TestAggJoinHashEmitsLess(t *testing.T) {
	run := func(hash bool) int64 {
		c, d := newCluster(), rdf.NewDict()
		// All triples in one group: hash agg should emit once per task.
		g := tg("only")
		for i := 0; i < 50; i++ {
			g.Triples = append(g.Triples, ntga.PO{Prop: "price", Obj: "L1"})
		}
		writeTGs(c, d, "in", g)
		src := Source{Files: []string{"in"}, Dict: d, Scan: &ScanSpec{Star: 0, Prim: []algebra.PropRef{{Prop: "price"}}}}
		m, err := c.Run(AggJoinJob("agg", src, aggSpecs(false), hash, "out"))
		if err != nil {
			t.Fatal(err)
		}
		return m.MapEmitRecords
	}
	hashEmits, combEmits := run(true), run(false)
	if hashEmits >= combEmits {
		t.Errorf("hash agg emitted %d records, combiner path %d; want fewer", hashEmits, combEmits)
	}
}

func TestAggJoinTaggedParallel(t *testing.T) {
	c := newCluster()
	src := aggInput(c)
	job := AggJoinJob("agg", src, aggSpecs(true), true, "out")
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	got := readTuples(t, c, "out")
	// id 0: per-subject counts; id 1: one SUM-ALL row (10+20+5=35).
	want := []string{"0|Ia|2", "0|Ib|1", "1|35"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("rows = %v", got)
	}
}

func TestAggJoinAlphaGate(t *testing.T) {
	c := newCluster()
	src := aggInput(c)
	specs := aggSpecs(false)
	ib := src.Dict.KeyString("Ib")
	specs[0].Alpha = func(a *ntga.AnnTG) bool { return a.TGs[0].Subject != ib }
	if _, err := c.Run(AggJoinJob("agg", src, specs, true, "out")); err != nil {
		t.Fatal(err)
	}
	got := readTuples(t, c, "out")
	if len(got) != 1 || got[0] != "Ia|2" {
		t.Errorf("rows = %v", got)
	}
}

func TestJoinKeysMissingStar(t *testing.T) {
	d := rdf.NewDict()
	a := ntga.NewAnnTG(0, intern(tg("x", [2]string{"p", "Iy"}, [2]string{"q", "Iy"}, [2]string{"p", "Iz"}, [2]string{"p", "Iy"}), d))
	if keys := appendJoinKeys(nil, &a, Endpoint{Star: 3, Role: algebra.RoleSubject}, nil); keys != nil {
		t.Errorf("keys for missing star = %v", keys)
	}
	// One key per distinct object, across carrying properties and repeated
	// triples, appended behind what dst already holds.
	ep := Endpoint{Star: 0, Role: algebra.RoleObject, Props: []algebra.PropRef{{Prop: "p"}, {Prop: "q"}}}
	keys := appendJoinKeys([]string{"kept"}, &a, ep, ep.planeProps(d))
	if len(keys) != 3 || keys[0] != "kept" {
		t.Fatalf("object keys = %q", keys)
	}
	got := []string{lex(t, d, keys[1]), lex(t, d, keys[2])}
	sort.Strings(got)
	if strings.Join(got, ",") != "Iy,Iz" {
		t.Errorf("object keys = %v, want Iy and Iz once each", got)
	}
}

// emitted is one map emit, its value copied when it was made.
type emitted struct {
	key   string
	value []byte
}

// collect returns an Emit that copies what it is given, as the framework
// does with every emit.
func collect(out *[]emitted) mapred.Emit {
	return func(key string, value []byte) {
		*out = append(*out, emitted{key: key, value: append([]byte(nil), value...)})
	}
}

// The scanner decodes every record into the same scratch: the result for
// record B must be B's alone, and what a mapper emitted for record A must
// be A's, encoded in full before B overwrites the scratch — on the raw path
// (projected and filtered into the second scratch slice) and on the joined
// path.
func TestScannerScratchDoesNotLeakAcrossRecords(t *testing.T) {
	d := rdf.NewDict()
	recA := intern(tg("a", [2]string{"price", "L10"}, [2]string{"price", "L20"}, [2]string{"pf", "If1"}, [2]string{"junk", "Lx"}), d)
	recB := intern(tg("b", [2]string{"junk", "Ly"}, [2]string{"price", "L5"}), d)
	scan := &ScanSpec{Star: 0, Prim: []algebra.PropRef{{Prop: "price"}}, Opt: []algebra.PropRef{{Prop: "pf"}}}

	sc := (&Source{Scan: scan, Dict: d}).scanner()
	if _, ok, err := sc.annTGOf(recA.EncodeIDs()); err != nil || !ok {
		t.Fatalf("annTGOf(A): %v %v", ok, err)
	}
	b, ok, err := sc.annTGOf(recB.EncodeIDs())
	if err != nil || !ok {
		t.Fatalf("annTGOf(B): %v %v", ok, err)
	}
	if len(b.Stars) != 1 || b.Stars[0] != 0 || lex(t, d, b.TGs[0].Subject) != "Ib" ||
		len(b.TGs[0].Triples) != 1 || lex(t, d, b.TGs[0].Triples[0].Obj) != "L5" {
		t.Errorf("B after A = %+v, want subject Ib with the one price triple", b)
	}

	// α-join map side: A's emits, then B's.
	left := JoinSide{Src: Source{Files: []string{"in"}, Dict: d, Scan: scan}, Ep: Endpoint{Star: 0, Role: algebra.RoleObject, Props: []algebra.PropRef{{Prop: "price"}}}}
	right := JoinSide{Src: Source{Files: []string{"other"}, Dict: d, Scan: scan}, Ep: Endpoint{Star: 1, Role: algebra.RoleSubject}}
	var out []emitted
	m := AlphaJoinJob("j", left, right, nil, "out").NewMapper(&mapred.TaskContext{InputFile: "in"})
	if err := m.Map(recA.EncodeIDs(), collect(&out)); err != nil {
		t.Fatal(err)
	}
	nA := len(out)
	if nA != 2 {
		t.Fatalf("A emitted %d join keys, want 2 (L10, L20)", nA)
	}
	if err := m.Map(recB.EncodeIDs(), collect(&out)); err != nil {
		t.Fatal(err)
	}
	for i, e := range out {
		a, err := ntga.DecodeAnnTGIDs(e.value[1:], d)
		if err != nil {
			t.Fatal(err)
		}
		wantSubject, wantTriples := "Ia", 3
		if i >= nA {
			wantSubject, wantTriples = "Ib", 1
		}
		if lex(t, d, a.TGs[0].Subject) != wantSubject || len(a.TGs[0].Triples) != wantTriples {
			t.Errorf("emit %d = %+v, want %s with %d triples", i, a, wantSubject, wantTriples)
		}
	}

	// Joined (AnnTG) input and the combiner path of TG_AgJ: A's partial
	// states are A's.
	joined := func(g ntga.TripleGroup) []byte {
		a := ntga.AnnTG{Stars: []int{0, 1}, TGs: []ntga.TripleGroup{g, intern(tg("o", [2]string{"q", "L1"}), d)}}
		return a.EncodeIDs()
	}
	out = nil
	am := AggJoinJob("agg", Source{Files: []string{"in"}, Dict: d}, aggSpecs(false), false, "out").NewMapper(&mapred.TaskContext{InputFile: "in"})
	if err := am.Map(joined(recA), collect(&out)); err != nil {
		t.Fatal(err)
	}
	if err := am.Map(joined(recB), collect(&out)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("TG_AgJ emitted %d solutions, want 3", len(out))
	}
	for i, e := range out {
		wantKey := "Ia"
		if i == 2 {
			wantKey = "Ib"
		}
		if lex(t, d, e.key) != wantKey {
			t.Errorf("TG_AgJ emit %d key = %q, want %s", i, lex(t, d, e.key), wantKey)
		}
	}
}

// The per-record paths allocate nothing once the task's scratch has grown
// to its records: the fused scan of a raw triplegroup, TG_AgJ's Map folding
// a solution into a group the pre-aggregation table already holds, the
// α-join mapper's key extraction and its reducer's pairing.
func TestMapSideAllocations(t *testing.T) {
	d := rdf.NewDict()
	// Term IDs from 128 up take two uvarint bytes. The runtime converts a
	// one-byte slice to a string without allocating, which would hide a
	// per-field copy on the decode path.
	for i := range 200 {
		d.Add("Lpad" + strconv.Itoa(i))
	}
	g := intern(tg("a", [2]string{"price", "L10"}, [2]string{"price", "L20"}, [2]string{"junk", "Lx"}), d)
	rec := g.EncodeIDs()
	src := Source{Files: []string{"in"}, Dict: d, Scan: &ScanSpec{Star: 0, Prim: []algebra.PropRef{{Prop: "price"}}}}
	sc := src.scanner()
	m := AggJoinJob("agg", src, aggSpecs(true), true, "out").NewMapper(&mapred.TaskContext{InputFile: "in"})
	a, b := ntga.NewAnnTG(0, g), ntga.NewAnnTG(1, g)
	price := []string{g.Triples[0].Prop}
	group := [][]byte{a.AppendEncodeIDs([]byte{0}), b.AppendEncodeIDs([]byte{1})}
	red := &alphaJoinReducer{dict: d}
	emits := 0
	emit := func(string, []byte) { emits++ }
	var keys []string
	for _, c := range []struct {
		name  string
		emits int // per call
		run   func() error
	}{
		{"scanner.annTGOf", 0, func() error {
			_, ok, err := sc.annTGOf(rec)
			if !ok {
				t.Fatal("annTGOf dropped the triplegroup")
			}
			return err
		}},
		// Hash aggregation emits nothing before Close.
		{"aggJoinMapper.Map", 0, func() error { return m.Map(rec, emit) }},
		{"appendJoinKeys", 0, func() error {
			if keys = appendJoinKeys(keys[:0], &a, Endpoint{Star: 0, Role: algebra.RoleObject}, price); len(keys) != 2 {
				t.Fatalf("join keys %q, want two prices", keys)
			}
			return nil
		}},
		{"alphaJoinReducer.Reduce", 1, func() error { return red.Reduce("k", group, emit) }},
	} {
		emits = 0
		if err := c.run(); err != nil || emits != c.emits {
			t.Fatalf("%s: %d emits, want %d: %v", c.name, emits, c.emits, err)
		}
		if n := testing.AllocsPerRun(100, func() { c.run() }); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}
}
