// Package integration cross-validates the four evaluated engines against
// the in-memory oracle on hand-built graphs, and asserts the MR-cycle
// counts the paper reports in §5.2.
package integration

import (
	"slices"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/core"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/hive"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rapid"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

// ecommerceGraph builds the shared test fixture (same shape as the
// refimpl tests, plus vendors and countries).
func ecommerceGraph() *rdf.Graph {
	g := &rdf.Graph{}
	prod := func(name, typ string, features ...string) {
		g.Add(rdf.T(iri(name), rdf.TypeTerm, iri(typ)))
		g.Add(rdf.T(iri(name), iri("label"), lit("label-"+name)))
		for _, f := range features {
			g.Add(rdf.T(iri(name), iri("pf"), iri(f)))
		}
	}
	offer := func(name, product, price, vendor string) {
		g.Add(rdf.T(iri(name), iri("product"), iri(product)))
		g.Add(rdf.T(iri(name), iri("price"), lit(price)))
		g.Add(rdf.T(iri(name), iri("vendor"), iri(vendor)))
	}
	vendor := func(name, country string) {
		g.Add(rdf.T(iri(name), iri("country"), lit(country)))
		g.Add(rdf.T(iri(name), iri("label"), lit("vendor-"+name)))
	}
	prod("p1", "PT1", "f1", "f2")
	prod("p2", "PT1", "f1")
	prod("p3", "PT1")
	prod("p4", "PT2", "f1")
	prod("p5", "PT1", "f2", "f3")
	offer("o1", "p1", "10", "v1")
	offer("o2", "p1", "20", "v1")
	offer("o3", "p2", "40", "v2")
	offer("o4", "p3", "100", "v1")
	offer("o5", "p4", "7", "v2")
	offer("o6", "p5", "25", "v3")
	offer("o7", "p5", "35", "v2")
	vendor("v1", "UK")
	vendor("v2", "DE")
	vendor("v3", "UK")
	return g
}

const prefix = "PREFIX e: <http://e/>\n"

// queries exercised on every engine. Shapes mirror the paper's catalog:
// MG1 (2-star overlap, GROUP BY ALL roll-up), MG3 (3-star overlap with a
// shared grouping column), a single-grouping G-style query, filters, and
// non-overlapping patterns (engines must fall back).
var queries = map[string]string{
	"mg1": prefix + `SELECT ?f ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:pf ?f .
      ?off2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?off1 e:product ?p1 ; e:price ?pr . } }
}`,
	"mg3": prefix + `SELECT ?f ?c ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f ?c (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:pf ?f .
      ?off2 e:product ?p2 ; e:price ?pr2 ; e:vendor ?v2 .
      ?v2 e:country ?c . } GROUP BY ?f ?c }
  { SELECT ?c (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?off1 e:product ?p1 ; e:price ?pr ; e:vendor ?v1 .
      ?v1 e:country ?c . } GROUP BY ?c }
}`,
	"g3-style": prefix + `SELECT ?f (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {
  ?p a e:PT1 ; e:label ?l ; e:pf ?f .
  ?off e:product ?p ; e:price ?pr .
} GROUP BY ?f`,
	"g1-style-all": prefix + `SELECT (COUNT(?pr) AS ?cnt) (AVG(?pr) AS ?avg) {
  ?p a e:PT1 ; e:label ?l .
  ?off e:product ?p ; e:price ?pr .
}`,
	"filtered": prefix + `SELECT ?f (COUNT(?pr) AS ?cnt) {
  ?p a e:PT1 ; e:pf ?f .
  ?off e:product ?p ; e:price ?pr .
  FILTER (?pr > 15)
} GROUP BY ?f`,
	"regex-filtered": prefix + `SELECT ?p (COUNT(?l) AS ?cnt) {
  ?p a e:PT1 ; e:label ?l .
  FILTER regex(?l, "label-p[125]", "i")
} GROUP BY ?p`,
	"minmax": prefix + `SELECT ?f ?lo ?hi ?cntT {
  { SELECT ?f (MIN(?pr2) AS ?lo) (MAX(?pr2) AS ?hi)
    { ?p2 a e:PT1 ; e:pf ?f . ?off2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr . } }
}`,
	"ratio-expr": prefix + `SELECT ?f ((?sumF/?cntF) / (?sumT/?cntT) AS ?ratio) {
  { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:pf ?f . ?off2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr . } }
}`,
	"non-overlapping": prefix + `SELECT ?f ?cntF ?cntV {
  { SELECT ?f (COUNT(?p2) AS ?cntF) { ?p2 a e:PT1 ; e:pf ?f . } GROUP BY ?f }
  { SELECT (COUNT(?c) AS ?cntV) { ?v e:country ?c ; e:label ?lv . } }
}`,
	"empty-all-side": prefix + `SELECT ?f ?cntF ?cntT {
  { SELECT ?f (COUNT(?p2) AS ?cntF) { ?p2 a e:PT1 ; e:pf ?f . } GROUP BY ?f }
  { SELECT (COUNT(?x) AS ?cntT) { ?p1 a e:PT9 ; e:pf ?x . } }
}`,
	"count-distinct": prefix + `SELECT ?c ?nv ?cntT {
  { SELECT ?c (COUNT(DISTINCT ?p2) AS ?nv)
    { ?off2 e:product ?p2 ; e:vendor ?v2 . ?v2 e:country ?c . } GROUP BY ?c }
  { SELECT (COUNT(DISTINCT ?p) AS ?cntT) { ?off e:product ?p ; e:price ?pr . } }
}`,
	"sum-distinct": prefix + `SELECT ?f (SUM(DISTINCT ?pr) AS ?s) {
  ?p a e:PT1 ; e:pf ?f .
  ?off e:product ?p ; e:price ?pr .
} GROUP BY ?f`,
	"shared-grouping-join": prefix + `SELECT ?c ?cntC ?cntT {
  { SELECT ?c (COUNT(?pr2) AS ?cntC)
    { ?off2 e:product ?p2 ; e:price ?pr2 ; e:vendor ?v2 . ?v2 e:country ?c . } GROUP BY ?c }
  { SELECT ?c (COUNT(?v) AS ?cntT)
    { ?v e:country ?c ; e:label ?lv . } GROUP BY ?c }
}`,
}

func engines() []engine.Engine {
	return []engine.Engine{hive.NewNaive(), hive.NewMQO(), rapid.New(), core.New()}
}

func setup(t *testing.T, g *rdf.Graph) (*mapred.Cluster, *engine.Dataset) {
	t.Helper()
	cfg := mapred.DefaultConfig()
	cfg.ExecSplitBytes = 256 // force several map tasks even on tiny data
	c := mapred.NewCluster(cfg)
	ds, err := engine.Load(c, "test", rdf.Intern(g, rdf.NewDict()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return c, ds
}

// checkClean fails t unless c's FS is as every execution must leave it: no
// File or Writer open, no stream live, and no intermediate (tmp/) or spill
// run (_spill/) left behind but those named in undeletable, the files
// whose delete was made to fail.
func checkClean(t *testing.T, c *mapred.Cluster, what string, undeletable ...string) {
	t.Helper()
	if n := c.FS.OpenHandles(); n != 0 {
		t.Errorf("%s: %d DFS handles left open", what, n)
	}
	if n := c.FS.LiveStreams(); n != 0 {
		t.Errorf("%s: %d streams left live", what, n)
	}
	for _, name := range append(c.FS.List("tmp/"), c.FS.List("_spill/")...) {
		if !slices.Contains(undeletable, name) {
			t.Errorf("%s: %s left behind", what, name)
		}
	}
}

// oracle evaluates query qs over g on the reference implementation, g's
// statements interned into a dictionary of their own.
func oracle(t *testing.T, g *rdf.Graph, qs string) *engine.Result {
	t.Helper()
	d := rdf.NewDict()
	res, err := refimpl.Execute(sparql.MustParse(qs), d, rdf.InternTriples(d, nil, g.Triples))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return res
}

func buildAQ(t *testing.T, qs string) *algebra.AnalyticalQuery {
	t.Helper()
	q, err := sparql.Parse(qs)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	aq, err := algebra.Build(q)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return aq
}

// TestEnginesMatchOracle is the central correctness gate: every engine
// returns exactly the oracle's rows on every catalog shape.
func TestEnginesMatchOracle(t *testing.T) {
	g := ecommerceGraph()
	for name, qs := range queries {
		t.Run(name, func(t *testing.T) {
			aq := buildAQ(t, qs)
			want := oracle(t, g, qs)
			if name != "empty-all-side" && len(want.Rows) == 0 {
				t.Fatalf("oracle returned no rows; weak test fixture")
			}
			for _, e := range engines() {
				c, ds := setup(t, g)
				got, wm, err := engine.Execute(c, ds, e, aq)
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				if diff := want.Diff(got); diff != "" {
					t.Errorf("%s differs from oracle: %s", e.Name(), diff)
				}
				if wm.Cycles() == 0 {
					t.Errorf("%s: no cycles recorded", e.Name())
				}
				checkClean(t, c, e.Name())
			}
		})
	}
}

// TestCycleCounts asserts the MR-cycle counts the paper quotes in §5.2 on
// the engines' plans, without running them; the root package's
// TestPredictCyclesMatchesExecution checks plans against executions.
func TestCycleCounts(t *testing.T) {
	g := ecommerceGraph()
	cases := []struct {
		query  string
		counts map[string]int // engine name -> expected cycles
	}{
		{"mg1", map[string]int{
			"Hive (Naive)":   9, // 3 per graph pattern + 2 groupings + final join
			"Hive (MQO)":     7, // 3 composite + 3 extract/aggregate + final join
			"RAPID+ (Naive)": 5, // 2 per subquery + map-only join
			"RAPIDAnalytics": 3, // composite α-join, parallel Agg-Join, map-only join
		}},
		{"mg3", map[string]int{
			"Hive (Naive)":   11,
			"Hive (MQO)":     8,
			"RAPID+ (Naive)": 7,
			"RAPIDAnalytics": 4,
		}},
		{"g3-style", map[string]int{
			"Hive (Naive)":   4, // two star joins, inter-star join, grouping
			"RAPIDAnalytics": 2, // graph pattern cycle + Agg-Join cycle
		}},
	}
	for _, tc := range cases {
		aq := buildAQ(t, queries[tc.query])
		for _, e := range engines() {
			want, ok := tc.counts[e.Name()]
			if !ok {
				continue
			}
			c, ds := setup(t, g)
			p, err := e.Plan(c, ds, aq)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.query, e.Name(), err)
			}
			if len(p.Stages) != want {
				t.Errorf("%s/%s: %d MR cycles planned, want %d", tc.query, e.Name(), len(p.Stages), want)
			}
			if tc.query == "mg1" && e.Name() == "RAPIDAnalytics" {
				var ops []string
				for _, st := range p.Stages {
					ops = append(ops, st.Op)
				}
				if got := strings.Join(ops, " "); got != "TG_AlphaJoin TG_AgJ final-join" {
					t.Errorf("mg1/RAPIDAnalytics plans %s", got)
				}
			}
		}
	}
}

// TestRAPIDAnalyticsFinalCycleMapOnly verifies the final aggregated-TG join
// is a map-only cycle, as in Figure 6.
func TestRAPIDAnalyticsFinalCycleMapOnly(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, queries["mg1"])
	c, ds := setup(t, g)
	_, wm, err := engine.Execute(c, ds, core.New(), aq)
	if err != nil {
		t.Fatal(err)
	}
	last := wm.Jobs[len(wm.Jobs)-1]
	if !last.MapOnly {
		t.Error("final join cycle is not map-only")
	}
}

// TestCoreAblations: every ablation configuration must stay correct; the
// sequential-aggregation variant costs one extra cycle per additional
// grouping.
func TestCoreAblations(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, queries["mg3"])
	want := oracle(t, g, queries["mg3"])
	var parallelCycles, seqCycles int
	for _, opts := range []core.Options{
		core.DefaultOptions(),
		{ParallelAggregation: false, AlphaFiltering: true, HashAggregation: true},
		{ParallelAggregation: true, AlphaFiltering: false, HashAggregation: true},
		{ParallelAggregation: true, AlphaFiltering: true, HashAggregation: false},
		{},
	} {
		e := &core.Engine{Opts: opts}
		c, ds := setup(t, g)
		got, wm, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Errorf("opts %+v: differs from oracle: %s", opts, diff)
		}
		if opts == core.DefaultOptions() {
			parallelCycles = wm.Cycles()
		}
		if opts.ParallelAggregation == false && opts.AlphaFiltering {
			seqCycles = wm.Cycles()
		}
	}
	if seqCycles != parallelCycles+1 {
		t.Errorf("sequential aggregation cycles = %d, parallel = %d; want +1", seqCycles, parallelCycles)
	}
}

// TestAlphaFilteringReducesMaterialization: with α filtering on, the join
// cycles must shuffle/materialise no more than with it off.
func TestAlphaFilteringReducesMaterialization(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, queries["mg1"])
	run := func(alpha bool) int64 {
		e := &core.Engine{Opts: core.Options{ParallelAggregation: true, AlphaFiltering: alpha, HashAggregation: true}}
		c, ds := setup(t, g)
		_, wm, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatal(err)
		}
		return wm.MaterializedBytes()
	}
	on, off := run(true), run(false)
	if on > off {
		t.Errorf("α filtering materialised more bytes (%d) than without (%d)", on, off)
	}
}

// TestHiveMapJoinsKickIn: with small inputs every Hive join should compile
// to a map-only cycle except the grouping cycles.
func TestHiveMapJoinsKickIn(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, queries["g3-style"])
	c, ds := setup(t, g)
	h := hive.NewNaive() // default threshold far above this tiny dataset
	_, wm, err := engine.Execute(c, ds, h, aq)
	if err != nil {
		t.Fatal(err)
	}
	if wm.MapOnlyCycles() != 3 { // 2 star joins + 1 inter-star join
		for _, j := range wm.Jobs {
			t.Logf("job %s map-only=%v", j.Job, j.MapOnly)
		}
		t.Errorf("map-only cycles = %d, want 3", wm.MapOnlyCycles())
	}
}

// TestHiveReduceJoinsWhenLarge: with a tiny map-join budget everything goes
// reduce-side and results stay correct.
func TestHiveReduceJoinsWhenLarge(t *testing.T) {
	g := ecommerceGraph()
	for _, name := range []string{"mg1", "g3-style"} {
		aq := buildAQ(t, queries[name])
		want := oracle(t, g, queries[name])
		for _, e := range []engine.Engine{
			&hive.Naive{Conf: hive.Config{MapJoinBytes: 0}},
			&hive.MQO{Conf: hive.Config{MapJoinBytes: 0}},
		} {
			c, ds := setup(t, g)
			got, wm, err := engine.Execute(c, ds, e, aq)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, e.Name(), err)
			}
			if diff := want.Diff(got); diff != "" {
				t.Errorf("%s/%s differs: %s", name, e.Name(), diff)
			}
			// Only the final aggregated join may be map-only.
			if wm.MapOnlyCycles() > 1 {
				t.Errorf("%s/%s: %d map-only cycles with zero budget", name, e.Name(), wm.MapOnlyCycles())
			}
		}
	}
}

// TestDeterministicResults: engines must be deterministic run to run.
func TestDeterministicResults(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, queries["mg3"])
	for _, e := range engines() {
		c1, ds1 := setup(t, g)
		r1, _, err := engine.Execute(c1, ds1, e, aq)
		if err != nil {
			t.Fatal(err)
		}
		c2, ds2 := setup(t, g)
		r2, _, err := engine.Execute(c2, ds2, e, aq)
		if err != nil {
			t.Fatal(err)
		}
		if diff := r1.Diff(r2); diff != "" {
			t.Errorf("%s: nondeterministic: %s", e.Name(), diff)
		}
	}
}

// TestInputPruningAblation: disabling equivalence-class input pruning keeps
// results identical but scans more triplegroup input.
func TestInputPruningAblation(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, queries["mg1"])
	want := oracle(t, g, queries["mg1"])
	run := func(prune bool) int64 {
		opts := core.DefaultOptions()
		opts.InputPruning = prune
		e := &core.Engine{Opts: opts}
		c, ds := setup(t, g)
		got, wm, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatal(err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("prune=%v differs: %s", prune, diff)
		}
		var in int64
		for _, j := range wm.Jobs {
			in += j.MapInputBytes
		}
		return in
	}
	pruned, full := run(true), run(false)
	if pruned >= full {
		t.Errorf("pruned scan read %d bytes, full scan %d; want less", pruned, full)
	}
}
