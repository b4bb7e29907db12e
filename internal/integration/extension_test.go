package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"rapidanalytics/internal/core"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/rdf"
)

// The paper's conclusion names "more complex OLAP queries" as the natural
// extension. The composite-pattern machinery here is n-ary, so a full
// ROLLUP hierarchy — (feature, country), (country), () — evaluates as ONE
// composite pattern with THREE parallel aggregations in a single TG_AgJ
// cycle.
const rollupQuery = prefix + `SELECT ?f ?c ?cntFC ?cntC ?cntT {
  { SELECT ?f ?c (COUNT(?pr2) AS ?cntFC)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:pf ?f .
      ?off2 e:product ?p2 ; e:price ?pr2 ; e:vendor ?v2 .
      ?v2 e:country ?c . } GROUP BY ?f ?c }
  { SELECT ?c (COUNT(?pr1) AS ?cntC)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?off1 e:product ?p1 ; e:price ?pr1 ; e:vendor ?v1 .
      ?v1 e:country ?c . } GROUP BY ?c }
  { SELECT (COUNT(?pr0) AS ?cntT)
    { ?p0 a e:PT1 ; e:label ?l0 .
      ?off0 e:product ?p0 ; e:price ?pr0 ; e:vendor ?v0 .
      ?v0 e:country ?c0 . } }
}`

func TestThreeGroupingRollup(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, rollupQuery)
	if len(aq.Subqueries) != 3 {
		t.Fatalf("subqueries = %d", len(aq.Subqueries))
	}
	want := oracle(t, g, rollupQuery)
	if len(want.Rows) == 0 {
		t.Fatal("oracle empty")
	}
	for _, e := range engines() {
		c, ds := setup(t, g)
		got, wm, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Errorf("%s differs: %s", e.Name(), diff)
		}
		// RAPIDAnalytics still needs only one α-join chain + one parallel
		// Agg-Join + the final map-only join: 2 joins + 1 + 1 = 4 cycles
		// even with three groupings.
		if e.Name() == "RAPIDAnalytics" && wm.Cycles() != 4 {
			t.Errorf("RAPIDAnalytics rollup cycles = %d, want 4", wm.Cycles())
		}
		// RAPID+ pays 3 cycles per grouping: 9 + final join.
		if e.Name() == "RAPID+ (Naive)" && wm.Cycles() != 10 {
			t.Errorf("RAPID+ rollup cycles = %d, want 10", wm.Cycles())
		}
	}
}

// randomGraph builds a randomized e-commerce-shaped graph: arbitrary
// feature fan-outs (including none), offer fan-outs, price values and
// types. This drives the bag-semantics machinery (binding multiplicities,
// α conditions, NULL-producing outer joins) through configurations a
// hand-built fixture might miss.
func randomGraph(seed int64) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &rdf.Graph{}
	numProducts := 2 + rng.Intn(12)
	numFeatures := 1 + rng.Intn(5)
	types := []string{"PT1", "PT1", "PT1", "PT2"} // mostly PT1
	offerID := 0
	for i := 0; i < numProducts; i++ {
		p := iri(fmt.Sprintf("p%d", i))
		g.Add(rdf.T(p, rdf.TypeTerm, iri(types[rng.Intn(len(types))])))
		g.Add(rdf.T(p, iri("label"), lit(fmt.Sprintf("l%d", i))))
		for f := 0; f < rng.Intn(4); f++ {
			g.Add(rdf.T(p, iri("pf"), iri(fmt.Sprintf("f%d", rng.Intn(numFeatures)))))
		}
		for o := 0; o < rng.Intn(4); o++ {
			off := iri(fmt.Sprintf("o%d", offerID))
			offerID++
			g.Add(
				rdf.T(off, iri("product"), p),
				rdf.T(off, iri("price"), lit(fmt.Sprintf("%d", 1+rng.Intn(100)))),
			)
		}
	}
	return g
}

// TestEnginesMatchOracleOnRandomGraphs is the randomized version of the
// central correctness gate.
func TestEnginesMatchOracleOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short mode")
	}
	aqMG1 := buildAQ(t, queries["mg1"])
	aqRatio := buildAQ(t, queries["ratio-expr"])
	for seed := int64(0); seed < 25; seed++ {
		g := randomGraph(seed)
		want1 := oracle(t, g, queries["mg1"])
		wantR := oracle(t, g, queries["ratio-expr"])
		for _, e := range engines() {
			c, ds := setup(t, g)
			got, _, err := engine.Execute(c, ds, e, aqMG1)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, e.Name(), err)
			}
			if diff := want1.Diff(got); diff != "" {
				t.Fatalf("seed %d %s mg1 differs: %s", seed, e.Name(), diff)
			}
			got, _, err = engine.Execute(c, ds, e, aqRatio)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, e.Name(), err)
			}
			if diff := wantR.Diff(got); diff != "" {
				t.Fatalf("seed %d %s ratio differs: %s", seed, e.Name(), diff)
			}
		}
	}
}

// The sequential-aggregation option (Figure 6a) must also handle three
// groupings.
func TestRollupSequentialAggregation(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, rollupQuery)
	want := oracle(t, g, rollupQuery)
	e := &core.Engine{Opts: core.Options{ParallelAggregation: false, AlphaFiltering: true, HashAggregation: true}}
	c, ds := setup(t, g)
	got, wm, err := engine.Execute(c, ds, e, aq)
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(got); diff != "" {
		t.Errorf("sequential rollup differs: %s", diff)
	}
	if wm.Cycles() != 6 { // 2 joins + 3 sequential Agg-Joins + final
		t.Errorf("cycles = %d, want 6", wm.Cycles())
	}
}

// Engine interface sanity: names are distinct and stable (reports key on
// them).
func TestEngineNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range engines() {
		if seen[e.Name()] {
			t.Errorf("duplicate engine name %q", e.Name())
		}
		seen[e.Name()] = true
	}
	var _ engine.Engine = core.New()
}
