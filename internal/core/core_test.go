package core

import (
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }

func graph() *rdf.Graph {
	g := &rdf.Graph{}
	g.Add(
		rdf.T(iri("s1"), iri("p"), iri("x")),
		rdf.T(iri("s1"), iri("q"), rdf.NewLiteral("1")),
		rdf.T(iri("s2"), iri("p"), iri("x")),
		rdf.T(iri("s2"), iri("q"), rdf.NewLiteral("2")),
		rdf.T(iri("s3"), iri("p"), iri("y")),
		rdf.T(iri("s3"), iri("q"), rdf.NewLiteral("3")),
		rdf.T(iri("s4"), iri("r"), rdf.NewLiteral("7")),
		rdf.T(iri("s5"), iri("r"), rdf.NewLiteral("8")),
	)
	return g
}

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

func TestDefaultOptionsAllOn(t *testing.T) {
	o := DefaultOptions()
	if !o.ParallelAggregation || !o.AlphaFiltering || !o.HashAggregation {
		t.Errorf("DefaultOptions = %+v", o)
	}
	if New().Name() != "RAPIDAnalytics" {
		t.Errorf("Name = %q", New().Name())
	}
}

// A single-star, single-grouping query takes exactly one cycle: the
// Agg-Join reads the filtered triplegroup scan directly, with no join
// cycle at all.
func TestSingleStarSingleCycle(t *testing.T) {
	g := graph()
	qs := `PREFIX e: <http://e/>
SELECT ?x (COUNT(?v) AS ?n) { ?s e:p ?x ; e:q ?v . } GROUP BY ?x`
	aq := mustAQ(t, qs)
	c := mapred.NewCluster(mapred.DefaultConfig())
	ds, err := engine.Load(c, "t", rdf.Intern(g, rdf.NewDict()))
	if err != nil {
		t.Fatal(err)
	}
	res, wm, err := engine.Execute(c, ds, New(), aq)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Cycles() != 1 {
		t.Errorf("cycles = %d, want 1", wm.Cycles())
	}
	d := rdf.NewDict()
	want, err := refimpl.Execute(sparql.MustParse(qs), d, rdf.InternTriples(d, nil, g.Triples))
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(res); diff != "" {
		t.Errorf("differs from oracle: %s", diff)
	}
}

// Non-overlapping multi-grouping queries fall back to sequential NTGA
// evaluation and still produce oracle-identical results.
func TestFallbackOnNonOverlap(t *testing.T) {
	g := graph()
	qs := `PREFIX e: <http://e/>
SELECT ?x ?n ?m {
  { SELECT ?x (COUNT(?v) AS ?n) { ?s e:p ?x ; e:q ?v . } GROUP BY ?x }
  { SELECT (COUNT(?y) AS ?m) { ?s2 e:r ?y . } }
}`
	aq := mustAQ(t, qs)
	if _, err := algebra.BuildComposite(aq.Subqueries); err == nil {
		t.Fatal("patterns unexpectedly overlap; test fixture broken")
	}
	c := mapred.NewCluster(mapred.DefaultConfig())
	ds, err := engine.Load(c, "t", rdf.Intern(g, rdf.NewDict()))
	if err != nil {
		t.Fatal(err)
	}
	res, wm, err := engine.Execute(c, ds, New(), aq)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential: (1 agg) + (1 agg) + final join.
	if wm.Cycles() != 3 {
		t.Errorf("fallback cycles = %d, want 3", wm.Cycles())
	}
	d := rdf.NewDict()
	want, err := refimpl.Execute(sparql.MustParse(qs), d, rdf.InternTriples(d, nil, g.Triples))
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(res); diff != "" {
		t.Errorf("fallback differs from oracle: %s", diff)
	}
}
