package rapid

import (
	"strconv"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

func load(t *testing.T, g *rdf.Graph) (*mapred.Cluster, *engine.Dataset) {
	t.Helper()
	c := mapred.NewCluster(mapred.DefaultConfig())
	ds, err := engine.Load(c, "t", rdf.Intern(g, rdf.NewDict()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return c, ds
}

func TestName(t *testing.T) {
	if New().Name() != "RAPID+ (Naive)" {
		t.Errorf("Name = %q", New().Name())
	}
}

// The defining property of NTGA evaluation: a star pattern of any width
// costs zero join cycles (triples arrive grouped by subject), so a
// single-star grouping query is 1 cycle and a two-star one is 2.
func TestStarWidthCostsNoCycles(t *testing.T) {
	g := &rdf.Graph{}
	s := rdf.NewIRI("http://e/s")
	for _, p := range []string{"a", "b", "c", "d", "e"} {
		g.Add(rdf.T(s, rdf.NewIRI("http://e/"+p), rdf.NewLiteral(p)))
	}
	q := sparql.MustParse(`PREFIX e: <http://e/>
SELECT (COUNT(?va) AS ?n) {
  ?s e:a ?va ; e:b ?vb ; e:c ?vc ; e:d ?vd ; e:e ?ve .
}`)
	aq, err := algebra.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	c, ds := load(t, g)
	res, wm, err := engine.Execute(c, ds, New(), aq)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Cycles() != 1 {
		t.Errorf("five-pattern star cycles = %d, want 1", wm.Cycles())
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "1" {
		t.Errorf("rows = %v", res.Rows)
	}
	d := rdf.NewDict()
	want, _ := refimpl.Execute(q, d, rdf.InternTriples(d, nil, g.Triples))
	if diff := want.Diff(res); diff != "" {
		t.Errorf("differs: %s", diff)
	}
}

// RAPID+ does not use map-side hash pre-aggregation: its aggregation
// cycles emit one partial state per solution (the combiner merges them),
// so it emits at least as many map records as RAPIDAnalytics' hashed
// TG_AgJ would.
func TestNoHashPreAggregation(t *testing.T) {
	g := &rdf.Graph{}
	s := rdf.NewIRI("http://e/s")
	for i := 0; i < 20; i++ {
		g.Add(rdf.T(s, rdf.NewIRI("http://e/v"), rdf.NewLiteral(strconv.Itoa(i))))
	}
	q := sparql.MustParse(`PREFIX e: <http://e/>
SELECT (COUNT(?v) AS ?n) { ?s e:v ?v . }`)
	aq, err := algebra.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	c, ds := load(t, g)
	a, wmNoHash, err := engine.Execute(c, ds, sequential(false), aq)
	if err != nil {
		t.Fatal(err)
	}
	b, wmHash, err := engine.Execute(c, ds, sequential(true), aq)
	if err != nil {
		t.Fatal(err)
	}
	emitsNoHash := wmNoHash.Jobs[len(wmNoHash.Jobs)-1].MapEmitRecords
	emitsHash := wmHash.Jobs[len(wmHash.Jobs)-1].MapEmitRecords
	if emitsHash >= emitsNoHash {
		t.Errorf("hash agg emits %d, combiner path %d; want fewer", emitsHash, emitsNoHash)
	}
	// Same answers either way.
	if diff := a.Diff(b); diff != "" {
		t.Errorf("hash and combiner paths disagree: %s", diff)
	}
}

// sequential plans PlanSequential, with hash pre-aggregation when true.
type sequential bool

func (sequential) Name() string { return "sequential" }

func (h sequential) Plan(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Plan, error) {
	return PlanSequential(c, ds, aq, bool(h), true)
}
