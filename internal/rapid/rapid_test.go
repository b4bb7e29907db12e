package rapid

import (
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
	ds, err := engine.Load(c, "t", g)
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
	res, wm, err := New().Execute(c, ds, aq)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Cycles() != 1 {
		t.Errorf("five-pattern star cycles = %d, want 1", wm.Cycles())
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "1" {
		t.Errorf("rows = %v", res.Rows)
	}
	want, _ := refimpl.Execute(g, aq)
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
		g.Add(rdf.T(s, rdf.NewIRI("http://e/v"), rdf.NewLiteral("1")))
	}
	q := sparql.MustParse(`PREFIX e: <http://e/>
SELECT (COUNT(?v) AS ?n) { ?s e:v ?v . }`)
	aq, err := algebra.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	c, ds := load(t, g)
	run := engine.NewRunner(c, "tmp/a")
	fileNoHash, err := EvalSubquery(run, ds, aq.Subqueries[0], 0, false, true)
	if err != nil {
		t.Fatal(err)
	}
	emitsNoHash := run.WM.Jobs[len(run.WM.Jobs)-1].MapEmitRecords
	run2 := engine.NewRunner(c, "tmp/b")
	fileHash, err := EvalSubquery(run2, ds, aq.Subqueries[0], 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	emitsHash := run2.WM.Jobs[len(run2.WM.Jobs)-1].MapEmitRecords
	if emitsHash >= emitsNoHash {
		t.Errorf("hash agg emits %d, combiner path %d; want fewer", emitsHash, emitsNoHash)
	}
	// Same answers either way.
	a, err := engine.ReadResult(c.FS, fileNoHash, []string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.ReadResult(c.FS, fileHash, []string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	if diff := a.Diff(b); diff != "" {
		t.Errorf("hash and combiner paths disagree: %s", diff)
	}
}
