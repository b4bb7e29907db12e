package bench

import (
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/datagen"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

// TestCatalogParses ensures every catalog query parses and builds.
func TestCatalogParses(t *testing.T) {
	if len(Catalog) != 29 {
		t.Errorf("catalog has %d queries, want 29 (G1-G9, MG1-MG4, MG6-MG18, MGA, SK1-SK2)", len(Catalog))
	}
	for _, q := range Catalog {
		parsed, err := sparql.Parse(q.SPARQL)
		if err != nil {
			t.Errorf("%s: parse: %v", q.ID, err)
			continue
		}
		if _, err := algebra.Build(parsed); err != nil {
			t.Errorf("%s: build: %v", q.ID, err)
		}
	}
}

// TestMultiGroupingQueriesOverlap: every MG query except the explicitly
// non-overlapping ones must admit a composite pattern (the rewriting the
// paper applies to all of MG1-MG18).
func TestMultiGroupingQueriesOverlap(t *testing.T) {
	for _, q := range Catalog {
		if q.ID[0] != 'M' {
			continue
		}
		parsed, err := sparql.Parse(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		aq, err := algebra.Build(parsed)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if _, err := algebra.BuildComposite(aq.Subqueries); err != nil {
			t.Errorf("%s: composite rewriting failed: %v", q.ID, err)
		}
	}
}

// TestRepeatedStatementsCountOnce: the seed-3 PubMed graph (generator seed
// +200) repeats statements — a publication drawing the same grant, MeSH
// heading, chemical or author again. An RDF graph is a set, so every engine
// and the reference count a repeat once; before loading dropped them, the
// reference and three engines counted a repeated pm:grant twice while Hive
// (MQO)'s DISTINCT counted it once, and MG11 read "LAU | 373 | 2942" on the
// reference against 2940 on Hive (MQO).
func TestRepeatedStatementsCountOnce(t *testing.T) {
	cfg := datagen.PubMedDefault()
	cfg.Seed += 200
	g := datagen.GeneratePubMed(cfg)
	distinct := map[rdf.Triple]bool{}
	for _, tr := range g.Triples {
		distinct[tr] = true
	}
	if len(distinct) == g.Len() {
		t.Fatal("the graph repeats no statement; the test would prove nothing")
	}
	c := mapred.NewCluster(mapred.DefaultConfig())
	ds, err := engine.Load(c, "pubmed-seed3", rdf.Intern(g, rdf.NewDict()))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"MG11", "MG12", "MG17", "MG18"} {
		q, aq, err := compile(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refimpl.Execute(q, ds.Dict, rdf.InternTriples(ds.Dict, nil, g.Triples))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range Engines() {
			got, _, err := engine.Execute(c, ds, e, aq)
			if err != nil {
				t.Fatalf("%s via %s: %v", id, e.Name(), err)
			}
			if diff := want.Diff(got); diff != "" {
				t.Errorf("%s via %s diverges from the reference: %s", id, e.Name(), diff)
			}
		}
	}
}
