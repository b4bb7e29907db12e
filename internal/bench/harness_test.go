package bench

import (
	"reflect"
	"testing"

	"rapidanalytics/internal/algebra"
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

// TestCatalogFormatRoundTrip: every catalog query survives
// parse → format → reparse with an identical AST.
func TestCatalogFormatRoundTrip(t *testing.T) {
	for _, q := range Catalog {
		q1, err := sparql.Parse(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		text := sparql.Format(q1)
		q2, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", q.ID, err, text)
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Errorf("%s: formatting changed the AST:\n%s", q.ID, text)
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
