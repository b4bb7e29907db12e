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

// TestFullCatalogAllEnginesVerified is the repository's heaviest
// correctness gate: every catalog query runs on its dataset(s) through all
// four engines, and every result is compared against the in-memory oracle.
func TestFullCatalogAllEnginesVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog run skipped in -short mode")
	}
	h := NewHarness(true)
	for _, q := range Catalog {
		for _, dsID := range DatasetsFor(q) {
			rs, err := h.Run(q.ID, dsID, Engines())
			if err != nil {
				t.Fatalf("%s on %s: %v", q.ID, dsID, err)
			}
			for _, r := range rs {
				if !r.Verified {
					t.Errorf("%s on %s via %s: not verified", q.ID, dsID, r.Engine)
				}
				if r.Rows == 0 && q.ID != "G2" && q.ID != "G4" && q.ID != "MG2" && q.ID != "MG4" {
					// hi-selectivity queries may legitimately match little,
					// everything else must produce rows.
					t.Errorf("%s on %s via %s: empty result", q.ID, dsID, r.Engine)
				}
			}
		}
	}
}

// TestMG13MaterializationBlowup asserts the paper's MG13 story in bytes:
// naive Hive materialises the multi-valued MeSH join twice, RAPIDAnalytics
// materialises the least of all four engines.
func TestMG13MaterializationBlowup(t *testing.T) {
	if testing.Short() {
		t.Skip("pubmed run skipped in -short mode")
	}
	h := NewHarness(false)
	rs, err := h.Run("MG13", "pubmed", Engines())
	if err != nil {
		t.Fatal(err)
	}
	mat := map[string]int64{}
	for _, r := range rs {
		mat[r.Engine] = r.MaterializedBytes
	}
	if !(mat["RAPIDAnalytics"] < mat["RAPID+ (Naive)"]) {
		t.Errorf("RAPIDAnalytics materialised %d >= RAPID+ %d", mat["RAPIDAnalytics"], mat["RAPID+ (Naive)"])
	}
	if !(mat["RAPIDAnalytics"]*2 < mat["Hive (Naive)"]) {
		t.Errorf("naive Hive should materialise >2x RAPIDAnalytics: %d vs %d", mat["Hive (Naive)"], mat["RAPIDAnalytics"])
	}
}

// TestRAPIDAnalyticsWinsOnMultiGrouping asserts the paper's headline
// ordering on the simulated cost: for multi-grouping queries,
// RAPIDAnalytics ≤ RAPID+ ≤ Hive (Naive).
func TestRAPIDAnalyticsWinsOnMultiGrouping(t *testing.T) {
	if testing.Short() {
		t.Skip("bench ordering skipped in -short mode")
	}
	h := NewHarness(false)
	for _, q := range []string{"MG1", "MG3"} {
		rs, err := h.Run(q, "bsbm-500k", Engines())
		if err != nil {
			t.Fatal(err)
		}
		sim := map[string]float64{}
		for _, r := range rs {
			sim[r.Engine] = r.SimSeconds
		}
		if !(sim["RAPIDAnalytics"] < sim["RAPID+ (Naive)"]) {
			t.Errorf("%s: RAPIDAnalytics (%.0fs) not faster than RAPID+ (%.0fs)", q, sim["RAPIDAnalytics"], sim["RAPID+ (Naive)"])
		}
		if !(sim["RAPID+ (Naive)"] < sim["Hive (Naive)"]) {
			t.Errorf("%s: RAPID+ (%.0fs) not faster than Hive (%.0fs)", q, sim["RAPID+ (Naive)"], sim["Hive (Naive)"])
		}
	}
}

// The phase walls recorded by the harness must be populated for
// MapReduce-backed runs.
func TestHarnessRecordsPhaseWalls(t *testing.T) {
	h := NewHarness(false)
	rs, err := h.Run("MG1", "bsbm-500k", Engines()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].MapWall <= 0 || rs[0].ReduceWall <= 0 {
		t.Errorf("phase walls not recorded: %+v", rs[0])
	}
}
