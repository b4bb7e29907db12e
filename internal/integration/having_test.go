package integration

import (
	"rapidanalytics/internal/engine"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/sparql"
)

// HAVING on a grouped subquery: features must have at least 2 offers.
const havingGrouped = prefix + `SELECT ?f ?cnt ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cnt)
    { ?p2 a e:PT1 ; e:pf ?f . ?off2 e:product ?p2 ; e:price ?pr2 . }
    GROUP BY ?f HAVING (COUNT(?pr2) >= 2) }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr . } }
}`

func TestHavingGroupedAcrossEngines(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, havingGrouped)
	want := oracle(t, g, havingGrouped)
	// Fixture: f1 has 3 offers, f2 has 4, f3 has 2 (p5's two offers);
	// all pass >= 2. Tighten in a second query below. Here ensure non-empty
	// and oracle agreement.
	if len(want.Rows) == 0 {
		t.Fatal("oracle returned no rows; weak fixture")
	}
	for _, e := range engines() {
		c, ds := setup(t, g)
		got, _, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Errorf("%s differs: %s", e.Name(), diff)
		}
	}
}

// A stricter threshold actually removes groups.
func TestHavingFiltersGroups(t *testing.T) {
	g := ecommerceGraph()

	strictQuery := prefix + `SELECT ?f ?cnt ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cnt)
    { ?p2 a e:PT1 ; e:pf ?f . ?off2 e:product ?p2 ; e:price ?pr2 . }
    GROUP BY ?f HAVING (COUNT(?pr2) >= 4) }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr . } }
}`
	strict := buildAQ(t, strictQuery)
	wantLoose := oracle(t, g, havingGrouped)
	wantStrict := oracle(t, g, strictQuery)
	if len(wantStrict.Rows) == 0 || len(wantStrict.Rows) >= len(wantLoose.Rows) {
		t.Fatalf("threshold did not narrow groups: %d vs %d", len(wantStrict.Rows), len(wantLoose.Rows))
	}
	for _, e := range engines() {
		c, ds := setup(t, g)
		got, _, err := engine.Execute(c, ds, e, strict)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if diff := wantStrict.Diff(got); diff != "" {
			t.Errorf("%s differs: %s", e.Name(), diff)
		}
	}
}

// HAVING on a GROUP BY ALL subquery interacts with the default-row repair:
// when the single group fails the constraint, the whole join must be empty
// — the default row must NOT be resurrected.
func TestHavingOnGroupByAll(t *testing.T) {
	g := ecommerceGraph()
	for _, tc := range []struct {
		name      string
		threshold string
		wantEmpty bool
	}{
		{"passes", "2", false},
		{"fails", "1000", true},
	} {
		q := prefix + `SELECT ?f ?cnt ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cnt)
    { ?p2 a e:PT1 ; e:pf ?f . ?off2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr . }
    HAVING (COUNT(?pr) >= ` + tc.threshold + `) }
}`
		aq := buildAQ(t, q)
		want := oracle(t, g, q)
		if tc.wantEmpty != (len(want.Rows) == 0) {
			t.Fatalf("%s: oracle rows = %d", tc.name, len(want.Rows))
		}
		for _, e := range engines() {
			c, ds := setup(t, g)
			got, _, err := engine.Execute(c, ds, e, aq)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, e.Name(), err)
			}
			if diff := want.Diff(got); diff != "" {
				t.Errorf("%s/%s differs: %s", tc.name, e.Name(), diff)
			}
		}
	}
}

// HAVING with DISTINCT aggregates; the HAVING aggregate must match the
// projected one including the DISTINCT flag.
func TestHavingDistinct(t *testing.T) {
	g := ecommerceGraph()
	qs := prefix + `SELECT ?c (COUNT(DISTINCT ?p2) AS ?nv) {
  ?off2 e:product ?p2 ; e:vendor ?v2 . ?v2 e:country ?c .
} GROUP BY ?c HAVING (COUNT(DISTINCT ?p2) >= 3)`
	aq := buildAQ(t, qs)
	want := oracle(t, g, qs)
	for _, e := range engines() {
		c, ds := setup(t, g)
		got, _, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Errorf("%s differs: %s", e.Name(), diff)
		}
	}
}

// A HAVING aggregate that is not projected is rejected at build time.
func TestHavingMustMatchProjection(t *testing.T) {
	q := prefix + `SELECT ?f (COUNT(?pr) AS ?cnt) {
  ?p a e:PT1 ; e:pf ?f . ?off e:product ?p ; e:price ?pr .
} GROUP BY ?f HAVING (SUM(?pr) > 100)`
	parsed, err := sparql.Parse(q)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := algebra.Build(parsed); err == nil {
		t.Error("unprojected HAVING aggregate accepted")
	}
}
