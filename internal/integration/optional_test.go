package integration

import (
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

// OPTIONAL clauses (§2.2's building block for the MQO rewriting) with
// left-outer semantics: unmatched optionals leave their variables NULL.

// Classic left-outer analytics: offer counts per feature *including*
// products without any feature, which land in the NULL group.
const optionalFeature = prefix + `SELECT ?f (COUNT(?pr) AS ?cnt) {
  ?p a e:PT1 ; e:label ?l .
  OPTIONAL { ?p e:pf ?f }
  ?off e:product ?p ; e:price ?pr .
} GROUP BY ?f`

func TestOptionalAcrossEngines(t *testing.T) {
	g := ecommerceGraph()
	for name, qs := range map[string]string{
		"optional-feature": optionalFeature,
		// Optional on the second star: offers may lack validity data.
		"optional-on-offer": prefix + `SELECT ?f (COUNT(?d) AS ?withDelivery) (COUNT(?pr) AS ?offers) {
  ?p a e:PT1 ; e:pf ?f .
  ?off e:product ?p ; e:price ?pr .
  OPTIONAL { ?off e:delivery ?d }
} GROUP BY ?f`,
		// Multi-grouping query whose patterns carry OPTIONALs: engines fall
		// back to sequential evaluation and stay correct.
		"optional-multi": prefix + `SELECT ?f ?cnt ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cnt)
    { ?p2 a e:PT1 ; e:label ?l2 .
      OPTIONAL { ?p2 e:pf ?f }
      ?off2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr . } }
}`,
		// Aggregating the optional variable itself: COUNT skips NULLs.
		"optional-agg-var": prefix + `SELECT ?p2 (COUNT(?f) AS ?features) (COUNT(?l) AS ?labels) {
  ?p2 a e:PT1 ; e:label ?l .
  OPTIONAL { ?p2 e:pf ?f }
} GROUP BY ?p2`,
	} {
		t.Run(name, func(t *testing.T) {
			aq := buildAQ(t, qs)
			want, err := refimpl.Execute(g, aq)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("oracle returned no rows; weak fixture")
			}
			for _, e := range engines() {
				c, ds := setup(t, g)
				got, _, err := e.Execute(c, ds, aq)
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				if diff := want.Diff(got); diff != "" {
					t.Errorf("%s differs: %s", e.Name(), diff)
				}
			}
		})
	}
}

// The NULL feature group must exist and count exactly the offers of
// featureless PT1 products (p3: one offer).
func TestOptionalNullGroup(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, optionalFeature)
	res, err := refimpl.Execute(g, aq)
	if err != nil {
		t.Fatal(err)
	}
	nullCount := ""
	for _, row := range res.Rows {
		if algebra.IsNull(row[0]) {
			nullCount = row[1]
		}
	}
	if nullCount != "1" {
		t.Fatalf("NULL feature group count = %q, want 1 (p3's single offer); rows: %v", nullCount, res.Rows)
	}
}

// Restrictions of the analytical subset are enforced.
func TestOptionalRejections(t *testing.T) {
	cases := map[string]string{
		"unbound subject":    prefix + `SELECT (COUNT(?x) AS ?n) { ?s e:p ?o . OPTIONAL { ?z e:q ?x } }`,
		"var reuse":          prefix + `SELECT (COUNT(?o) AS ?n) { ?s e:p ?o . OPTIONAL { ?s e:q ?o } }`,
		"required+optional":  prefix + `SELECT (COUNT(?o) AS ?n) { ?s e:p ?o . OPTIONAL { ?s e:p ?x } }`,
		"filter on optional": prefix + `SELECT (COUNT(?o) AS ?n) { ?s e:p ?o . OPTIONAL { ?s e:q ?x } FILTER (?x > 3) }`,
		"unbound prop":       prefix + `SELECT (COUNT(?o) AS ?n) { ?s e:p ?o . OPTIONAL { ?s ?q ?x } }`,
		// One left-join operand: it matches a subject only where both
		// patterns do, which per-pattern extension would not honour.
		"multi-pattern block": prefix + `SELECT (COUNT(?l) AS ?n) { ?p a e:Phone . OPTIONAL { ?p e:label ?l . ?p e:feature ?f } }`,
	}
	for name, qs := range cases {
		parsed, err := sparql.Parse(qs)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if _, err := algebra.Build(parsed); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}
