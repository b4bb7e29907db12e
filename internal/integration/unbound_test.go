package integration

import (
	"rapidanalytics/internal/engine"
	"testing"
)

// Unbound-property patterns ("don't care relationships", §5.2/[32]): the
// Hive engines scan the full triples table, the NTGA engines keep whole
// triplegroups and bind the property variable during Agg-Join matching.

// VoID-style dataset statistics: triples per property.
const propertyUsage = prefix + `SELECT ?p (COUNT(?o) AS ?uses) {
  ?s ?p ?o .
} GROUP BY ?p ORDER BY DESC(?uses) ?p`

// Type-constrained unbound star: property fan-out of PT1 products.
const typedUnbound = prefix + `SELECT ?p (COUNT(?o) AS ?n) {
  ?s a e:PT1 ; ?p ?o .
} GROUP BY ?p`

// Multi-grouping query with one unbound pattern: engines must fall back to
// sequential evaluation and stay correct.
const unboundMultiGrouping = prefix + `SELECT ?p ?n ?total {
  { SELECT ?p (COUNT(?o) AS ?n) { ?s a e:PT1 ; ?p ?o . } GROUP BY ?p }
  { SELECT (COUNT(?o2) AS ?total) { ?s2 ?p2 ?o2 . } }
}`

func TestUnboundPropertyAcrossEngines(t *testing.T) {
	g := ecommerceGraph()
	for name, qs := range map[string]string{
		"property-usage":    propertyUsage,
		"typed-unbound":     typedUnbound,
		"unbound-multi":     unboundMultiGrouping,
		"unbound-const-obj": prefix + `SELECT ?p (COUNT(?s) AS ?n) { ?s ?p e:f1 . } GROUP BY ?p`,
		// Filter on the unbound pattern's object variable: the bound
		// e:product triple (whose object is not numeric) must still satisfy
		// the star's primary constraint even though it fails the filter.
		"unbound-obj-filter": prefix + `SELECT ?p (COUNT(?o) AS ?n) {
  ?s e:product ?pp ; ?p ?o .
  FILTER (?o > 15)
} GROUP BY ?p`,
	} {
		t.Run(name, func(t *testing.T) {
			aq := buildAQ(t, qs)
			want := oracle(t, g, qs)
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
		})
	}
}

// The property-usage query's totals must cover the whole graph.
func TestUnboundCoversWholeGraph(t *testing.T) {
	g := ecommerceGraph()
	res := oracle(t, g, propertyUsage)
	total := 0
	for _, row := range res.Rows {
		n := 0
		if _, err := sscan(row[1], &n); err != nil {
			t.Fatalf("bad count %q", row[1])
		}
		total += n
	}
	if total != g.Len() {
		t.Errorf("property usage total = %d, graph has %d triples", total, g.Len())
	}
}

func sscan(s string, n *int) (int, error) {
	v := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errNotNumber
		}
		v = v*10 + int(s[i]-'0')
	}
	*n = v
	return 1, nil
}

var errNotNumber = errString("not a number")

type errString string

func (e errString) Error() string { return string(e) }

// Filters apply to property variables too: count only bsbm-namespace-like
// properties via regex.
func TestUnboundWithPropertyFilter(t *testing.T) {
	g := ecommerceGraph()
	qs := prefix + `SELECT ?p (COUNT(?o) AS ?n) {
  ?s ?p ?o .
  FILTER regex(?p, "price|product", "i")
} GROUP BY ?p`
	aq := buildAQ(t, qs)
	want := oracle(t, g, qs)
	if len(want.Rows) != 2 {
		t.Fatalf("oracle rows = %v", want.Rows)
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
