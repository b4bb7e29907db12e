package integration

import (
	"fmt"
	"strings"
	"testing"

	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/hive"
	"rapidanalytics/internal/rdf"
)

// sameTableGraph is a small social graph whose queries join a VP table
// with itself: e:knows chains, and subjects tagged with several constants
// of one property.
func sameTableGraph() *rdf.Graph {
	g := &rdf.Graph{}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"b", "d"}, {"c", "a"}, {"d", "e"}} {
		g.Add(rdf.T(iri(e[0]), iri("knows"), iri(e[1])))
	}
	for _, s := range []string{"a", "b", "c"} {
		g.Add(rdf.T(iri(s), iri("tag"), iri("x")))
	}
	for _, s := range []string{"a", "c", "d"} {
		g.Add(rdf.T(iri(s), iri("tag"), iri("y")))
	}
	for i, s := range []string{"a", "b", "c", "d", "e"} {
		g.Add(rdf.T(iri(s), iri("val"), lit(fmt.Sprint(i+1))))
	}
	return g
}

var sameTableQueries = map[string]string{
	// A chain over one VP table: both inter-star join inputs scan it.
	"knows chain": `PREFIX e: <http://e/>
SELECT ?x (COUNT(?z) AS ?n) { ?x e:knows ?y . ?y e:knows ?z . } GROUP BY ?x`,
	// Two overlapping chains, which MQO evaluates as one composite pattern.
	"knows chains": `PREFIX e: <http://e/>
SELECT ?x ?n ?s {
  { SELECT ?x (COUNT(?z) AS ?n) { ?x e:knows ?y . ?y e:knows ?z . } GROUP BY ?x }
  { SELECT ?x (SUM(?v) AS ?s) { ?x e:knows ?y . ?y e:knows ?z . ?z e:val ?v . } GROUP BY ?x }
}`,
	// A star of two constant-object patterns on one property: two star
	// join inputs scan its table.
	"two tags": `PREFIX e: <http://e/>
SELECT (COUNT(?s) AS ?n) (SUM(?v) AS ?t) { ?s e:tag e:x . ?s e:tag e:y . ?s e:val ?v . }`,
	"two tags, two groupings": `PREFIX e: <http://e/>
SELECT ?n ?m {
  { SELECT (COUNT(?s) AS ?n) { ?s e:tag e:x . ?s e:tag e:y . ?s e:val ?v . } }
  { SELECT (SUM(?v) AS ?m) { ?s e:tag e:x . ?s e:val ?v . } }
}`,
}

// Joining a VP table with itself returns the oracle's rows on both Hive
// systems, reduce-side (a zero map-join budget) and at the default
// budget: a reduce-side join reads the shared table once and tags each
// record once per input that scans it.
func TestHiveSameTableJoins(t *testing.T) {
	g := sameTableGraph()
	for name, qs := range sameTableQueries {
		aq := buildAQ(t, qs)
		want := oracle(t, g, qs)
		if len(want.Rows) == 0 {
			t.Fatalf("%s: oracle returned no rows; weak test fixture", name)
		}
		zero := hive.Config{MapJoinBytes: 0}
		for _, sys := range []struct {
			budget string
			e      engine.Engine
		}{
			{"zero budget", &hive.Naive{Conf: zero}},
			{"zero budget", &hive.MQO{Conf: zero}},
			{"default budget", hive.NewNaive()},
			{"default budget", hive.NewMQO()},
		} {
			e, budget := sys.e, sys.budget
			c, ds := setup(t, g)
			got, _, err := engine.Execute(c, ds, e, aq)
			if err != nil {
				t.Errorf("%s, %s, %s: %v", name, e.Name(), budget, err)
				continue
			}
			if diff := want.Diff(got); diff != "" {
				t.Errorf("%s, %s, %s differs from the oracle: %s", name, e.Name(), budget, diff)
			}
			checkClean(t, c, e.Name())
		}
	}
}

// A star whose patterns bind one object variable twice has Hive's star
// join compare their values: both Hive systems return the oracle's rows,
// reduce-side (a zero map-join budget) and at the default budget. Where
// MQO merges the star with a grouping that lacks one of the patterns, that
// pattern becomes an OPTIONAL input repeating the variable: the join
// compares it through a marker column and NULL-extends a subject none of
// whose rows passes. Two OPTIONAL inputs repeating one variable stay
// rejected.
func TestHiveComparesVariableBoundTwiceInStar(t *testing.T) {
	g := sameTableGraph()
	g.Add(rdf.T(iri("a"), iri("knows"), iri("x")), rdf.T(iri("c"), iri("knows"), iri("x")), rdf.T(iri("c"), iri("knows"), iri("y")))
	zero := hive.Config{MapJoinBytes: 0}
	all := []engine.Engine{&hive.Naive{Conf: zero}, &hive.MQO{Conf: zero}, hive.NewNaive(), hive.NewMQO()}
	for _, query := range []string{
		`PREFIX e: <http://e/>
SELECT ?o (COUNT(?s) AS ?n) { ?s e:knows ?o . ?s e:tag ?o . } GROUP BY ?o`,
		// The repeated column is the second kept field of the joined row.
		`PREFIX e: <http://e/>
SELECT ?o (COUNT(?s) AS ?n) (SUM(?v) AS ?t) { ?s e:val ?v . ?s e:knows ?o . ?s e:tag ?o . } GROUP BY ?o`,
		boundTwiceMultiGrouping,
		// The OPTIONAL input comes first in its grouping's star.
		`PREFIX e: <http://e/>
SELECT ?s ?n ?m {
  { SELECT ?s (COUNT(?o) AS ?n) { ?s e:tag ?o . ?s e:knows ?o . } GROUP BY ?s }
  { SELECT ?s (COUNT(?o) AS ?m) { ?s e:knows ?o . } GROUP BY ?s }
}`,
	} {
		aq := buildAQ(t, query)
		want := oracle(t, g, query)
		if len(want.Rows) == 0 {
			t.Fatal("oracle returned no rows; weak test fixture")
		}
		for _, e := range all {
			c, ds := setup(t, g)
			got, _, err := engine.Execute(c, ds, e, aq)
			if err != nil {
				t.Errorf("%s: %v", e.Name(), err)
			} else if diff := want.Diff(got); diff != "" {
				t.Errorf("%s differs from the oracle on\n%s: %s", e.Name(), query, diff)
			}
			checkClean(t, c, e.Name())
		}
	}
	aq := buildAQ(t, `PREFIX e: <http://e/>
SELECT ?o ?n ?m {
  { SELECT ?o (COUNT(?s) AS ?n) { ?s e:val ?v . ?s e:knows ?o . ?s e:tag ?o . } GROUP BY ?o }
  { SELECT (COUNT(?s) AS ?m) { ?s e:val ?v . } }
}`)
	for _, e := range []engine.Engine{&hive.MQO{Conf: zero}, hive.NewMQO()} {
		c, ds := setup(t, g)
		if _, _, err := engine.Execute(c, ds, e, aq); err == nil || !strings.Contains(err.Error(), "binds ?o in an OPTIONAL pattern and another") {
			t.Errorf("%s: error %v; want the two OPTIONAL inputs rejected", e.Name(), err)
		}
		checkClean(t, c, e.Name())
	}
}
