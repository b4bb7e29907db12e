package integration

import (
	"testing"

	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/hive"
	"rapidanalytics/internal/rdf"
)

// selfLoopGraph is a cycle a→b→c→a with the reverse edges a→c and b→a on
// e:knows, and one e:tag per node; with loop, b also knows itself.
func selfLoopGraph(loop bool) *rdf.Graph {
	g := &rdf.Graph{}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "c"}, {"b", "a"}} {
		g.Add(rdf.T(iri(e[0]), iri("knows"), iri(e[1])))
	}
	if loop {
		g.Add(rdf.T(iri("b"), iri("knows"), iri("b")))
	}
	for _, s := range []string{"a", "b", "c"} {
		g.Add(rdf.T(iri(s), iri("tag"), iri("t"+s)))
	}
	return g
}

// A triple pattern that repeats a variable binds it to one term (Schmidt
// et al.'s mappings), so only self-loops match it: with the loop, b is the
// one answer, and without it there is none — from the oracle and from
// every engine, Hive reduce-side (a zero map-join budget) and at its
// default budget.
func TestRepeatedVariableMatchesSelfLoops(t *testing.T) {
	b := iri("b").Key()
	for _, tc := range []struct {
		name, query  string
		loop, noLoop []codec.Tuple
	}{
		{"bound property", `PREFIX e: <http://e/>
SELECT ?s (COUNT(?v) AS ?n) { ?s e:knows ?s . ?s e:tag ?v } GROUP BY ?s`,
			[]codec.Tuple{{b, "1"}}, nil},
		{"unbound property", `PREFIX e: <http://e/>
SELECT ?s (COUNT(?v) AS ?n) { ?s ?p ?s . ?s e:tag ?v } GROUP BY ?s`,
			[]codec.Tuple{{b, "1"}}, nil},
		// MQO scans the self-loop as a secondary, LEFT OUTER property.
		{"secondary property", `PREFIX e: <http://e/>
SELECT ?n ?m {
  { SELECT (COUNT(?v) AS ?n) { ?s e:knows ?s . ?s e:tag ?v } }
  { SELECT (COUNT(?v) AS ?m) { ?s e:tag ?v } }
}`,
			[]codec.Tuple{{"1", "3"}}, []codec.Tuple{{"0", "3"}}},
	} {
		zero := hive.Config{MapJoinBytes: 0}
		aq := buildAQ(t, tc.query)
		for _, loop := range []bool{true, false} {
			g := selfLoopGraph(loop)
			want := engine.NewResult(aq)
			if want.Rows = tc.noLoop; loop {
				want.Rows = tc.loop
			}
			got := oracle(t, g, tc.query)
			if diff := want.Diff(got); diff != "" {
				t.Errorf("%s, loop %v: oracle differs from the expected rows: %s", tc.name, loop, diff)
			}
			for _, e := range append(engines(), &hive.Naive{Conf: zero}, &hive.MQO{Conf: zero}) {
				c, ds := setup(t, g)
				got, _, err := engine.Execute(c, ds, e, aq)
				if err != nil {
					t.Errorf("%s, loop %v, %s: %v", tc.name, loop, e.Name(), err)
					continue
				}
				if diff := want.Diff(got); diff != "" {
					t.Errorf("%s, loop %v, %s differs from the expected rows: %s", tc.name, loop, e.Name(), diff)
				}
				checkClean(t, c, e.Name())
			}
		}
	}
}
