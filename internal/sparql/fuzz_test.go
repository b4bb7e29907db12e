package sparql_test

import (
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/sparql"
)

// FuzzParse checks that the parser never panics and that whatever parses
// either builds into the analytical form or fails to with an error:
// algebra.Build never panics on a parsed query either.
func FuzzParse(f *testing.F) {
	for _, id := range bench.IDs() {
		q, _ := bench.Get(id)
		f.Add(q.SPARQL)
	}
	// An OPTIONAL block between required patterns: one whose subject only
	// the later pattern binds (not well-designed), one whose subject the
	// earlier pattern binds.
	f.Add(`PREFIX e: <http://e/> SELECT ?p (COUNT(?off) AS ?n) { ?p a e:PT1 . OPTIONAL { ?off e:delivery ?d } ?off e:product ?p } GROUP BY ?p`)
	f.Add(`PREFIX e: <http://e/> SELECT ?p (COUNT(?d) AS ?n) { ?off e:product ?p . OPTIONAL { ?off e:delivery ?d } ?p a e:PT1 } GROUP BY ?p`)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		algebra.Build(q)
	})
}
