package integration

import (
	"maps"
	"slices"
	"testing"

	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// lexicalFinalQuery and lexicalExprQuery read MIN finals that start with a
// tag letter: SPARQL compares the string with no number and multiplies it
// by none.
const lexicalFinalQuery = prefix + `SELECT ?g (MIN(?c) AS ?m) { ?s e:code ?c ; e:g ?g } GROUP BY ?g HAVING (MIN(?c) > 3)`

const lexicalExprQuery = prefix + `SELECT ?g (?m * 2 AS ?x) {
  { SELECT ?g (MIN(?c) AS ?m) { ?s e:code ?c ; e:g ?g } GROUP BY ?g }
  { SELECT ?g (COUNT(?s) AS ?n) { ?s e:g ?g } GROUP BY ?g }
}`

// boundTwiceQuery binds ?o in two patterns of one star.
const boundTwiceQuery = prefix + `SELECT ?o (COUNT(?s) AS ?n) { ?s e:knows ?o . ?s e:tag ?o . } GROUP BY ?o`

// boundTwiceMultiGrouping merges boundTwiceQuery's star with a grouping
// that lacks e:tag: Hive (MQO) joins e:tag as an OPTIONAL input repeating
// ?o.
const boundTwiceMultiGrouping = prefix + `SELECT ?o ?n ?m {
  { SELECT ?o (COUNT(?s) AS ?n) { ?s e:knows ?o . ?s e:tag ?o . } GROUP BY ?o }
  { SELECT (COUNT(?s) AS ?m) { ?s e:knows ?o . } }
}`

// fuzzQueries are the package's query texts in a fixed order: those the
// engines all accept, then optionalBoundAfter, which Build rejects.
func fuzzQueries() []string {
	qs := slices.Concat(slices.Sorted(maps.Values(queries)), slices.Sorted(maps.Values(sameTableQueries)))
	return append(qs, optionalFeature, rollupQuery, havingGrouped, topRatioQuery, propertyUsage, typedUnbound,
		unboundMultiGrouping, lexicalFinalQuery, lexicalExprQuery, boundTwiceQuery, optionalBetween, boundTwiceMultiGrouping, optionalBoundAfter)
}

// fuzzVocabulary returns the constant properties and objects the queries
// name, then the other objects a fuzzed graph draws from: its subjects,
// numbers, and literals that start with a tag letter.
func fuzzVocabulary(qs []string) (props, objs []rdf.Term) {
	seen := map[rdf.Term]bool{}
	add := func(dst *[]rdf.Term, t rdf.Term) {
		if !seen[t] {
			seen[t] = true
			*dst = append(*dst, t)
		}
	}
	for _, qs := range qs {
		var walk func(s *sparql.SelectQuery)
		walk = func(s *sparql.SelectQuery) {
			tps := s.Pattern.Triples
			for _, o := range s.Pattern.Optionals {
				tps = append(slices.Clip(tps), o.Triples...)
			}
			for _, tp := range tps {
				if !tp.P.IsVar {
					add(&props, tp.P.Term)
				}
				if !tp.O.IsVar {
					add(&objs, tp.O.Term)
				}
			}
			for _, sub := range s.Pattern.SubSelects {
				walk(sub)
			}
		}
		walk(sparql.MustParse(qs).Select)
	}
	for _, s := range fuzzSubjects {
		add(&objs, iri(s))
	}
	for _, l := range []string{"1", "2", "5", "7", "10", "40", "2.5", "L5", "I9", "B1", "x", "y"} {
		add(&objs, lit(l))
	}
	return props, objs
}

var fuzzSubjects = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// fuzzGraph reads the statements of a graph from data, three bytes each:
// a subject, a property and an object of the vocabulary.
func fuzzGraph(data []byte, props, objs []rdf.Term) *rdf.Graph {
	g := &rdf.Graph{}
	for ; len(data) >= 3 && g.Len() < 64; data = data[3:] {
		g.Add(rdf.T(iri(fuzzSubjects[int(data[0])%len(fuzzSubjects)]), props[int(data[1])%len(props)], objs[int(data[2])%len(objs)]))
	}
	return g
}

// encodeGraph is fuzzGraph's inverse for the seed corpus.
func encodeGraph(t testing.TB, props, objs []rdf.Term, ts ...rdf.Triple) []byte {
	var data []byte
	for _, tr := range ts {
		s := slices.IndexFunc(fuzzSubjects, func(s string) bool { return iri(s) == tr.Subject })
		p, o := slices.Index(props, tr.Property), slices.Index(objs, tr.Object)
		if s < 0 || p < 0 || o < 0 {
			t.Fatalf("seed statement %v is outside the vocabulary", tr)
		}
		data = append(data, byte(s), byte(p), byte(o))
	}
	return data
}

// FuzzEnginesMatchOracle runs one of the package's queries on every
// engine over a small graph read from the input: each must return the
// oracle's rows. A query Build rejects is only answered by the oracle.
func FuzzEnginesMatchOracle(f *testing.F) {
	qs := fuzzQueries()
	props, objs := fuzzVocabulary(qs)
	seed := func(q string, ts ...rdf.Triple) {
		f.Add(uint8(slices.Index(qs, q)), encodeGraph(f, props, objs, ts...))
	}
	// Aggregate finals that start with a tag letter.
	lexical := []rdf.Triple{
		rdf.T(iri("a"), iri("code"), lit("L5")), rdf.T(iri("a"), iri("g"), lit("x")),
		rdf.T(iri("b"), iri("code"), lit("I9")), rdf.T(iri("b"), iri("g"), lit("y")),
	}
	seed(lexicalFinalQuery, lexical...)
	seed(lexicalExprQuery, lexical...)
	// One variable bound by two patterns of a star.
	boundTwice := []rdf.Triple{rdf.T(iri("a"), iri("knows"), iri("b")), rdf.T(iri("a"), iri("tag"), iri("b")),
		rdf.T(iri("a"), iri("tag"), iri("c")), rdf.T(iri("c"), iri("knows"), iri("c")), rdf.T(iri("c"), iri("tag"), iri("a"))}
	seed(boundTwiceQuery, boundTwice...)
	seed(boundTwiceMultiGrouping, boundTwice...)
	seed(queries["mg1"], rdf.T(iri("a"), rdf.TypeTerm, iri("PT1")), rdf.T(iri("a"), iri("label"), lit("x")),
		rdf.T(iri("a"), iri("pf"), iri("b")), rdf.T(iri("c"), iri("product"), iri("a")), rdf.T(iri("c"), iri("price"), lit("10")))
	// An OPTIONAL block between required patterns, with delivery data on
	// one of two offers.
	delivery := []rdf.Triple{
		rdf.T(iri("a"), rdf.TypeTerm, iri("PT1")), rdf.T(iri("b"), rdf.TypeTerm, iri("PT1")),
		rdf.T(iri("c"), iri("product"), iri("a")), rdf.T(iri("d"), iri("product"), iri("b")),
		rdf.T(iri("c"), iri("delivery"), lit("2")),
	}
	seed(optionalBoundAfter, delivery...)
	seed(optionalBetween, delivery...)
	f.Fuzz(func(t *testing.T, qi uint8, data []byte) {
		q := qs[int(qi)%len(qs)]
		g := fuzzGraph(data, props, objs)
		want := oracle(t, g, q)
		if q == optionalBoundAfter {
			return
		}
		aq := buildAQ(t, q)
		for _, e := range engines() {
			c, ds := setup(t, g)
			got, _, err := engine.Execute(c, ds, e, aq)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if diff := want.Diff(got); diff != "" {
				t.Errorf("%s differs from the oracle on\n%s\nover %v: %s", e.Name(), q, g.Triples, diff)
			}
		}
	})
}
