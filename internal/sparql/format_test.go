package sparql

import (
	"reflect"
	"strings"
	"testing"
)

// Round-trip: Format(Parse(q)) reparses to a structurally identical AST.
func TestFormatRoundTrip(t *testing.T) {
	cases := []string{
		mg1Style,
		`PREFIX e: <http://e/>
SELECT ?f ((?a/?b) + 2 AS ?r) {
  { SELECT ?f (COUNT(DISTINCT ?x) AS ?a) (SUM(?x) AS ?b)
    { ?s e:p ?f ; e:q ?x . FILTER (?x > 10) FILTER regex(?f, "pat.*ern", "i") } GROUP BY ?f }
  { SELECT (COUNT(?y) AS ?c) { ?s2 e:q ?y . } }
} ORDER BY DESC(?r) ?f LIMIT 5`,
		`PREFIX e: <http://e/>
SELECT ?s (MIN(?v) AS ?lo) { ?s a e:T ; e:v ?v ; e:tag "x y \"z\"" . } GROUP BY ?s`,
		`SELECT (AVG(?v) AS ?m) { ?s <http://long/iri with spaces illegal?no> ?v . }`,
		`PREFIX e: <http://e/>
SELECT ?g (COUNT(DISTINCT ?x) AS ?c) { ?g e:p ?x . } GROUP BY ?g HAVING (COUNT(DISTINCT ?x) > 2) ORDER BY ?g LIMIT 3`,
		`SELECT ?p (COUNT(?o) AS ?n) { ?s ?p ?o . } GROUP BY ?p`,
		`PREFIX e: <http://e/>
SELECT ?f (COUNT(?pr) AS ?n) { ?p a e:T . OPTIONAL { ?p e:pf ?f } ?o e:product ?p ; e:price ?pr . } GROUP BY ?f`,
	}
	// the last case's IRI has odd characters; keep it legal instead:
	cases[3] = `SELECT (AVG(?v) AS ?m) { ?s <http://e/x#frag.2> ?v . }`
	for i, src := range cases {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		text := Format(q1)
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("case %d: reparse: %v\n%s", i, err, text)
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Errorf("case %d: round trip changed the AST\nsource:\n%s\nformatted:\n%s", i, src, text)
		}
		// Formatting is idempotent.
		if text2 := Format(q2); text2 != text {
			t.Errorf("case %d: Format not idempotent:\n%s\nvs\n%s", i, text, text2)
		}
	}
}

func TestFormatCompactsIRIs(t *testing.T) {
	q := MustParse(`PREFIX bsbm: <http://bsbm.org/v01/>
SELECT (COUNT(?pr) AS ?c) { ?o bsbm:price ?pr . ?p a bsbm:ProductType1 . }`)
	text := Format(q)
	if !strings.Contains(text, "bsbm:price") {
		t.Errorf("IRI not compacted:\n%s", text)
	}
	if !strings.Contains(text, " a bsbm:ProductType1") {
		t.Errorf("rdf:type not rendered as 'a':\n%s", text)
	}
	if strings.Contains(text, "<http://bsbm.org/v01/price>") {
		t.Errorf("full IRI leaked:\n%s", text)
	}
}

func TestFormatPreservesPredicateLists(t *testing.T) {
	q := MustParse(`PREFIX e: <http://e/>
SELECT (COUNT(?x) AS ?c) { ?s e:p ?x ; e:q ?y . ?t e:r ?s . }`)
	text := Format(q)
	if strings.Count(text, "?s e:p") != 1 || !strings.Contains(text, ";") {
		t.Errorf("predicate list not reconstructed:\n%s", text)
	}
}

// A literal that is not valid UTF-8 formats byte for byte: ranging over it
// as runes wrote U+FFFD in place of the stray byte, so the reparsed query
// no longer matched the same term (found by FuzzParse).
func TestFormatKeepsNonUTF8Literals(t *testing.T) {
	q := MustParse("PREFIX e: <http://e/>\nSELECT (COUNT(?s) AS ?c) { ?s e:p \"a\xc4b\" . }")
	q2, err := Parse(Format(q))
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Select.Pattern.Triples[0].O.Term.Value; got != "a\xc4b" {
		t.Errorf("literal after round trip = %q, want %q", got, "a\xc4b")
	}
}
