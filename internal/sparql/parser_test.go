package sparql

import (
	"strings"
	"testing"

	"rapidanalytics/internal/rdf"
)

const mg1Style = `
PREFIX bsbm: <http://bsbm.org/>
SELECT ?f ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a bsbm:ProductType1 ; bsbm:label ?l2 ; bsbm:productFeature ?f .
      ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 .
    } GROUP BY ?f
  }
  { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a bsbm:ProductType1 ; bsbm:label ?l1 .
      ?off1 bsbm:product ?p1 ; bsbm:price ?pr .
    }
  }
}`

func TestParseAnalyticalQuery(t *testing.T) {
	q, err := Parse(mg1Style)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sel := q.Select
	if got := len(sel.Projection); got != 5 {
		t.Fatalf("outer projection size = %d, want 5", got)
	}
	if got := len(sel.Pattern.SubSelects); got != 2 {
		t.Fatalf("sub-selects = %d, want 2", got)
	}
	sub1 := sel.Pattern.SubSelects[0]
	if len(sub1.GroupBy) != 1 || sub1.GroupBy[0] != "f" {
		t.Errorf("sub1 GroupBy = %v, want [f]", sub1.GroupBy)
	}
	if len(sub1.Pattern.Triples) != 5 {
		t.Errorf("sub1 triple patterns = %d, want 5", len(sub1.Pattern.Triples))
	}
	// First triple: ?p2 rdf:type bsbm:ProductType1
	tp := sub1.Pattern.Triples[0]
	if !tp.S.IsVar || tp.S.Var != "p2" {
		t.Errorf("tp.S = %v", tp.S)
	}
	if tp.P.IsVar || tp.P.Term.Value != rdf.RDFType {
		t.Errorf("tp.P = %v, want rdf:type", tp.P)
	}
	if tp.O.Term.Value != "http://bsbm.org/ProductType1" {
		t.Errorf("tp.O = %v", tp.O)
	}
	sub2 := sel.Pattern.SubSelects[1]
	if len(sub2.GroupBy) != 0 {
		t.Errorf("sub2 GroupBy = %v, want empty (group-by-ALL)", sub2.GroupBy)
	}
	// Aggregates parse with the right functions.
	aggs := []AggFunc{}
	for _, pi := range sub1.Projection {
		if pi.Agg != nil {
			aggs = append(aggs, pi.Agg.Func)
		}
	}
	if len(aggs) != 2 || aggs[0] != Count || aggs[1] != Sum {
		t.Errorf("sub1 aggregates = %v", aggs)
	}
}

func TestParseOptionalAS(t *testing.T) {
	// The paper's appendix omits AS: (COUNT(?pr2) ?cntF).
	q, err := Parse(`PREFIX e: <http://e/>
SELECT ?x (COUNT(?y) ?c) { ?x e:p ?y . } GROUP BY ?x`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pi := q.Select.Projection[1]
	if pi.Agg == nil || pi.Agg.Func != Count || pi.Agg.Var != "y" || pi.Var != "c" {
		t.Errorf("projection item = %+v", pi)
	}
}

func TestParseDistinctAggregate(t *testing.T) {
	q, err := Parse(`PREFIX e: <http://e/>
SELECT ?g (COUNT(DISTINCT ?x) AS ?c) (SUM(?y) AS ?s) { ?g e:p ?x ; e:q ?y . } GROUP BY ?g`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	a := q.Select.Projection[1].Agg
	if a == nil || !a.Distinct || a.Func != Count || a.Var != "x" {
		t.Errorf("distinct aggregate = %+v", a)
	}
	if q.Select.Projection[2].Agg.Distinct {
		t.Error("plain aggregate parsed as distinct")
	}
}

func TestParseExpressionProjection(t *testing.T) {
	q, err := Parse(`PREFIX e: <http://e/>
SELECT ?f ((?sumF/?cntF) / (?sumT/?cntT) AS ?ratio) {
  { SELECT ?f (SUM(?p) AS ?sumF) (COUNT(?p) AS ?cntF) { ?s e:a ?f ; e:b ?p . } GROUP BY ?f }
  { SELECT (SUM(?q) AS ?sumT) (COUNT(?q) AS ?cntT) { ?s2 e:b ?q . } }
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pi := q.Select.Projection[1]
	if pi.Expr == nil || pi.Var != "ratio" {
		t.Fatalf("expected expression projection, got %+v", pi)
	}
	vars := pi.Expr.Vars(nil)
	want := map[string]bool{"sumF": true, "cntF": true, "sumT": true, "cntT": true}
	if len(vars) != 4 {
		t.Fatalf("expr vars = %v", vars)
	}
	for _, v := range vars {
		if !want[v] {
			t.Errorf("unexpected expr var %q", v)
		}
	}
	if pi.Expr.Kind != ExprBinary || pi.Expr.Op != '/' {
		t.Errorf("expr root = %+v", pi.Expr)
	}
}

func TestParseFilters(t *testing.T) {
	q, err := Parse(`PREFIX e: <http://e/>
SELECT ?s { ?s e:price ?p ; e:name ?n .
  FILTER (?p > 5000)
  FILTER regex(?n, "MAPK signaling pathway", "i")
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fs := q.Select.Pattern.Filters
	if len(fs) != 2 {
		t.Fatalf("filters = %d, want 2", len(fs))
	}
	if fs[0].Kind != FilterCompare || fs[0].Var != "p" || fs[0].Op != ">" || fs[0].Value != "5000" || !fs[0].IsNumeric {
		t.Errorf("filter 0 = %+v", fs[0])
	}
	if fs[1].Kind != FilterRegex || fs[1].Var != "n" || fs[1].Pattern != "MAPK signaling pathway" || fs[1].Flags != "i" {
		t.Errorf("filter 1 = %+v", fs[1])
	}
}

func TestParseObjectList(t *testing.T) {
	q, err := Parse(`PREFIX e: <http://e/>
SELECT ?s { ?s e:tag "a", "b", "c" . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n := len(q.Select.Pattern.Triples); n != 3 {
		t.Fatalf("triples = %d, want 3", n)
	}
	for _, tp := range q.Select.Pattern.Triples {
		if tp.S.Var != "s" || tp.P.Term.Value != "http://e/tag" {
			t.Errorf("bad triple %v", tp)
		}
	}
}

func TestParseLiteralObjects(t *testing.T) {
	q, err := Parse(`PREFIX e: <http://e/>
SELECT ?a { ?p e:pub_type "Journal Article" ; e:author ?a . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tp := q.Select.Pattern.Triples[0]
	if tp.O.IsVar || !tp.O.Term.IsLiteral() || tp.O.Term.Value != "Journal Article" {
		t.Errorf("object = %v", tp.O)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing projection":  `SELECT { ?s ?p ?o . }`,
		"undeclared prefix":   `SELECT ?s { ?s x:p ?o . }`,
		"unterminated group":  `SELECT ?s { ?s <http://e/p> ?o .`,
		"empty group by":      `PREFIX e: <http://e/> SELECT ?s { ?s e:p ?o . } GROUP BY`,
		"bad filter":          `PREFIX e: <http://e/> SELECT ?s { ?s e:p ?o . FILTER (?o ~ 3) }`,
		"literal predicate":   `SELECT ?s { ?s "p" <http://e/o> . }`,
		"trailing garbage":    `PREFIX e: <http://e/> SELECT ?s { ?s e:p ?o . } LIMIT`,
		"nested non-select":   `PREFIX e: <http://e/> SELECT ?s { { ?s e:p ?o . } }`,
		"unterminated string": `PREFIX e: <http://e/> SELECT ?s { ?s e:p "x . }`,
	}
	for name, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestParseKeywordCaseInsensitive(t *testing.T) {
	q, err := Parse(`prefix e: <http://e/>
select ?s (count(?o) as ?c) where { ?s e:p ?o . } group by ?s`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Select.Projection[1].Agg.Func != Count {
		t.Errorf("agg func = %v", q.Select.Projection[1].Agg.Func)
	}
	if len(q.Select.GroupBy) != 1 {
		t.Errorf("group by = %v", q.Select.GroupBy)
	}
}

func TestParseDefaultPrefix(t *testing.T) {
	q, err := Parse(`PREFIX : <http://d/>
SELECT ?s { ?s :p ?o . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := q.Select.Pattern.Triples[0].P.Term.Value; got != "http://d/p" {
		t.Errorf("default prefix expansion = %q", got)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("not sparql")
}

func TestParseComments(t *testing.T) {
	q, err := Parse(strings.Join([]string{
		"# leading comment",
		"PREFIX e: <http://e/>",
		"SELECT ?s { ?s e:p ?o . # trailing comment",
		"}",
	}, "\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select.Pattern.Triples) != 1 {
		t.Errorf("triples = %d", len(q.Select.Pattern.Triples))
	}
}
