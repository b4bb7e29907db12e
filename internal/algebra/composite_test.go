package algebra

import (
	"reflect"
	"testing"

	"rapidanalytics/internal/sparql"
)

func mustAQ(t *testing.T, query string) *AnalyticalQuery {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	aq, err := Build(q)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return aq
}

const mg1 = prefix + `SELECT ?f ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:productFeature ?f .
      ?off2 e:product ?p2 ; e:price ?pr2 .
    } GROUP BY ?f
  }
  { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?off1 e:product ?p1 ; e:price ?pr .
    }
  }
}`

func TestBuildAnalytical(t *testing.T) {
	aq := mustAQ(t, mg1)
	if len(aq.Subqueries) != 2 {
		t.Fatalf("subqueries = %d", len(aq.Subqueries))
	}
	sq1, sq2 := aq.Subqueries[0], aq.Subqueries[1]
	if got := sq1.OutputColumns(); !reflect.DeepEqual(got, []string{"f", "cntF", "sumF"}) {
		t.Errorf("sq1 columns = %v", got)
	}
	if !sq2.GroupByAll() {
		t.Error("sq2 should group by ALL")
	}
	if cols := aq.JoinColumns(1); len(cols) != 0 {
		t.Errorf("MG1 join columns = %v, want none (cross join with ALL row)", cols)
	}
	if got := aq.OutputColumns(); !reflect.DeepEqual(got, []string{"f", "sumF", "cntF", "sumT", "cntT"}) {
		t.Errorf("output columns = %v", got)
	}
}

func TestBuildSingleGrouping(t *testing.T) {
	aq := mustAQ(t, prefix+`SELECT ?cid (COUNT(?cid) AS ?n) {
  ?b e:CID ?cid ; e:outcome ?a .
} GROUP BY ?cid`)
	if len(aq.Subqueries) != 1 {
		t.Fatalf("subqueries = %d", len(aq.Subqueries))
	}
	if got := aq.OutputColumns(); !reflect.DeepEqual(got, []string{"cid", "n"}) {
		t.Errorf("columns = %v", got)
	}
}

func TestCompositeMG1(t *testing.T) {
	aq := mustAQ(t, mg1)
	cp, err := BuildComposite(aq.Subqueries)
	if err != nil {
		t.Fatalf("BuildComposite: %v", err)
	}
	if len(cp.Stars) != 2 {
		t.Fatalf("composite stars = %d", len(cp.Stars))
	}
	// Star 1: primary {type=PT1, label}, secondary {productFeature} owned by
	// pattern 0 only.
	s1 := cp.Stars[0]
	if got := len(s1.PrimaryRefs()); got != 2 {
		t.Errorf("star1 primary = %v", s1.PrimaryRefs())
	}
	sec := s1.SecondaryRefs()
	if len(sec) != 1 || sec[0].Prop != "http://e/productFeature" {
		t.Errorf("star1 secondary = %v", sec)
	}
	if req := s1.RequiredSecondaryFor(0); len(req) != 1 {
		t.Errorf("pattern 0 required secondaries = %v", req)
	}
	if req := s1.RequiredSecondaryFor(1); len(req) != 0 {
		t.Errorf("pattern 1 required secondaries = %v", req)
	}
	// Star 2: all primary {product, price}.
	s2 := cp.Stars[1]
	if len(s2.PrimaryRefs()) != 2 || len(s2.SecondaryRefs()) != 0 {
		t.Errorf("star2 prim=%v sec=%v", s2.PrimaryRefs(), s2.SecondaryRefs())
	}
	// Variable maps: pattern 1's ?pr maps to the canonical ?pr2.
	if got := cp.VarMaps[1]["pr"]; got != "pr2" {
		t.Errorf("varmap[1][pr] = %q, want pr2", got)
	}
	if got := cp.VarMaps[1]["p1"]; got != "p2" {
		t.Errorf("varmap[1][p1] = %q, want p2", got)
	}
	if got := cp.VarMaps[0]["f"]; got != "f" {
		t.Errorf("varmap[0][f] = %q", got)
	}
}

// MG3 shape: three stars, secondary productFeature in star 1; the country
// star is fully primary.
func TestCompositeMG3(t *testing.T) {
	aq := mustAQ(t, prefix+`SELECT ?f ?c ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f ?c (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:productFeature ?f .
      ?off2 e:product ?p2 ; e:price ?pr2 ; e:vendor ?v2 .
      ?v2 e:country ?c .
    } GROUP BY ?f ?c
  }
  { SELECT ?c (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?off1 e:product ?p1 ; e:price ?pr ; e:vendor ?v1 .
      ?v1 e:country ?c .
    } GROUP BY ?c
  }
}`)
	cp, err := BuildComposite(aq.Subqueries)
	if err != nil {
		t.Fatalf("BuildComposite: %v", err)
	}
	if len(cp.Stars) != 3 {
		t.Fatalf("composite stars = %d", len(cp.Stars))
	}
	var secProps []string
	for _, cs := range cp.Stars {
		for _, r := range cs.SecondaryRefs() {
			secProps = append(secProps, r.Prop)
		}
	}
	if !reflect.DeepEqual(secProps, []string{"http://e/productFeature"}) {
		t.Errorf("secondary props = %v", secProps)
	}
	// Both patterns' ?c map to the same composite variable.
	if cp.VarMaps[0]["c"] != cp.VarMaps[1]["c"] {
		t.Errorf("country variable maps diverge: %q vs %q", cp.VarMaps[0]["c"], cp.VarMaps[1]["c"])
	}
	if cols := aq.JoinColumns(1); !reflect.DeepEqual(cols, []string{"c"}) {
		t.Errorf("join columns = %v, want [c]", cols)
	}
}

func TestCompositeRejectsNonOverlap(t *testing.T) {
	aq := mustAQ(t, prefix+`SELECT ?x ?n ?m {
  { SELECT ?x (COUNT(?y) AS ?n) { ?a e:p ?x ; e:q ?y . } GROUP BY ?x }
  { SELECT (COUNT(?z) AS ?m) { ?b e:r ?z . } }
}`)
	if _, err := BuildComposite(aq.Subqueries); err == nil {
		t.Fatal("BuildComposite should fail for non-overlapping patterns")
	}
}

func TestCompositeRejectsDifferingFilters(t *testing.T) {
	aq := mustAQ(t, prefix+`SELECT ?x ?n ?m {
  { SELECT ?x (COUNT(?y) AS ?n) { ?a e:p ?x ; e:q ?y . FILTER (?y > 10) } GROUP BY ?x }
  { SELECT (COUNT(?y2) AS ?m) { ?a2 e:p ?x2 ; e:q ?y2 . } }
}`)
	if _, err := BuildComposite(aq.Subqueries); err == nil {
		t.Fatal("BuildComposite should reject differing FILTER constraints")
	}
}

func TestCompositeSharedFiltersAccepted(t *testing.T) {
	aq := mustAQ(t, prefix+`SELECT ?x ?n ?m {
  { SELECT ?x (COUNT(?y) AS ?n) { ?a e:p ?x ; e:q ?y . FILTER (?y > 10) } GROUP BY ?x }
  { SELECT (COUNT(?y2) AS ?m) { ?a2 e:p ?x2 ; e:q ?y2 . FILTER (?y2 > 10) } }
}`)
	cp, err := BuildComposite(aq.Subqueries)
	if err != nil {
		t.Fatalf("BuildComposite: %v", err)
	}
	if len(cp.Filters) != 1 || cp.Filters[0].Var != "y" {
		t.Errorf("composite filters = %+v", cp.Filters)
	}
}

// Secondary properties contributed by the *second* pattern get fresh
// variable names when the first pattern already uses the name.
func TestCompositeVariableRenaming(t *testing.T) {
	aq := mustAQ(t, prefix+`SELECT ?x ?n ?m {
  { SELECT ?x (COUNT(?y) AS ?n) { ?a e:p ?x ; e:q ?y . } GROUP BY ?x }
  { SELECT ?x2 (COUNT(?y) AS ?m) { ?a2 e:p ?x2 ; e:q ?y ; e:extra ?x . } GROUP BY ?x2 }
}`)
	cp, err := BuildComposite(aq.Subqueries)
	if err != nil {
		t.Fatalf("BuildComposite: %v", err)
	}
	// Pattern 1's ?x (object of e:extra) collides with pattern 0's ?x and
	// must be renamed.
	got := cp.VarMaps[1]["x"]
	if got == "x" || got == "" {
		t.Errorf("colliding secondary variable mapped to %q", got)
	}
	if cp.VarMaps[1]["x2"] != "x" {
		t.Errorf("subject variable of pattern 1 = %q, want x", cp.VarMaps[1]["x2"])
	}
}

func TestBuildRejections(t *testing.T) {
	cases := map[string]string{
		"no aggregation":          prefix + `SELECT ?s { ?s e:p ?o . }`,
		"non-grouping projection": prefix + `SELECT ?s ?o (COUNT(?o) AS ?n) { ?s e:p ?o . } GROUP BY ?s`,
		"unknown outer column": prefix + `SELECT ?zzz {
  { SELECT ?x (COUNT(?y) AS ?n) { ?a e:p ?x ; e:q ?y . } GROUP BY ?x } }`,
		"group var unbound": prefix + `SELECT ?q (COUNT(?o) AS ?n) { ?s e:p ?o . } GROUP BY ?q`,
		// The engines evaluate only the sub-SELECTs of the outer query.
		"outer filter": prefix + `SELECT ?x ?n {
  { SELECT ?x (COUNT(?y) AS ?n) { ?a e:p ?x ; e:q ?y . } GROUP BY ?x } FILTER (?n > 1) }`,
		"outer optional": prefix + `SELECT ?x ?n {
  { SELECT ?x (COUNT(?y) AS ?n) { ?a e:p ?x ; e:q ?y . } GROUP BY ?x } OPTIONAL { ?x e:r ?z } }`,
	}
	for name, qs := range cases {
		q, err := sparql.Parse(qs)
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		if _, err := Build(q); err == nil {
			t.Errorf("%s: Build succeeded, want error", name)
		}
	}
	// A cause raised below buildSubquery is prefixed once, in both shapes.
	for name, tc := range map[string]struct{ query, want string }{
		"single": {
			prefix + `SELECT ?s (COUNT(?o) AS ?n) { ?s e:p ?o . OPTIONAL { ?s ?q ?x . } } GROUP BY ?s`,
			"algebra: unbound properties inside OPTIONAL are not supported",
		},
		"subquery": {
			prefix + `SELECT ?s ?n { { SELECT ?s (COUNT(?o) AS ?n) { ?s e:p ?o . OPTIONAL { ?s ?q ?x . } } GROUP BY ?s } }`,
			"algebra: subquery 1: unbound properties inside OPTIONAL are not supported",
		},
	} {
		q, err := sparql.Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		if _, err := Build(q); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Build error = %v, want %q", name, err, tc.want)
		}
	}
}

func TestCompositeString(t *testing.T) {
	aq := mustAQ(t, mg1)
	cp, err := BuildComposite(aq.Subqueries)
	if err != nil {
		t.Fatalf("BuildComposite: %v", err)
	}
	s := cp.String()
	if s == "" {
		t.Fatal("empty composite string")
	}
	// Exactly one secondary marker across the two stars.
	count := 0
	for _, r := range s {
		if r == '?' {
			count++
		}
	}
	// two subject vars ("?p2", "?off2") plus one secondary marker
	if count != 3 {
		t.Errorf("composite string = %q (marker count %d)", s, count)
	}
}
