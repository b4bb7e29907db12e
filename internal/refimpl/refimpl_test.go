package refimpl

import (
	"sort"
	"strings"
	"testing"

	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

// testGraph builds a small e-commerce graph:
//
//	p1: PT1, label, features f1 f2; offers o1 ($10), o2 ($20)
//	p2: PT1, label, feature f1;     offer o3 ($40)
//	p3: PT1, label, no features;    offer o4 ($100)
//	p4: PT2 (wrong type);           offer o5 ($7)
func testGraph() *rdf.Graph {
	g := &rdf.Graph{}
	prod := func(name, typ string, features ...string) {
		g.Add(rdf.T(iri(name), rdf.TypeTerm, iri(typ)))
		g.Add(rdf.T(iri(name), iri("label"), lit("label-"+name)))
		for _, f := range features {
			g.Add(rdf.T(iri(name), iri("pf"), iri(f)))
		}
	}
	offer := func(name, product, price string) {
		g.Add(rdf.T(iri(name), iri("product"), iri(product)))
		g.Add(rdf.T(iri(name), iri("price"), lit(price)))
	}
	prod("p1", "PT1", "f1", "f2")
	prod("p2", "PT1", "f1")
	prod("p3", "PT1")
	prod("p4", "PT2", "f1")
	offer("o1", "p1", "10")
	offer("o2", "p1", "20")
	offer("o3", "p2", "40")
	offer("o4", "p3", "100")
	offer("o5", "p4", "7")
	return g
}

const mg1Query = `PREFIX e: <http://e/>
SELECT ?f ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:pf ?f .
      ?off2 e:product ?p2 ; e:price ?pr2 .
    } GROUP BY ?f
  }
  { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?off1 e:product ?p1 ; e:price ?pr .
    }
  }
}`

// execute evaluates query q over g, interned into a dictionary of its
// own.
func execute(g *rdf.Graph, q string) (*engine.Result, error) {
	d := rdf.NewDict()
	return Execute(sparql.MustParse(q), d, rdf.InternTriples(d, nil, g.Triples))
}

func TestExecuteMG1(t *testing.T) {
	res, err := execute(testGraph(), mg1Query)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// Per-feature: f1 gets o1+o2 (p1) and o3 (p2): count 3, sum 70.
	//              f2 gets o1+o2 (p1): count 2, sum 30.
	// Overall (type PT1, feature-free pattern): o1..o4: count 4, sum 170.
	got := map[string]string{}
	for _, row := range res.Rows {
		got[row[0]] = strings.Join(row[1:], " ")
	}
	want := map[string]string{
		"Ihttp://e/f1": "70 3 170 4",
		"Ihttp://e/f2": "30 2 170 4",
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("row %s = %q, want %q", k, got[k], w)
		}
	}
}

func TestExecuteSingleGrouping(t *testing.T) {
	// Count offers per product type PT1 product.
	res, err := execute(testGraph(), `PREFIX e: <http://e/>
SELECT ?p (COUNT(?pr) AS ?n) {
  ?p a e:PT1 .
  ?off e:product ?p ; e:price ?pr .
} GROUP BY ?p`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	counts := map[string]string{}
	for _, row := range res.Rows {
		counts[row[0]] = row[1]
	}
	want := map[string]string{"Ihttp://e/p1": "2", "Ihttp://e/p2": "1", "Ihttp://e/p3": "1"}
	if len(counts) != 3 {
		t.Fatalf("rows = %v", counts)
	}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("count[%s] = %q, want %q", k, counts[k], w)
		}
	}
}

func TestExecuteFilters(t *testing.T) {
	res, err := execute(testGraph(), `PREFIX e: <http://e/>
SELECT ?p (COUNT(?pr) AS ?n) {
  ?p a e:PT1 .
  ?off e:product ?p ; e:price ?pr .
  FILTER (?pr > 15)
} GROUP BY ?p`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (o2, o3, o4 pass the filter)", len(res.Rows))
	}
	var keys []string
	for _, row := range res.Rows {
		keys = append(keys, row[0]+"="+row[1])
	}
	sort.Strings(keys)
	want := "Ihttp://e/p1=1,Ihttp://e/p2=1,Ihttp://e/p3=1"
	if strings.Join(keys, ",") != want {
		t.Errorf("rows = %v", keys)
	}
}

func TestExecuteRegexFilter(t *testing.T) {
	res, err := execute(testGraph(), `PREFIX e: <http://e/>
SELECT (COUNT(?l) AS ?n) {
  ?p a e:PT1 ; e:label ?l .
  FILTER regex(?l, "label-p[12]", "i")
}`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "2" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// A GROUP BY ALL subquery with no matches still yields its single row, so
// the outer cross join does not wipe out the other grouping.
func TestExecuteEmptyGroupByAll(t *testing.T) {
	res, err := execute(testGraph(), `PREFIX e: <http://e/>
SELECT ?f ?cntF ?cntT {
  { SELECT ?f (COUNT(?f) AS ?cntF) { ?p a e:PT2 ; e:pf ?f . } GROUP BY ?f }
  { SELECT (COUNT(?x) AS ?cntT) { ?p2 a e:PT99 ; e:pf ?x . } }
}`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1] != "1" || res.Rows[0][2] != "0" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestExecuteExpressionProjection(t *testing.T) {
	res, err := execute(testGraph(), `PREFIX e: <http://e/>
SELECT ?f ((?sumF/?cntF) / (?sumT/?cntT) AS ?ratio) {
  { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:pf ?f . ?off2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr . } }
}`) // avg overall = 170/4 = 42.5; f2 avg = 15 -> ratio f2 ≈ 0.3529...
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	vals := map[string]string{}
	for _, row := range res.Rows {
		vals[row[0]] = row[1]
	}
	f1 := vals["Ihttp://e/f1"]
	if !strings.HasPrefix(f1, "0.549") {
		t.Errorf("f1 ratio = %q", f1)
	}
	f2 := vals["Ihttp://e/f2"]
	if !strings.HasPrefix(f2, "0.352") {
		t.Errorf("f2 ratio = %q", f2)
	}
}

// Join on a shared grouping column (MG3/MG18 shape).
func TestExecuteJoinOnSharedColumn(t *testing.T) {
	g := testGraph()
	// vendors: o1,o2 -> v1 (UK), o3 -> v2 (DE), o4 -> v1 (UK)
	g.Add(
		rdf.T(iri("o1"), iri("vendor"), iri("v1")),
		rdf.T(iri("o2"), iri("vendor"), iri("v1")),
		rdf.T(iri("o3"), iri("vendor"), iri("v2")),
		rdf.T(iri("o4"), iri("vendor"), iri("v1")),
		rdf.T(iri("v1"), iri("country"), lit("UK")),
		rdf.T(iri("v2"), iri("country"), lit("DE")),
	)
	res, err := execute(g, `PREFIX e: <http://e/>
SELECT ?f ?c ?cntF ?cntT {
  { SELECT ?f ?c (COUNT(?pr2) AS ?cntF)
    { ?p2 a e:PT1 ; e:pf ?f . ?off2 e:product ?p2 ; e:price ?pr2 ; e:vendor ?v2 .
      ?v2 e:country ?c . } GROUP BY ?f ?c }
  { SELECT ?c (COUNT(?pr) AS ?cntT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr ; e:vendor ?v1 .
      ?v1 e:country ?c . } GROUP BY ?c }
}`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	rows := map[string]string{}
	for _, r := range res.Rows {
		rows[res.Display(0, r[0])+"/"+res.Display(1, r[1])] = r[2] + ":" + r[3]
	}
	// UK offers on PT1: o1,o2,o4 (cntT=3); DE: o3 (cntT=1).
	// (f1,UK): o1,o2 -> 2; (f2,UK): o1,o2 -> 2; (f1,DE): o3 -> 1.
	want := map[string]string{
		"http://e/f1/UK": "2:3",
		"http://e/f2/UK": "2:3",
		"http://e/f1/DE": "1:1",
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for k, w := range want {
		if rows[k] != w {
			t.Errorf("row %s = %q, want %q", k, rows[k], w)
		}
	}
}

// An OPTIONAL block keeps its place in the group: { P1 OPTIONAL { O } P2 }
// is Join(LeftJoin(P1, O), P2). An extension of the block that a filter
// drops still is the block's match, so the solution without it is not
// made, and a later pattern cannot bind the variable afresh.
func TestExecuteOptionalOrder(t *testing.T) {
	g := &rdf.Graph{}
	g.Add(
		rdf.T(iri("s"), iri("a"), iri("x")),
		rdf.T(iri("s"), iri("b"), lit("1")),
		rdf.T(iri("s"), iri("c"), lit("1")),
		rdf.T(iri("s"), iri("c"), lit("9")),
		rdf.T(iri("t"), iri("a"), iri("x")),
		rdf.T(iri("t"), iri("c"), lit("9")),
	)
	for _, tc := range []struct{ query, want string }{
		// t has no e:b: its solution leaves ?o to e:c. s's e:b binds ?o
		// to "1" before e:c is joined, so s's "9" is no solution (the
		// flattened LeftJoin(P1 ∪ P2, O) would keep it).
		{`SELECT ?s ?o { ?s e:a ?x . OPTIONAL { ?s e:b ?o } ?s e:c ?o }`, `Ihttp://e/s|L1 Ihttp://e/t|L9`},
		// The filter drops s's extension, and with it s.
		{`SELECT ?s ?o { ?s e:a ?x . OPTIONAL { ?s e:b ?o } ?s e:c ?o FILTER (?o > 5) }`, `Ihttp://e/t|L9`},
	} {
		res, err := execute(g, "PREFIX e: <http://e/>\n"+tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		var rows []string
		for _, r := range res.Canonical() {
			rows = append(rows, strings.ReplaceAll(r, "\x1f", "|"))
		}
		if got := strings.Join(rows, " "); got != tc.want {
			t.Errorf("%s\nrows %s, want %s", tc.query, got, tc.want)
		}
	}
}
