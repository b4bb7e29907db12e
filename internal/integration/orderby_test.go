package integration

import (
	"rapidanalytics/internal/engine"
	"strconv"
	"testing"
)

// The paper's AQ1 asks for features with the *highest* price ratio — the
// natural form needs ORDER BY ... LIMIT, which costs every engine one
// extra single-reducer cycle (as in Hive).
const topRatioQuery = prefix + `SELECT ?f ((?sumF/?cntF) / (?sumT/?cntT) AS ?ratio) {
  { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:pf ?f . ?off2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 . ?off1 e:product ?p1 ; e:price ?pr . } }
} ORDER BY DESC(?ratio) LIMIT 2`

func TestOrderByLimitAcrossEngines(t *testing.T) {
	g := ecommerceGraph()
	aq := buildAQ(t, topRatioQuery)
	if !aq.Sorted() || aq.Limit != 2 {
		t.Fatalf("query not parsed as sorted+limited: %+v", aq.OrderBy)
	}
	want := oracle(t, g, topRatioQuery)
	if len(want.Rows) != 2 {
		t.Fatalf("oracle rows = %v", want.Rows)
	}
	if num(t, want.Rows[0][1]) < num(t, want.Rows[1][1]) {
		t.Fatalf("oracle not descending: %v", want.Rows)
	}
	for _, e := range engines() {
		c, ds := setup(t, g)
		got, wm, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(got.Rows) != 2 {
			t.Fatalf("%s rows = %v", e.Name(), got.Rows)
		}
		// Ordered comparison, not set comparison.
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if got.Rows[i][j] != want.Rows[i][j] {
					t.Fatalf("%s row %d = %v, want %v", e.Name(), i, got.Rows[i], want.Rows[i])
				}
			}
		}
		// The total-order pass is one extra cycle with a single reducer.
		last := wm.Jobs[len(wm.Jobs)-1]
		if last.Job != "order-by" || last.MapOnly {
			t.Errorf("%s: last cycle = %q (map-only %v), want order-by reduce cycle", e.Name(), last.Job, last.MapOnly)
		}
	}
}

// Ascending multi-key ordering without LIMIT, single-grouping shape.
func TestOrderByAscendingSingleGrouping(t *testing.T) {
	g := ecommerceGraph()
	qs := prefix + `SELECT ?f (COUNT(?pr) AS ?cnt) {
  ?p a e:PT1 ; e:pf ?f .
  ?off e:product ?p ; e:price ?pr .
} GROUP BY ?f ORDER BY ?cnt ?f`
	aq := buildAQ(t, qs)
	want := oracle(t, g, qs)
	for i := 1; i < len(want.Rows); i++ {
		if num(t, want.Rows[i-1][1]) > num(t, want.Rows[i][1]) {
			t.Fatalf("oracle not ascending: %v", want.Rows)
		}
	}
	for _, e := range engines() {
		c, ds := setup(t, g)
		got, _, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s rows = %d, want %d", e.Name(), len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if got.Rows[i][0] != want.Rows[i][0] || got.Rows[i][1] != want.Rows[i][1] {
				t.Fatalf("%s row %d = %v, want %v", e.Name(), i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	lex := s
	if len(lex) > 0 && (lex[0] == 'L' || lex[0] == 'I') {
		lex = lex[1:]
	}
	f, err := strconv.ParseFloat(lex, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return f
}

// A single-grouping query projects its columns in SELECT order, a grouping
// variable it leaves out included: every engine runs the map-only join
// cycle to project them, and returns the oracle's rows.
func TestSingleGroupingProjectionOrder(t *testing.T) {
	g := ecommerceGraph()
	for _, qs := range []string{
		prefix + `SELECT (COUNT(?pr) AS ?cnt) ?f { ?p a e:PT1 ; e:pf ?f . ?off e:product ?p ; e:price ?pr . } GROUP BY ?f`,
		prefix + `SELECT (COUNT(?pr) AS ?cnt) { ?p a e:PT1 ; e:pf ?f . ?off e:product ?p ; e:price ?pr . } GROUP BY ?f`,
	} {
		aq := buildAQ(t, qs)
		want := oracle(t, g, qs)
		if want.Columns[0] != "cnt" || len(want.Rows) < 2 {
			t.Fatalf("oracle columns %v, rows %v", want.Columns, want.Rows)
		}
		for _, e := range engines() {
			c, ds := setup(t, g)
			got, _, err := engine.Execute(c, ds, e, aq)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if diff := want.Diff(got); diff != "" {
				t.Errorf("%s differs from the oracle on %s: %s", e.Name(), qs, diff)
			}
		}
	}
}
