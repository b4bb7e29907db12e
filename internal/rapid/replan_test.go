package rapid

import (
	"context"
	"fmt"
	"rapidanalytics/internal/engine"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

// supernodeGraph plants one ProductType9 product holding 200 of the 219
// offers: the catalog says "one type9 subject", so the planner's predicted
// offers⋈type9 cardinality (~11) is wrong by ~18x against the observed 200
// — past the re-plan ratio of 4.
func supernodeGraph() *rdf.Graph {
	g := &rdf.Graph{}
	p := func(n string) rdf.Term { return rdf.NewIRI("http://e/" + n) }
	vendors := []rdf.Term{p("V0"), p("V1"), p("V2")}
	for i, v := range vendors {
		g.Add(rdf.T(v, p("country"), rdf.NewLiteral(fmt.Sprintf("C%d", i))))
	}
	producers := []rdf.Term{p("M0"), p("M1"), p("M2"), p("M3")}
	for i, m := range producers {
		g.Add(rdf.T(m, p("label"), rdf.NewLiteral(fmt.Sprintf("m%d", i))))
	}
	offerID := 0
	addOffers := func(prod rdf.Term, n int) {
		for k := 0; k < n; k++ {
			off := p(fmt.Sprintf("Off%d", offerID))
			offerID++
			g.Add(
				rdf.T(off, p("product"), prod),
				rdf.T(off, p("price"), rdf.NewLiteral(fmt.Sprintf("%d", 10+offerID))),
				rdf.T(off, p("vendor"), vendors[offerID%len(vendors)]),
			)
		}
	}
	for i := 0; i < 20; i++ {
		prod := p(fmt.Sprintf("P%d", i))
		ptype := "T1"
		if i == 0 {
			ptype = "T9"
		}
		g.Add(
			rdf.T(prod, rdf.TypeTerm, p(ptype)),
			rdf.T(prod, p("producer"), producers[i%len(producers)]),
		)
		if i == 0 {
			addOffers(prod, 200)
		} else {
			addOffers(prod, 1)
		}
	}
	return g
}

const supernodeQuery = `PREFIX e: <http://e/>
SELECT ?c (COUNT(?pr) AS ?n) {
  ?off e:product ?p ; e:price ?pr ; e:vendor ?v .
  ?p a e:T9 ; e:producer ?mk .
  ?v e:country ?c .
  ?mk e:label ?ml .
} GROUP BY ?c`

func countReplans(sn *obs.Snapshot) int {
	n := 0
	sn.Walk(func(s *obs.Snapshot) {
		if s.Kind == obs.KindPlanner && s.Name == "re-plan" {
			n++
		}
	})
	return n
}

// TestBadEstimateTriggersExactlyOneReplan is the adaptivity regression:
// on the super-node graph the cost planner joins the (predicted-tiny) type9
// chain first, observes the 200-row blow-up at the offers join — the only
// mispredicted cycle — and re-plans exactly once, logging a "re-plan"
// planner span. Results must still match the oracle.
func TestBadEstimateTriggersExactlyOneReplan(t *testing.T) {
	g := supernodeGraph()
	q := sparql.MustParse(supernodeQuery)
	aq, err := algebra.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	c, ds := load(t, g)
	if ds.Stats == nil {
		t.Fatal("dataset loaded without a statistics catalog")
	}
	root := obs.New(obs.KindQuery, "replan-test")
	tc := c.WithContext(obs.NewContext(context.Background(), root))
	res, _, err := engine.Execute(tc, ds, New(), aq)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if got := countReplans(root.Snapshot()); got != 1 {
		t.Errorf("re-plan spans = %d, want exactly 1", got)
	}
	d := rdf.NewDict()
	want, err := refimpl.Execute(q, d, rdf.InternTriples(d, nil, g.Triples))
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(res); diff != "" {
		t.Errorf("re-planned result differs from oracle: %s", diff)
	}
}
