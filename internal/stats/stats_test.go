package stats

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

const ex = "http://ex/"

// uniformGraph builds a perfectly uniform graph of n subjects: every S_i
// has one type T, one p-edge to a unique O_i, one q-edge to one of exactly
// four shared Q objects (round-robin, so each Q has n/4 subjects), and
// three r-literals; every O_i has one m-literal. On this graph the
// estimator's uniformity and independence assumptions hold exactly.
func uniformGraph(n int) *rdf.Graph {
	g := &rdf.Graph{}
	typeT := rdf.NewIRI(ex + "T")
	p := rdf.NewIRI(ex + "p")
	q := rdf.NewIRI(ex + "q")
	r := rdf.NewIRI(ex + "r")
	m := rdf.NewIRI(ex + "m")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%sS%d", ex, i))
		o := rdf.NewIRI(fmt.Sprintf("%sO%d", ex, i))
		g.Add(
			rdf.T(s, rdf.TypeTerm, typeT),
			rdf.T(s, p, o),
			rdf.T(s, q, rdf.NewIRI(fmt.Sprintf("%sQ%d", ex, i%4))),
		)
		for k := 0; k < 3; k++ {
			g.Add(rdf.T(s, r, rdf.NewLiteral(fmt.Sprintf("r %d %d", i, k))))
		}
		g.Add(rdf.T(o, m, rdf.NewLiteral(fmt.Sprintf("m %d", i))))
	}
	return g
}

func tp(s string, p rdf.Term, o sparql.Node) sparql.TriplePattern {
	return sparql.TriplePattern{S: sparql.V(s), P: sparql.C(p), O: o}
}

func pattern(t *testing.T, tps ...sparql.TriplePattern) *algebra.GraphPattern {
	t.Helper()
	gp, err := algebra.BuildGraphPattern(&sparql.GroupGraphPattern{Triples: tps})
	if err != nil {
		t.Fatalf("BuildGraphPattern: %v", err)
	}
	return gp
}

func estimatorFor(cat *Catalog, gp *algebra.GraphPattern, rows bool) *Estimator {
	refs := make([][]algebra.PropRef, len(gp.Stars))
	for i, st := range gp.Stars {
		refs[i] = st.Props()
	}
	return NewEstimator(cat, refs, rows)
}

func TestCollectCatalog(t *testing.T) {
	g := uniformGraph(120)
	cat := Collect(g)
	if cat.Triples != int64(120*7) {
		t.Errorf("Triples = %d, want %d", cat.Triples, 120*7)
	}
	ps := cat.Pred(ex + "p")
	if ps.Count != 120 || ps.DistinctSubj != 120 || ps.DistinctObj != 120 {
		t.Errorf("p stat = %+v, want 120/120/120", ps)
	}
	if got := cat.Pred(ex + "q").DistinctObj; got != 4 {
		t.Errorf("q distinct objects = %d, want 4", got)
	}
	// Two characteristic sets: the S subjects {type=T, p, q, r} and the O
	// subjects {m}.
	if len(cat.Sets) != 2 {
		t.Fatalf("characteristic sets = %d, want 2", len(cat.Sets))
	}
	for _, cs := range cat.Sets {
		if cs.Subjects != 120 {
			t.Errorf("set %v has %d subjects, want 120", cs.Props, cs.Subjects)
		}
		if cs.Has(ex+"r") && cs.PropCounts[ex+"r"] != 360 {
			t.Errorf("r count in S set = %d, want 360", cs.PropCounts[ex+"r"])
		}
	}
	if cat.Version == 0 {
		t.Error("catalog version is zero")
	}
}

// TestStarCardExactOnUniform: on a uniform graph the estimates are exact —
// full stars, constant-object selections (1/distinct), and relational-mode
// fan-out multiplication.
func TestStarCardExactOnUniform(t *testing.T) {
	g := uniformGraph(120)
	cat := Collect(g)
	typeT := rdf.NewIRI(ex + "T")

	full := pattern(t,
		tp("s", rdf.TypeTerm, sparql.C(typeT)),
		tp("s", rdf.NewIRI(ex+"p"), sparql.V("o")),
		tp("s", rdf.NewIRI(ex+"q"), sparql.V("qv")),
	)
	if got := estimatorFor(cat, full, false).StarCard(0); got != 120 {
		t.Errorf("full star card = %v, want exactly 120", got)
	}

	constObj := pattern(t,
		tp("s", rdf.TypeTerm, sparql.C(typeT)),
		tp("s", rdf.NewIRI(ex+"q"), sparql.C(rdf.NewIRI(ex+"Q0"))),
	)
	// Exactly n/4 subjects carry each Q object, and 1/distinct(q) predicts
	// precisely that.
	if got := estimatorFor(cat, constObj, false).StarCard(0); got != 30 {
		t.Errorf("const-object star card = %v, want exactly 30", got)
	}

	fanout := pattern(t,
		tp("s", rdf.NewIRI(ex+"r"), sparql.V("rv")),
		tp("s", rdf.NewIRI(ex+"q"), sparql.V("qv")),
	)
	if got := estimatorFor(cat, fanout, false).StarCard(0); got != 120 {
		t.Errorf("triplegroup-mode star card = %v, want 120 subjects", got)
	}
	if got := estimatorFor(cat, fanout, true).StarCard(0); got != 360 {
		t.Errorf("relational-mode star card = %v, want 360 rows (3x r fan-out)", got)
	}
}

// TestJoinCardUniformAndBounded: the subject-object chain join is exact on
// the 1:1 uniform graph, and the independence estimate never exceeds the
// cross product.
func TestJoinCardUniformAndBounded(t *testing.T) {
	g := uniformGraph(120)
	cat := Collect(g)
	gp := pattern(t,
		tp("s", rdf.NewIRI(ex+"p"), sparql.V("o")),
		tp("o", rdf.NewIRI(ex+"m"), sparql.V("x")),
	)
	if len(gp.Joins) != 1 {
		t.Fatalf("joins = %d, want 1", len(gp.Joins))
	}
	est := estimatorFor(cat, gp, false)
	l, r := est.StarCard(0), est.StarCard(1)
	got := est.JoinCard(l, r, gp.Joins[0])
	if got != 120 {
		t.Errorf("join card = %v, want exactly 120 (1:1 join)", got)
	}
	if got > l*r {
		t.Errorf("join card %v exceeds cross product %v", got, l*r)
	}
	// Flipped argument order must keep the bound as well.
	if got := est.JoinCard(r, l, gp.Joins[0]); got > l*r {
		t.Errorf("flipped join card %v exceeds cross product %v", got, l*r)
	}
}

// TestSerializationRoundTripAndVersion: Version hashes the catalog's JSON
// form, so that form must carry the whole catalog — it survives a JSON
// round trip bit-for-bit. The version is stable across re-collections of
// the same graph, and any data change moves it.
func TestSerializationRoundTripAndVersion(t *testing.T) {
	g := uniformGraph(60)
	cat := Collect(g)
	raw, err := json.Marshal(cat)
	if err != nil {
		t.Fatal(err)
	}
	got := &Catalog{}
	if err := json.Unmarshal(raw, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cat, got) {
		t.Errorf("round trip changed the catalog:\nwrote %+v\nread  %+v", cat, got)
	}
	if again := Collect(g); again.Version != cat.Version {
		t.Errorf("version not stable: %d vs %d", cat.Version, again.Version)
	}
	g.Add(rdf.T(rdf.NewIRI(ex+"S0"), rdf.NewIRI(ex+"extra"), rdf.NewLiteral("drift")))
	if drifted := Collect(g); drifted.Version == cat.Version {
		t.Error("version unchanged after the graph drifted")
	}
}

func TestPartitionsForClamps(t *testing.T) {
	cases := []struct {
		predicted float64
		want      int
	}{{0, 1}, {4095, 1}, {4096, 1}, {5 * 4096, 5}, {1e9, 16}}
	for _, c := range cases {
		if got := PartitionsFor(c.predicted); got != c.want {
			t.Errorf("PartitionsFor(%v) = %d, want %d", c.predicted, got, c.want)
		}
	}
}
