package ntga

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

func ref(prop string) algebra.PropRef { return algebra.PropRef{Prop: prop} }

// lex decodes a bound or stored ID-string back to its term key.
func lex(t testing.TB, d *rdf.Dict, idStr string) string {
	t.Helper()
	key, ok := d.Lex(idStr)
	if !ok {
		t.Fatalf("ID-string %q not in dictionary", idStr)
	}
	return key
}

// tg builds a triplegroup in term-key form; tests Intern it into their
// dictionary before running an operator, as store.BuildTG does at load.
func tg(subject string, pos ...string) TripleGroup {
	out := TripleGroup{Subject: "I" + subject}
	for _, po := range pos {
		parts := strings.SplitN(po, "=", 2)
		out.Triples = append(out.Triples, PO{Prop: parts[0], Obj: "L" + parts[1]})
	}
	return out
}

// Figure 4(a): optional group filter with P_prim = {product, price} and
// P_opt = {validFrom, validTo}.
func TestOptGroupFilterFigure4a(t *testing.T) {
	d := rdf.NewDict()
	tg1 := tg("o1", "product=p1", "price=100", "validTo=2010").Intern(d)
	tg2 := tg("o2", "product=p2", "price=200").Intern(d)
	tg3 := tg("o3", "product=p3", "validFrom=2008").Intern(d) // no price -> filtered
	tg4 := tg("o4", "product=p4", "price=400", "validFrom=2009", "validTo=2011").Intern(d)
	prim := ResolveRefs([]algebra.PropRef{ref("product"), ref("price")}, d)
	opt := ResolveRefs([]algebra.PropRef{ref("validFrom"), ref("validTo")}, d)

	for _, tc := range []struct {
		in   TripleGroup
		ok   bool
		size int
	}{
		{tg1, true, 3},
		{tg2, true, 2},
		{tg3, false, 0},
		{tg4, true, 4},
	} {
		got, ok := OptGroupFilterRefs(tc.in, prim, opt)
		if ok != tc.ok {
			t.Errorf("OptGroupFilterRefs(%v) ok = %v, want %v", tc.in, ok, tc.ok)
		}
		if ok && len(got.Triples) != tc.size {
			t.Errorf("OptGroupFilterRefs(%v) kept %d triples, want %d", tc.in, len(got.Triples), tc.size)
		}
	}
}

// The filter must also project away irrelevant properties.
func TestOptGroupFilterProjects(t *testing.T) {
	d := rdf.NewDict()
	in := tg("o1", "product=p1", "price=100", "unrelated=x").Intern(d)
	got, ok := OptGroupFilterRefs(in, ResolveRefs([]algebra.PropRef{ref("product"), ref("price")}, d), nil)
	if !ok || len(got.Triples) != 2 {
		t.Fatalf("got %v ok=%v", got, ok)
	}
	for _, po := range got.Triples {
		if lex(t, d, po.Prop) == "Iunrelated" {
			t.Error("irrelevant property not projected away")
		}
	}
}

func TestOptGroupFilterConstObjRef(t *testing.T) {
	d := rdf.NewDict()
	in := (TripleGroup{Subject: "Ip1", Triples: []PO{
		{Prop: rdf.RDFType, Obj: "IPT18"},
		{Prop: rdf.RDFType, Obj: "IOther"},
		{Prop: "label", Obj: "Lx"},
	}}).Intern(d)
	in2 := (TripleGroup{Subject: "Ip2", Triples: []PO{
		{Prop: rdf.RDFType, Obj: "IOther"},
		{Prop: "label", Obj: "Lx"},
	}}).Intern(d)
	typed := algebra.PropRef{Prop: rdf.RDFType, Obj: rdf.NewIRI("PT18")}
	prim := ResolveRefs([]algebra.PropRef{typed, ref("label")}, d)
	got, ok := OptGroupFilterRefs(in, prim, nil)
	if !ok {
		t.Fatal("typed filter rejected matching triplegroup")
	}
	// Only the matching type triple survives projection.
	if len(got.Triples) != 2 {
		t.Errorf("projection kept %v", got.Triples)
	}
	if _, ok := OptGroupFilterRefs(in2, prim, nil); ok {
		t.Error("typed filter accepted wrong type object")
	}
}

// Figure 4(b): n-split with P_sec1 = {validFrom}, P_sec2 = {validTo}.
func TestNSplitFigure4b(t *testing.T) {
	d := rdf.NewDict()
	tg1 := tg("o1", "product=p1", "price=100", "validTo=2010").Intern(d)
	tg4 := tg("o4", "product=p4", "price=400", "validFrom=2009", "validTo=2011").Intern(d)
	prim := ResolveRefs([]algebra.PropRef{ref("product"), ref("price")}, d)
	secs := [][]Ref{ResolveRefs([]algebra.PropRef{ref("validFrom")}, d), ResolveRefs([]algebra.PropRef{ref("validTo")}, d)}

	got1 := NSplitRefs(tg1, prim, secs)
	if len(got1) != 1 || got1[0].Pattern != 1 {
		t.Fatalf("NSplitRefs(tg1) = %v, want single pattern-2 split", got1)
	}
	if len(got1[0].TG.Triples) != 3 {
		t.Errorf("split tg1 triples = %v", got1[0].TG.Triples)
	}
	got4 := NSplitRefs(tg4, prim, secs)
	if len(got4) != 2 {
		t.Fatalf("NSplitRefs(tg4) = %v, want both splits", got4)
	}
	for _, s := range got4 {
		if len(s.TG.Triples) != 3 {
			t.Errorf("split %d kept %v", s.Pattern, s.TG.Triples)
		}
	}
}

// Figure 4(c): a pattern with no secondary properties always yields a
// split containing only the primaries.
func TestNSplitEmptySecondary(t *testing.T) {
	d := rdf.NewDict()
	tg2 := tg("o2", "product=p2", "price=200").Intern(d)
	tg4 := tg("o4", "product=p4", "price=400", "validTo=2011").Intern(d)
	prim := ResolveRefs([]algebra.PropRef{ref("product"), ref("price")}, d)
	secs := [][]Ref{nil, ResolveRefs([]algebra.PropRef{ref("validTo")}, d)}
	got := NSplitRefs(tg2, prim, secs)
	if len(got) != 1 || got[0].Pattern != 0 || len(got[0].TG.Triples) != 2 {
		t.Fatalf("NSplitRefs = %v", got)
	}
	got4 := NSplitRefs(tg4, prim, secs)
	if len(got4) != 2 {
		t.Fatalf("NSplitRefs(tg4) = %v", got4)
	}
	if len(got4[0].TG.Triples) != 2 || len(got4[1].TG.Triples) != 3 {
		t.Errorf("split sizes = %d, %d", len(got4[0].TG.Triples), len(got4[1].TG.Triples))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := rdf.NewDict()
	a := NewAnnTG(0, tg("p1", "type=PT18", "pf=f1", "pf=f2").Intern(d))
	b := NewAnnTG(1, tg("o1", "product=p1", "price=100").Intern(d))
	m := Merge(a, b)
	dec, err := DecodeAnnTGIDs(m.EncodeIDs(), d)
	if err != nil {
		t.Fatalf("DecodeAnnTGIDs: %v", err)
	}
	if !reflect.DeepEqual(dec, m) {
		t.Errorf("round trip:\n got %+v\nwant %+v", dec, m)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	d := rdf.NewDict()
	f := func(subject string, props, objs []string) bool {
		g := TripleGroup{Subject: d.AddString(subject)}
		for i := range props {
			obj := ""
			if i < len(objs) {
				obj = objs[i]
			}
			g.Triples = append(g.Triples, PO{Prop: d.AddString(props[i]), Obj: d.AddString(obj)})
		}
		a := NewAnnTG(3, g)
		dec, err := DecodeAnnTGIDs(a.EncodeIDs(), d)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(dec, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	d := rdf.NewDict()
	a := NewAnnTG(0, tg("s", "p=1").Intern(d))
	enc := a.EncodeIDs()
	for _, bad := range [][]byte{
		{},
		enc[:len(enc)-1],
		append(append([]byte{}, enc...), 0xFF),
	} {
		if _, err := DecodeAnnTGIDs(bad, d); err == nil {
			t.Errorf("DecodeAnnTGIDs(% x) succeeded", bad)
		}
	}
}

func TestMergeOrdersStars(t *testing.T) {
	a := NewAnnTG(2, tg("c", "cn=UK"))
	b := NewAnnTG(0, tg("p", "type=PT18"))
	m := Merge(a, b)
	if !reflect.DeepEqual(m.Stars, []int{0, 2}) {
		t.Errorf("Stars = %v", m.Stars)
	}
	if c, ok := m.Component(2); !ok || c.Subject != "Ic" {
		t.Errorf("Component(2) = %v, %v", c, ok)
	}
	if _, ok := m.Component(1); ok {
		t.Error("Component(1) should be absent")
	}
}

// buildComposite builds the MG1-style composite pattern used by the
// matching and α tests: star0 = {type=PT1, label, pf?}, star1 = {product,
// price}, where pf is pattern 0's secondary.
func buildComposite(t testing.TB) *algebra.CompositePattern {
	t.Helper()
	q := sparql.MustParse(`PREFIX e: <http://e/>
SELECT ?f ?cntF ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cntF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:pf ?f .
      ?off2 e:product ?p2 ; e:price ?pr2 .
    } GROUP BY ?f
  }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?off1 e:product ?p1 ; e:price ?pr .
    }
  }
}`)
	aq, err := algebra.Build(q)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cp, err := algebra.BuildComposite(aq.Subqueries)
	if err != nil {
		t.Fatalf("BuildComposite: %v", err)
	}
	return cp
}

func productTG(d *rdf.Dict, name string, features ...string) TripleGroup {
	g := TripleGroup{Subject: "I" + name, Triples: []PO{
		{Prop: rdf.RDFType, Obj: "Ihttp://e/PT1"},
		{Prop: "http://e/label", Obj: "L" + name},
	}}
	for _, f := range features {
		g.Triples = append(g.Triples, PO{Prop: "http://e/pf", Obj: "I" + f})
	}
	return g.Intern(d)
}

func offerTG(d *rdf.Dict, name, product, price string) TripleGroup {
	return (TripleGroup{Subject: "I" + name, Triples: []PO{
		{Prop: "http://e/product", Obj: "I" + product},
		{Prop: "http://e/price", Obj: "L" + price},
	}}).Intern(d)
}

// The α condition (Figure 5): a joined triplegroup without the secondary
// pf cannot contribute to the per-feature pattern but still contributes to
// the GROUP BY ALL pattern.
func TestAlphaTableSatisfies(t *testing.T) {
	d := rdf.NewDict()
	withPF := Merge(NewAnnTG(0, productTG(d, "p1", "f1")), NewAnnTG(1, offerTG(d, "o1", "p1", "100")))
	withoutPF := Merge(NewAnnTG(0, productTG(d, "p2")), NewAnnTG(1, offerTG(d, "o2", "p2", "200")))
	alpha := ResolveAlpha(buildComposite(t), d)
	if !alpha.Satisfies(&withPF, 0) || !alpha.Satisfies(&withPF, 1) {
		t.Error("triplegroup with pf should satisfy both patterns")
	}
	if alpha.Satisfies(&withoutPF, 0) {
		t.Error("triplegroup without pf satisfies the per-feature pattern")
	}
	if !alpha.Satisfies(&withoutPF, 1) {
		t.Error("triplegroup without pf should satisfy the ALL pattern")
	}
	if !alpha.SatisfiesAny(&withoutPF) || !alpha.SatisfiesAny(&withPF) {
		t.Error("α-Join admission failed")
	}
}

// Binding multiplicity: a product with two features yields two solutions
// for the per-feature pattern and one for the featureless pattern.
func TestMatchResolvedMultiplicity(t *testing.T) {
	cp := buildComposite(t)
	d := rdf.NewDict()
	atg := Merge(NewAnnTG(0, productTG(d, "p1", "f1", "f2")), NewAnnTG(1, offerTG(d, "o1", "p1", "100")))

	count := 0
	features := map[string]bool{}
	MatchResolved(&atg, ResolveTPMap(PatternTriples(cp, 0), d), nil, func(b Binding) {
		count++
		features[lex(t, d, b["f"])] = true
		if got := lex(t, d, b["pr2"]); got != "L100" {
			t.Errorf("price binding = %q", got)
		}
	})
	if count != 2 || !features["If1"] || !features["If2"] {
		t.Errorf("pattern 0 solutions = %d (%v), want 2", count, features)
	}

	count = 0
	MatchResolved(&atg, ResolveTPMap(PatternTriples(cp, 1), d), nil, func(b Binding) { count++ })
	if count != 1 {
		t.Errorf("pattern 1 solutions = %d, want 1", count)
	}
}

// A missing star component yields no solutions.
func TestMatchResolvedMissingStar(t *testing.T) {
	cp := buildComposite(t)
	d := rdf.NewDict()
	atg := NewAnnTG(0, productTG(d, "p1", "f1"))
	called := false
	MatchResolved(&atg, ResolveTPMap(PatternTriples(cp, 0), d), nil, func(Binding) { called = true })
	if called {
		t.Error("solutions produced despite missing star component")
	}
}

// Shared variables across triple patterns must agree: an object variable
// used twice only matches consistent objects.
func TestMatchResolvedConsistency(t *testing.T) {
	tps := map[int][]sparql.TriplePattern{
		0: {
			{S: sparql.V("s"), P: sparql.C(rdf.NewIRI("p")), O: sparql.V("x")},
			{S: sparql.V("s"), P: sparql.C(rdf.NewIRI("q")), O: sparql.V("x")},
		},
	}
	d := rdf.NewDict()
	atg := NewAnnTG(0, (TripleGroup{Subject: "Is", Triples: []PO{
		{Prop: "p", Obj: "L1"},
		{Prop: "p", Obj: "L2"},
		{Prop: "q", Obj: "L2"},
		{Prop: "q", Obj: "L3"},
	}}).Intern(d))
	var got []string
	MatchResolved(&atg, ResolveTPMap(tps, d), nil, func(b Binding) { got = append(got, lex(t, d, b["x"])) })
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"L2"}) {
		t.Errorf("consistent solutions = %v, want [L2]", got)
	}
}

// Property: GroupBySubject partitions the graph — total triples preserved,
// one group per distinct subject.
func TestGroupBySubjectQuick(t *testing.T) {
	f := func(edges []uint8) bool {
		g := &rdf.Graph{}
		subjects := map[string]bool{}
		for i, e := range edges {
			s := rdf.NewIRI(string(rune('a' + e%5)))
			subjects[s.Key()] = true
			g.Add(rdf.T(s, rdf.NewIRI("p"), rdf.NewLiteral(string(rune('0'+i%10)))))
		}
		tgs := GroupBySubject(g)
		if len(tgs) != len(subjects) {
			return false
		}
		total := 0
		for _, tg := range tgs {
			total += len(tg.Triples)
		}
		return total == g.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
