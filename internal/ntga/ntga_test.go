package ntga

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
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

// intern returns the term-key triplegroup tg (bare property IRIs, subject
// and objects in Term.Key form) with every field replaced by its ID-string
// in d, registering terms d has not seen; properties are registered as IRI
// terms, as rdf.Intern does at load.
func intern(tg TripleGroup, d *rdf.Dict) TripleGroup {
	out := TripleGroup{Subject: d.AddString(tg.Subject), Triples: make([]PO, len(tg.Triples))}
	for i, po := range tg.Triples {
		out.Triples[i] = PO{Prop: d.AddString("I" + po.Prop), Obj: d.AddString(po.Obj)}
	}
	return out
}

// tg builds a triplegroup in term-key form; tests intern it into their
// dictionary before running an operator.
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
	tg1 := intern(tg("o1", "product=p1", "price=100", "validTo=2010"), d)
	tg2 := intern(tg("o2", "product=p2", "price=200"), d)
	tg3 := intern(tg("o3", "product=p3", "validFrom=2008"), d) // no price -> filtered
	tg4 := intern(tg("o4", "product=p4", "price=400", "validFrom=2009", "validTo=2011"), d)
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
	in := intern(tg("o1", "product=p1", "price=100", "unrelated=x"), d)
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
	in := intern(TripleGroup{Subject: "Ip1", Triples: []PO{
		{Prop: rdf.RDFType, Obj: "IPT18"},
		{Prop: rdf.RDFType, Obj: "IOther"},
		{Prop: "label", Obj: "Lx"},
	}}, d)
	in2 := intern(TripleGroup{Subject: "Ip2", Triples: []PO{
		{Prop: rdf.RDFType, Obj: "IOther"},
		{Prop: "label", Obj: "Lx"},
	}}, d)
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
	tg1 := intern(tg("o1", "product=p1", "price=100", "validTo=2010"), d)
	tg4 := intern(tg("o4", "product=p4", "price=400", "validFrom=2009", "validTo=2011"), d)
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
	tg2 := intern(tg("o2", "product=p2", "price=200"), d)
	tg4 := intern(tg("o4", "product=p4", "price=400", "validTo=2011"), d)
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
	m := joined(intern(tg("p1", "type=PT18", "pf=f1", "pf=f2"), d), intern(tg("o1", "product=p1", "price=100"), d))
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
	a := NewAnnTG(0, intern(tg("s", "p=1"), d))
	enc := a.EncodeIDs()
	for _, bad := range [][]byte{
		{},
		enc[:len(enc)-1],
		append(append([]byte{}, enc...), 0xFF),
		// A term ID the dictionary does not hold.
		(&AnnTG{Stars: []int{0}, TGs: []TripleGroup{{Subject: idStr(uint64(d.Len()) + 1)}}}).EncodeIDs(),
	} {
		if _, err := DecodeAnnTGIDs(bad, d); err == nil {
			t.Errorf("DecodeAnnTGIDs(% x) succeeded", bad)
		}
		dst := []CompSpan{{Star: 7}}
		if got, err := AppendAnnTGSpans(dst, bad, uint64(d.Len())); err == nil || len(got) != 1 {
			t.Errorf("AppendAnnTGSpans(% x) = %d spans, err %v; want an error and dst unextended", bad, len(got), err)
		}
	}
}

// mustSpans locates rec's components, failing the test on a malformed
// record.
func mustSpans(t *testing.T, d *rdf.Dict, rec []byte) []CompSpan {
	t.Helper()
	spans, err := AppendAnnTGSpans(nil, rec, uint64(d.Len()))
	if err != nil {
		t.Fatalf("AppendAnnTGSpans(% x): %v", rec, err)
	}
	return spans
}

// A join's components come out ordered by star, whichever side holds them,
// and the spliced record is the encoding of the decoded join.
func TestMergeOrdersStars(t *testing.T) {
	d := rdf.NewDict()
	l := AnnTG{Stars: []int{0, 2}, TGs: []TripleGroup{intern(tg("p", "type=PT18"), d), intern(tg("c", "cn=UK"), d)}}
	r := NewAnnTG(1, intern(tg("o", "price=1", "price=2"), d))
	want := AnnTG{Stars: []int{0, 1, 2}, TGs: []TripleGroup{l.TGs[0], r.TGs[0], l.TGs[1]}}
	lrec, rrec := l.EncodeIDs(), r.EncodeIDs()
	ls, rs := mustSpans(t, d, lrec), mustSpans(t, d, rrec)
	for _, got := range [][]byte{
		AppendJoinIDs(nil, lrec, ls, rrec, rs),
		AppendJoinIDs(nil, rrec, rs, lrec, ls),
	} {
		if !bytes.Equal(got, want.EncodeIDs()) {
			t.Errorf("joined record % x, want % x", got, want.EncodeIDs())
		}
	}
	m, err := DecodeAnnTGIDs(AppendJoinIDs([]byte("kept"), lrec, ls, rrec, rs)[len("kept"):], d)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := m.Component(2); !ok || lex(t, d, c.Subject) != "Ic" {
		t.Errorf("Component(2) = %v, %v", c, ok)
	}
	if _, ok := m.Component(3); ok {
		t.Error("Component(3) should be absent")
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
	return intern(g, d)
}

func offerTG(d *rdf.Dict, name, product, price string) TripleGroup {
	return intern(TripleGroup{Subject: "I" + name, Triples: []PO{
		{Prop: "http://e/product", Obj: "I" + product},
		{Prop: "http://e/price", Obj: "L" + price},
	}}, d)
}

// The α condition (Figure 5): a joined triplegroup without the secondary
// pf cannot contribute to the per-feature pattern but still contributes to
// the GROUP BY ALL pattern.
func TestAlphaTableSatisfies(t *testing.T) {
	d := rdf.NewDict()
	withPF := joined(productTG(d, "p1", "f1"), offerTG(d, "o1", "p1", "100"))
	withoutPF := joined(productTG(d, "p2"), offerTG(d, "o2", "p2", "200"))
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
	// The same test on the encodings, once per value: the pattern set of
	// the join, and the meeting sets of its components, which is how the
	// α-Join admits a pair.
	set := func(a AnnTG) []uint64 {
		rec := a.EncodeIDs()
		s, err := alpha.AppendPatternSet(nil, rec, mustSpans(t, d, rec))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got := set(withPF); !reflect.DeepEqual(got, []uint64{0b11}) {
		t.Errorf("pattern set with pf = %b, want 11", got)
	}
	if got := set(withoutPF); !reflect.DeepEqual(got, []uint64{0b10}) {
		t.Errorf("pattern set without pf = %b, want 10", got)
	}
	for _, a := range []AnnTG{withPF, withoutPF} {
		product, offer := set(AnnTG{Stars: []int{0}, TGs: a.TGs[:1]}), set(AnnTG{Stars: []int{1}, TGs: a.TGs[1:]})
		if !PatternSetsMeet(product, offer) {
			t.Errorf("α-Join admission failed: sets %b and %b", product, offer)
		}
	}
	if _, err := alpha.AppendPatternSet(nil, nil, []CompSpan{{Star: 2}}); err == nil {
		t.Error("a star outside the table was accepted")
	}
}

// A table over more than 64 patterns spans several words: pattern 70's
// requirement clears bit 70 alone.
func TestPatternSetMultiWord(t *testing.T) {
	d := rdf.NewDict()
	g := intern(tg("s", "p=1"), d)
	req := [][][]Ref{make([][]Ref, 70)}
	req[0][69] = []Ref{{Prop: d.KeyString("Iabsent")}}
	a := NewAnnTG(0, g)
	rec := a.EncodeIDs()
	got, err := NewAlphaTable(70, req).AppendPatternSet([]uint64{42}, rec, mustSpans(t, d, rec))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{42, ^uint64(0), 1<<5 - 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("pattern set = %x, want %x", got, want)
	}
	if PatternSetsMeet(got[1:], []uint64{0, 1 << 5}) {
		t.Error("sets meet on the cleared pattern")
	}
	if !PatternSetsMeet(got[1:], []uint64{0, 1 << 4}) {
		t.Error("sets do not meet on pattern 68")
	}
}

// joined builds the annotated triplegroup of a star-0 and a star-1
// component.
func joined(star0, star1 TripleGroup) AnnTG {
	return AnnTG{Stars: []int{0, 1}, TGs: []TripleGroup{star0, star1}}
}

// solutionsOf runs a compiled matcher over a and returns every solution, in
// enumeration order, as a variable → ID-string map holding the bound
// variables only.
func solutionsOf(m *Matcher, a *AnnTG) []map[string]string {
	var out []map[string]string
	m.NewState(func(slots []string) {
		sol := map[string]string{}
		for i, v := range slots {
			if v != "" {
				sol[m.vars[i]] = v
			}
		}
		out = append(out, sol)
	}).Match(a)
	return out
}

// Binding multiplicity: a product with two features yields two solutions
// for the per-feature pattern and one for the featureless pattern.
func TestMatchResolvedMultiplicity(t *testing.T) {
	cp := buildComposite(t)
	d := rdf.NewDict()
	atg := joined(productTG(d, "p1", "f1", "f2"), offerTG(d, "o1", "p1", "100"))

	features := map[string]bool{}
	sols := solutionsOf(CompileMatcher(ResolveTPMap(PatternTriples(cp, 0), d), nil), &atg)
	for _, b := range sols {
		features[lex(t, d, b["f"])] = true
		if got := lex(t, d, b["pr2"]); got != "L100" {
			t.Errorf("price binding = %q", got)
		}
	}
	if len(sols) != 2 || !features["If1"] || !features["If2"] {
		t.Errorf("pattern 0 solutions = %d (%v), want 2", len(sols), features)
	}

	if n := len(solutionsOf(CompileMatcher(ResolveTPMap(PatternTriples(cp, 1), d), nil), &atg)); n != 1 {
		t.Errorf("pattern 1 solutions = %d, want 1", n)
	}
}

// A missing star component yields no solutions.
func TestMatchResolvedMissingStar(t *testing.T) {
	cp := buildComposite(t)
	d := rdf.NewDict()
	atg := NewAnnTG(0, productTG(d, "p1", "f1"))
	if sols := solutionsOf(CompileMatcher(ResolveTPMap(PatternTriples(cp, 0), d), nil), &atg); len(sols) != 0 {
		t.Errorf("solutions produced despite missing star component: %v", sols)
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
	atg := NewAnnTG(0, intern(TripleGroup{Subject: "Is", Triples: []PO{
		{Prop: "p", Obj: "L1"},
		{Prop: "p", Obj: "L2"},
		{Prop: "q", Obj: "L2"},
		{Prop: "q", Obj: "L3"},
	}}, d))
	var got []string
	for _, b := range solutionsOf(CompileMatcher(ResolveTPMap(tps, d), nil), &atg) {
		got = append(got, lex(t, d, b["x"]))
	}
	if !reflect.DeepEqual(got, []string{"L2"}) {
		t.Errorf("consistent solutions = %v, want [L2]", got)
	}
}

// An OPTIONAL pattern with a property variable and a constant object must
// unbind ?p after a triple whose object does not match. The enumeration this
// matcher replaced skipped that (its `continue` jumped over the restore), so
// ?p stayed bound to the first triple's property, the matching triple was
// then refused, and the left-outer branch reported ?p = a. algebra rejects
// the shape today; the matcher is exported and must be right regardless.
func TestMatchOptionalPropertyVarIsRestored(t *testing.T) {
	a := NewAnnTG(0, TripleGroup{Subject: idStr(1), Triples: []PO{
		{Prop: idStr(10), Obj: idStr(20)}, // a → X: binds ?p, object mismatch
		{Prop: idStr(11), Obj: idStr(21)}, // b → C: the match
	}})
	m := CompileMatcher(
		map[int][]TP{0: {{SVar: "s", Prop: idStr(10), OVar: "x"}}},
		map[int][]TP{0: {{SVar: "s", PVar: "p", Obj: idStr(21)}}},
	)
	want := []map[string]string{{"s": idStr(1), "x": idStr(20), "p": idStr(11)}}
	if got := solutionsOf(m, &a); !reflect.DeepEqual(got, want) {
		t.Errorf("solutions = %q, want %q", got, want)
	}
	// The documented failure of the replaced logic, so the reference below
	// is known to be that logic.
	var ref []map[string]string
	refMatch(&a, map[int][]TP{0: {{SVar: "s", Prop: idStr(10), OVar: "x"}}},
		map[int][]TP{0: {{SVar: "s", PVar: "p", Obj: idStr(21)}}},
		func(b map[string]string) { ref = append(ref, cloneSolution(b)) })
	if stale := []map[string]string{{"s": idStr(1), "x": idStr(20), "p": idStr(10)}}; !reflect.DeepEqual(ref, stale) {
		t.Errorf("reference enumeration = %q, want the stale binding %q", ref, stale)
	}
}

// Matching leaves no binding behind: a state reused for the next record
// starts from unbound slots, and enumerating allocates nothing.
func TestMatchStateIsReusable(t *testing.T) {
	cp := buildComposite(t)
	d := rdf.NewDict()
	// Term IDs from 128 up take two uvarint bytes. The runtime converts a
	// one-byte slice to a string without allocating, which would hide a
	// per-field copy on the decode path.
	for i := range 200 {
		d.Add("Lpad" + strconv.Itoa(i))
	}
	full := joined(productTG(d, "p1", "f1", "f2"), offerTG(d, "o1", "p1", "100"))
	partial := NewAnnTG(0, productTG(d, "p2", "f3"))
	n := 0
	st := CompileMatcher(ResolveTPMap(PatternTriples(cp, 0), d), nil).NewState(func(slots []string) { n++ })
	for _, step := range []struct {
		a    *AnnTG
		want int
	}{{&full, 2}, {&partial, 0}, {&full, 2}} {
		n = 0
		st.Match(step.a)
		if n != step.want {
			t.Errorf("solutions = %d, want %d", n, step.want)
		}
		for i, v := range st.slots {
			if v != "" {
				t.Errorf("slot %s still bound to %q after Match", st.m.vars[i], v)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { st.Match(&full) }); allocs != 0 {
		t.Errorf("Match allocates %v times per triplegroup, want 0", allocs)
	}
}

// refMatch is the map-based enumeration the compiled matcher replaced,
// kept verbatim (its stale-?p defect included, see
// TestMatchOptionalPropertyVarIsRestored) as the reference for solution
// order: RAPID+'s float sums depend on it.
func refMatch(a *AnnTG, starTPs, optTPs map[int][]TP, fn func(map[string]string)) {
	type work struct {
		tg       *TripleGroup
		tp       TP
		optional bool
	}
	var items []work
	stars := make([]int, 0, len(starTPs))
	for star := range starTPs {
		stars = append(stars, star)
	}
	sort.Ints(stars)
	for _, star := range stars {
		tg, ok := a.Component(star)
		if !ok {
			return
		}
		comp := tg
		for _, tp := range starTPs[star] {
			items = append(items, work{tg: &comp, tp: tp})
		}
		for _, tp := range optTPs[star] {
			items = append(items, work{tg: &comp, tp: tp, optional: true})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return !items[i].optional && items[j].optional })
	binding := map[string]string{}
	var rec func(i int)
	matchObject := func(tp TP, po PO, i int) {
		if tp.OVar == "" {
			if po.Obj == tp.Obj {
				rec(i + 1)
			}
			return
		}
		if prev, had := binding[tp.OVar]; had {
			if prev == po.Obj {
				rec(i + 1)
			}
			return
		}
		binding[tp.OVar] = po.Obj
		rec(i + 1)
		delete(binding, tp.OVar)
	}
	rec = func(i int) {
		if i == len(items) {
			fn(binding)
			return
		}
		it := items[i]
		sv := it.tp.SVar
		prevS, hadS := binding[sv]
		if hadS && prevS != it.tg.Subject {
			return
		}
		if !hadS {
			binding[sv] = it.tg.Subject
		}
		matchedAny := false
		for _, po := range it.tg.Triples {
			boundP := false
			if pv := it.tp.PVar; pv != "" {
				if prev, had := binding[pv]; had {
					if prev != po.Prop {
						continue
					}
				} else {
					binding[pv] = po.Prop
					boundP = true
				}
			} else if po.Prop != it.tp.Prop {
				continue
			}
			if it.optional {
				if it.tp.OVar == "" && po.Obj != it.tp.Obj {
					continue
				}
				matchedAny = true
			}
			matchObject(it.tp, po, i)
			if boundP {
				delete(binding, it.tp.PVar)
			}
		}
		if it.optional && !matchedAny {
			rec(i + 1)
		}
		if !hadS {
			delete(binding, sv)
		}
	}
	rec(0)
}

func cloneSolution(b map[string]string) map[string]string {
	out := make(map[string]string, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// The compiled matcher yields the reference's solutions in the reference's
// order over seeded random patterns and annotated triplegroups: multi-valued
// properties, missing optionals, a variable shared between two stars, a ?p
// pattern, and stars absent from the triplegroup (zero solutions).
func TestMatcherAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20161))
	pick := func(n int) int { return rng.Intn(n) }
	prop := func() string { return idStr(uint64(10 + pick(4))) }
	obj := func() string { return idStr(uint64(20 + pick(5))) }
	objVars := []string{"x0", "x1", "x2", "j"}
	pattern := func(svar string, star int, optional bool) TP {
		tp := TP{SVar: svar, Prop: prop()}
		// A property variable; OPTIONAL ones take an object variable, the
		// one shape on which the reference is not defective.
		if pick(5) == 0 {
			tp.PVar, tp.Prop = "pv"+string(rune('0'+star)), ""
		}
		if pick(4) == 0 && !(optional && tp.PVar != "") {
			tp.Obj = obj()
		} else {
			tp.OVar = objVars[pick(len(objVars))]
		}
		return tp
	}
	var total, absent int
	for round := 0; round < 400; round++ {
		starTPs, optTPs := map[int][]TP{}, map[int][]TP{}
		nStars := 1 + pick(3)
		for star := 0; star < nStars; star++ {
			// Star 1's subject is sometimes the shared variable: a
			// subject-object join with star 0.
			svar := "s" + string(rune('0'+star))
			if star == 1 && pick(3) == 0 {
				svar = "j"
			}
			for n := 1 + pick(3); n > 0; n-- {
				starTPs[star] = append(starTPs[star], pattern(svar, star, false))
			}
			for n := pick(3); n > 0; n-- {
				optTPs[star] = append(optTPs[star], pattern(svar, star, true))
			}
		}
		m := CompileMatcher(starTPs, optTPs)
		for trial := 0; trial < 5; trial++ {
			var a AnnTG
			for star := 0; star < nStars; star++ {
				if pick(7) == 0 {
					absent++
					continue
				}
				// Subjects share the object range so "j" can join.
				g := TripleGroup{Subject: obj()}
				for n := pick(7); n > 0; n-- {
					g.Triples = append(g.Triples, PO{Prop: prop(), Obj: obj()})
				}
				a.Stars = append(a.Stars, star)
				a.TGs = append(a.TGs, g)
			}
			var want []map[string]string
			refMatch(&a, starTPs, optTPs, func(b map[string]string) { want = append(want, cloneSolution(b)) })
			got := solutionsOf(m, &a)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d trial %d: %v / %v over %+v\n got %q\nwant %q", round, trial, starTPs, optTPs, a, got, want)
			}
			total += len(want)
		}
	}
	// The generator must reach both regimes, or the comparison is vacuous.
	if total < 1000 || absent == 0 {
		t.Errorf("generator too weak: %d solutions compared, %d absent stars", total, absent)
	}
}
