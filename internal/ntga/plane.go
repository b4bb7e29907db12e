package ntga

import (
	"sort"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// Ref is a property reference resolved through the dataset's dictionary:
// Prop and Obj are uvarint ID-strings (rdf.Dict), so triplegroup matching
// compares short interned IDs instead of full IRIs. A property or constant
// that never occurs in the data resolves to rdf.MissingIDString, which
// matches nothing.
type Ref struct {
	// Prop is the property's ID-string.
	Prop string
	// Obj is the constant object's ID-string, "" when unconstrained.
	Obj string
}

// ResolveRef resolves one query-space property reference through d.
func ResolveRef(ref algebra.PropRef, d *rdf.Dict) Ref {
	r := Ref{Prop: d.KeyString("I" + ref.Prop)}
	if ref.HasConstObj() {
		r.Obj = d.KeyString(ref.Obj.Key())
	}
	return r
}

// ResolveRefs resolves a query-space reference list through d.
func ResolveRefs(refs []algebra.PropRef, d *rdf.Dict) []Ref {
	if len(refs) == 0 {
		return nil
	}
	out := make([]Ref, len(refs))
	for i, ref := range refs {
		out[i] = ResolveRef(ref, d)
	}
	return out
}

// HasPO reports whether the triplegroup contains a triple with the given
// property and, when obj is non-empty, object (both ID-strings).
func (tg *TripleGroup) HasPO(prop, obj string) bool {
	for _, t := range tg.Triples {
		if t.Prop != prop {
			continue
		}
		if obj == "" || t.Obj == obj {
			return true
		}
	}
	return false
}

// HasResolvedRef reports whether the triplegroup matches the resolved
// reference.
func (tg *TripleGroup) HasResolvedRef(ref Ref) bool { return tg.HasPO(ref.Prop, ref.Obj) }

// ProjectRefs returns a copy of the triplegroup restricted to triples
// matching any of the resolved references.
func (tg *TripleGroup) ProjectRefs(refs []Ref) TripleGroup {
	out := TripleGroup{Subject: tg.Subject}
	for _, t := range tg.Triples {
		for _, ref := range refs {
			if t.Prop != ref.Prop {
				continue
			}
			if ref.Obj != "" && t.Obj != ref.Obj {
				continue
			}
			out.Triples = append(out.Triples, t)
			break
		}
	}
	return out
}

// OptGroupFilterRefs implements the optional group-filter operator σ^γopt
// (Definition 3.3): it projects a subject triplegroup onto the star's
// primary and optional properties and accepts it iff every primary property
// is matched. The returned triplegroup contains the matching primary
// triples plus any matching optional triples.
func OptGroupFilterRefs(tg TripleGroup, prim, opt []Ref) (TripleGroup, bool) {
	for _, ref := range prim {
		if !tg.HasPO(ref.Prop, ref.Obj) {
			return TripleGroup{}, false
		}
	}
	refs := make([]Ref, 0, len(prim)+len(opt))
	refs = append(refs, prim...)
	refs = append(refs, opt...)
	return tg.ProjectRefs(refs), true
}

// NSplitRefs implements the n-split operator χ (Definition 3.4): given a
// triplegroup matching a composite star with primary properties prim and
// per-pattern secondary property sets secs, it extracts one triplegroup per
// original pattern whose secondary properties are all present. A pattern
// with an empty secondary set always yields a split (Figure 4(c)).
func NSplitRefs(tg TripleGroup, prim []Ref, secs [][]Ref) []SplitTG {
	var out []SplitTG
	for k, sec := range secs {
		ok := true
		for _, ref := range sec {
			if !tg.HasPO(ref.Prop, ref.Obj) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		refs := make([]Ref, 0, len(prim)+len(sec))
		refs = append(refs, prim...)
		refs = append(refs, sec...)
		out = append(out, SplitTG{Pattern: k, TG: tg.ProjectRefs(refs)})
	}
	return out
}

// AlphaTable is a composite pattern's α condition (Definitions 3.5/3.6)
// resolved through the dictionary: per (star, original pattern) the
// required secondary references. Resolving once at job-build time keeps the
// per-record admission test free of dictionary lookups.
type AlphaTable struct {
	numPatterns int
	req         [][][]Ref // req[star][pattern]
}

// ResolveAlpha builds the α table for cp through d. A nil cp yields a nil
// table, which admits everything.
func ResolveAlpha(cp *algebra.CompositePattern, d *rdf.Dict) *AlphaTable {
	if cp == nil {
		return nil
	}
	t := &AlphaTable{numPatterns: cp.NumPatterns, req: make([][][]Ref, len(cp.Stars))}
	for i, cs := range cp.Stars {
		t.req[i] = make([][]Ref, cp.NumPatterns)
		for k := 0; k < cp.NumPatterns; k++ {
			t.req[i][k] = ResolveRefs(cs.RequiredSecondaryFor(k), d)
		}
	}
	return t
}

// Satisfies reports whether the annotated triplegroup can contribute to
// original pattern k: every component star must contain pattern k's
// required secondary properties — the α condition of Definitions 3.5/3.6
// (e.g. Figure 5's "pf ≠ ∅"). Components for stars the triplegroup has not
// yet joined are not constrained, so the check is usable both during
// intermediate α-Joins and at aggregation time.
func (t *AlphaTable) Satisfies(a *AnnTG, k int) bool {
	for i, star := range a.Stars {
		for _, ref := range t.req[star][k] {
			if !a.TGs[i].HasPO(ref.Prop, ref.Obj) {
				return false
			}
		}
	}
	return true
}

// SatisfiesAny implements the α-Join admission test (Definition 3.5): the
// joined triplegroup must satisfy at least one original pattern's α
// condition, otherwise the combination matches no original pattern and is
// not materialised (Table 2). A nil table admits everything.
func (t *AlphaTable) SatisfiesAny(a *AnnTG) bool {
	if t == nil {
		return true
	}
	for k := 0; k < t.numPatterns; k++ {
		if t.Satisfies(a, k) {
			return true
		}
	}
	return false
}

// TP is a canonical triple pattern resolved through the dictionary:
// variables keep their names, constants are translated to ID-strings at
// job-build time so per-record matching is pure string comparison.
type TP struct {
	// SVar is the subject variable name.
	SVar string
	// PVar is the property variable name, "" when the property is constant.
	PVar string
	// Prop is the property's ID-string, valid when PVar is "".
	Prop string
	// OVar is the object variable name, "" when the object is constant.
	OVar string
	// Obj is the constant object's ID-string, valid when OVar is "".
	Obj string
}

// ResolveTP resolves one canonical triple pattern through d.
func ResolveTP(tp sparql.TriplePattern, d *rdf.Dict) TP {
	out := TP{SVar: tp.S.Var}
	if tp.P.IsVar {
		out.PVar = tp.P.Var
	} else {
		out.Prop = d.KeyString("I" + tp.P.Term.Value)
	}
	if tp.O.IsVar {
		out.OVar = tp.O.Var
	} else {
		out.Obj = d.KeyString(tp.O.Term.Key())
	}
	return out
}

// ResolveTPMap resolves a star-grouped triple-pattern map through d.
func ResolveTPMap(m map[int][]sparql.TriplePattern, d *rdf.Dict) map[int][]TP {
	out := make(map[int][]TP, len(m))
	for star, tps := range m {
		rs := make([]TP, len(tps))
		for i, tp := range tps {
			rs[i] = ResolveTP(tp, d)
		}
		out[star] = rs
	}
	return out
}

// MatchResolved enumerates the solutions of a set of resolved triple
// patterns (grouped per composite star) against an annotated triplegroup,
// invoking fn for each solution. Solutions follow SPARQL bag semantics: a
// triplegroup whose star component holds m triples for a pattern property
// yields m solutions for that triple pattern, and solutions multiply across
// triple patterns — this is what makes triplegroup aggregation agree with
// relational aggregation in the presence of multi-valued properties.
//
// starTPs[i] holds the required triple patterns rooted at composite star i
// (patterns for stars absent from the triplegroup cause zero solutions);
// optTPs[i] holds OPTIONAL patterns, which bind when a matching triple
// exists and leave their variables unbound otherwise. Binding values are
// ID-strings; a variable property binds the property's ID-string. fn must
// not retain the binding.
func MatchResolved(a *AnnTG, starTPs, optTPs map[int][]TP, fn func(Binding)) {
	// Flatten to a work list of (star, tp) with the component resolved.
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
	// Required patterns first, so optional non-matches cannot mask required
	// bindings.
	sort.SliceStable(items, func(i, j int) bool { return !items[i].optional && items[j].optional })
	binding := Binding{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(items) {
			fn(binding)
			return
		}
		it := items[i]
		// Bind the subject variable to the component's subject.
		sv := it.tp.SVar
		prevS, hadS := binding[sv]
		if hadS && prevS != it.tg.Subject {
			return
		}
		if !hadS {
			binding[sv] = it.tg.Subject
		}
		restoreS := func() {
			if !hadS {
				delete(binding, sv)
			}
		}
		// Match the object against the component's triples. An unbound
		// property (?p) matches any triple and binds the property variable.
		matchedAny := false
		for _, po := range it.tg.Triples {
			var restoreP func()
			if it.tp.PVar != "" {
				pv := it.tp.PVar
				if prev, had := binding[pv]; had {
					if prev != po.Prop {
						continue
					}
					restoreP = func() {}
				} else {
					binding[pv] = po.Prop
					restoreP = func() { delete(binding, pv) }
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
			matchResolvedObject(it.tp, po, binding, rec, i)
			if restoreP != nil {
				restoreP()
			}
		}
		if it.optional && !matchedAny {
			// Left-outer: proceed with the optional variables unbound.
			rec(i + 1)
		}
		restoreS()
	}
	rec(0)
}

// matchResolvedObject matches one triple's object against the resolved
// pattern's object position and recurses.
func matchResolvedObject(tp TP, po PO, binding Binding, rec func(int), i int) {
	if tp.OVar == "" {
		if po.Obj != tp.Obj {
			return
		}
		rec(i + 1)
		return
	}
	ov := tp.OVar
	prevO, hadO := binding[ov]
	if hadO {
		if prevO != po.Obj {
			return
		}
		rec(i + 1)
		return
	}
	binding[ov] = po.Obj
	rec(i + 1)
	delete(binding, ov)
}
