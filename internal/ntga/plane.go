package ntga

import (
	"encoding/binary"
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

// HasAllRefs reports whether the triplegroup matches every resolved
// reference.
func (tg *TripleGroup) HasAllRefs(refs []Ref) bool {
	for _, ref := range refs {
		if !tg.HasPO(ref.Prop, ref.Obj) {
			return false
		}
	}
	return true
}

// AppendProjectRefs appends to dst the triples matching any of the resolved
// references, in stored order — the projection loop of σ^γopt and χ.
func (tg *TripleGroup) AppendProjectRefs(dst []PO, refs []Ref) []PO {
	for _, t := range tg.Triples {
		for _, ref := range refs {
			if t.Prop != ref.Prop {
				continue
			}
			if ref.Obj != "" && t.Obj != ref.Obj {
				continue
			}
			dst = append(dst, t)
			break
		}
	}
	return dst
}

// ProjectRefs returns a copy of the triplegroup restricted to triples
// matching any of the resolved references.
func (tg *TripleGroup) ProjectRefs(refs []Ref) TripleGroup {
	return TripleGroup{Subject: tg.Subject, Triples: tg.AppendProjectRefs(nil, refs)}
}

// OptGroupFilterRefs implements the optional group-filter operator σ^γopt
// (Definition 3.3): it projects a subject triplegroup onto the star's
// primary and optional properties and accepts it iff every primary property
// is matched. The returned triplegroup contains the matching primary
// triples plus any matching optional triples.
func OptGroupFilterRefs(tg TripleGroup, prim, opt []Ref) (TripleGroup, bool) {
	if !tg.HasAllRefs(prim) {
		return TripleGroup{}, false
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
		if !tg.HasAllRefs(sec) {
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

// NewAlphaTable builds an α table over numPatterns original patterns from
// the resolved required references req[star][pattern]; every star must list
// numPatterns reference sets.
func NewAlphaTable(numPatterns int, req [][][]Ref) *AlphaTable {
	return &AlphaTable{numPatterns: numPatterns, req: req}
}

// ResolveAlpha builds the α table for cp through d. A nil cp yields a nil
// table, which admits everything.
func ResolveAlpha(cp *algebra.CompositePattern, d *rdf.Dict) *AlphaTable {
	if cp == nil {
		return nil
	}
	req := make([][][]Ref, len(cp.Stars))
	for i, cs := range cp.Stars {
		req[i] = make([][]Ref, cp.NumPatterns)
		for k := 0; k < cp.NumPatterns; k++ {
			req[i][k] = ResolveRefs(cs.RequiredSecondaryFor(k), d)
		}
	}
	return NewAlphaTable(cp.NumPatterns, req)
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

// PatternWords returns the number of 64-bit words in one of the table's
// pattern sets (AppendPatternSet).
func (t *AlphaTable) PatternWords() int { return (t.numPatterns + 63) / 64 }

// AppendPatternSet appends to dst the pattern set of an encoded annotated
// triplegroup, its components located in rec by comps (AppendAnnTGSpans):
// PatternWords words in which bit k is set iff Satisfies would hold for
// pattern k, tested on the encoded ID bytes. Satisfies is a conjunction over
// components, so the set of a join is the intersection of its sides' sets,
// and the α-Join admission test (Definition 3.5) — the join satisfies at
// least one original pattern, else it matches none and is not materialised
// (Table 2) — is PatternSetsMeet of the sides' sets: α is tested once per
// value, not once per pair. A star the table does not cover is an error; on
// error dst comes back unextended.
func (t *AlphaTable) AppendPatternSet(dst []uint64, rec []byte, comps []CompSpan) ([]uint64, error) {
	start := len(dst)
	for k := 0; k < t.numPatterns; k += 64 {
		w := ^uint64(0)
		if rem := t.numPatterns - k; rem < 64 {
			w = 1<<rem - 1
		}
		dst = append(dst, w)
	}
	set := dst[start:]
	for _, c := range comps {
		if c.Star < 0 || c.Star >= len(t.req) {
			return dst[:start], decodeErr("star %d outside the α table's %d stars", c.Star, len(t.req))
		}
		tg := rec[c.TG:c.End]
		for k, refs := range t.req[c.Star] {
			if set[k/64]&(1<<(k%64)) != 0 && !encodedHasAllRefs(tg, refs) {
				set[k/64] &^= 1 << (k % 64)
			}
		}
	}
	return dst, nil
}

// PatternSetsMeet reports whether two pattern sets of one table share a
// pattern.
func PatternSetsMeet(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// encodedHasAllRefs is HasAllRefs on a checked triplegroup encoding.
func encodedHasAllRefs(tg []byte, refs []Ref) bool {
	for _, ref := range refs {
		if !encodedHasPO(tg, ref.Prop, ref.Obj) {
			return false
		}
	}
	return true
}

// encodedHasPO is HasPO on a checked triplegroup encoding: the comparisons
// run on the ID bytes.
func encodedHasPO(tg []byte, prop, obj string) bool {
	off := idLen(tg)
	n, k := binary.Uvarint(tg[off:])
	off += k
	for ; n > 0; n-- {
		p := idLen(tg[off:])
		o := idLen(tg[off+p:])
		// comparing a string(bytes) conversion does not allocate
		if string(tg[off:off+p]) == prop && (obj == "" || string(tg[off+p:off+p+o]) == obj) {
			return true
		}
		off += p + o
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

// Matcher is a set of resolved triple patterns (grouped per composite star)
// compiled, once per job, into the plan the γ^AgJ mapper runs per record: a
// flat item list with every variable name resolved to a slot index, so
// enumerating an annotated triplegroup's solutions touches no map, sorts
// nothing and allocates nothing.
//
// Item order is part of the contract: stars ascending, within a star the
// patterns in the order given, and every required pattern before every
// OPTIONAL one (so optional non-matches cannot mask required bindings).
// Solutions are enumerated depth-first in that order, each item walking its
// component's triples in stored order. RAPID+ emits one partial state per
// solution and SUM merges them in shuffle order, so changing the order
// changes float result bits.
type Matcher struct {
	stars []int // composite stars the required patterns are rooted at, ascending
	items []matchItem
	vars  []string // slot → variable name
}

// matchItem is one compiled triple pattern.
type matchItem struct {
	comp     int    // index into Matcher.stars / MatchState.comps
	sSlot    int    // subject variable's slot
	pSlot    int    // property variable's slot, -1 when the property is constant
	prop     string // constant property's ID-string
	oSlot    int    // object variable's slot, -1 when the object is constant
	obj      string // constant object's ID-string
	optional bool
}

// CompileMatcher compiles resolved triple patterns: starTPs[i] holds the
// required patterns rooted at composite star i (a star absent from the
// matched triplegroup causes zero solutions); optTPs[i] holds star i's
// OPTIONAL patterns, which bind when a matching triple exists and leave
// their variables unbound otherwise. OPTIONAL patterns of a star without
// required patterns are not matched.
func CompileMatcher(starTPs, optTPs map[int][]TP) *Matcher {
	m := &Matcher{stars: make([]int, 0, len(starTPs))}
	for star := range starTPs {
		m.stars = append(m.stars, star)
	}
	sort.Ints(m.stars)
	slots := map[string]int{}
	slot := func(name string) int {
		if name == "" {
			return -1
		}
		s, ok := slots[name]
		if !ok {
			s = len(m.vars)
			slots[name] = s
			m.vars = append(m.vars, name)
		}
		return s
	}
	for _, optional := range []bool{false, true} {
		for comp, star := range m.stars {
			tps := starTPs[star]
			if optional {
				tps = optTPs[star]
			}
			for _, tp := range tps {
				m.items = append(m.items, matchItem{
					comp: comp, optional: optional,
					sSlot: slot(tp.SVar),
					pSlot: slot(tp.PVar), prop: tp.Prop,
					oSlot: slot(tp.OVar), obj: tp.Obj,
				})
			}
		}
	}
	return m
}

// Slot returns the slot index of a variable, or -1 when no pattern mentions
// it (such a variable is unbound in every solution).
func (m *Matcher) Slot(name string) int {
	for i, v := range m.vars {
		if v == name {
			return i
		}
	}
	return -1
}

// MatchState is one task's reusable matching state for a Matcher: the slot
// values of the solution being built and the matched triplegroup's
// components. It is not safe for concurrent use.
type MatchState struct {
	m     *Matcher
	fn    func(slots []string)
	slots []string
	comps []*TripleGroup
}

// NewState returns a matching state that reports every solution to fn as
// the slot values, indexed as Slot numbers them: ID-strings, "" for an
// unbound variable (no ID-string is empty); a variable property binds the
// property's ID-string. fn must not retain or modify the slice.
func (m *Matcher) NewState(fn func(slots []string)) *MatchState {
	return &MatchState{
		m:     m,
		fn:    fn,
		slots: make([]string, len(m.vars)),
		comps: make([]*TripleGroup, len(m.stars)),
	}
}

// Match enumerates the solutions of the compiled patterns against an
// annotated triplegroup. Solutions follow SPARQL bag semantics: a
// triplegroup whose star component holds m triples for a pattern property
// yields m solutions for that triple pattern, and solutions multiply across
// triple patterns — this is what makes triplegroup aggregation agree with
// relational aggregation in the presence of multi-valued properties.
func (st *MatchState) Match(a *AnnTG) {
	for i, star := range st.m.stars {
		st.comps[i] = nil
		for j, s := range a.Stars {
			if s == star {
				st.comps[i] = &a.TGs[j]
				break
			}
		}
		if st.comps[i] == nil {
			return
		}
	}
	st.match(0)
}

// match extends the partial solution in slots by items[i:], restoring every
// slot it binds before it returns.
func (st *MatchState) match(i int) {
	if i == len(st.m.items) {
		st.fn(st.slots)
		return
	}
	it := &st.m.items[i]
	tg := st.comps[it.comp]
	slots := st.slots
	// Bind the subject variable to the component's subject.
	boundS := slots[it.sSlot] == ""
	if boundS {
		slots[it.sSlot] = tg.Subject
	} else if slots[it.sSlot] != tg.Subject {
		return
	}
	// Match the object against the component's triples. An unbound property
	// (?p) matches any triple and binds the property variable.
	matchedAny := false
	for k := range tg.Triples {
		po := &tg.Triples[k]
		boundP := false
		if it.pSlot < 0 {
			if po.Prop != it.prop {
				continue
			}
		} else if slots[it.pSlot] == "" {
			slots[it.pSlot], boundP = po.Prop, true
		} else if slots[it.pSlot] != po.Prop {
			continue
		}
		switch {
		case it.oSlot < 0:
			if po.Obj == it.obj {
				matchedAny = true
				st.match(i + 1)
			}
		case slots[it.oSlot] == "":
			matchedAny = true
			slots[it.oSlot] = po.Obj
			st.match(i + 1)
			slots[it.oSlot] = ""
		default:
			matchedAny = true
			if slots[it.oSlot] == po.Obj {
				st.match(i + 1)
			}
		}
		if boundP {
			slots[it.pSlot] = ""
		}
	}
	if it.optional && !matchedAny {
		// Left-outer: proceed with the optional variables unbound.
		st.match(i + 1)
	}
	if boundS {
		slots[it.sSlot] = ""
	}
}
