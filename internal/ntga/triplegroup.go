// Package ntga implements the Nested TripleGroup Data Model and Algebra:
// triplegroups (triples grouped by subject), annotated/joined triplegroups,
// and the paper's logical operators — optional group filter (σ^γopt,
// Definition 3.3), n-split (χ, Definition 3.4), α-Join (Definition 3.5) and
// the binding enumeration underlying the triplegroup Agg-Join (γ^AgJ,
// Definition 3.6). The operators here are pure functions; the engines wrap
// them into map/reduce physical operators. The two per-record pieces are
// built for reuse instead: a Matcher compiles γ^AgJ's triple patterns once
// per job and enumerates solutions through a per-task MatchState, and an
// Arena is the per-task storage triplegroups decode into.
package ntga

import (
	"sort"
	"strings"

	"rapidanalytics/internal/rdf"
)

// PO is one property/object pair of a triplegroup. Stored and in-flight
// triplegroups hold both as rdf.Dict ID-strings; GroupBySubject's output is
// the one term-key form (bare property IRI, object Term.Key), which Intern
// translates at load time.
type PO struct {
	// Prop is the property.
	Prop string
	// Obj is the object.
	Obj string
}

// TripleGroup is a set of triples sharing one subject.
type TripleGroup struct {
	// Subject is the shared subject, in the same form as the triples.
	Subject string
	// Triples are the property/object pairs.
	Triples []PO
}

// Intern returns the term-key triplegroup (as built by GroupBySubject) with
// every field replaced by its ID-string in d, registering terms d has not
// seen. Properties are registered as IRI terms ("I"+IRI), the key the VP
// layout and the query-side resolvers (ResolveRef, ResolveTP) use.
func (tg TripleGroup) Intern(d *rdf.Dict) TripleGroup {
	out := TripleGroup{Subject: d.AddString(tg.Subject), Triples: make([]PO, len(tg.Triples))}
	for i, po := range tg.Triples {
		out.Triples[i] = PO{Prop: d.AddString("I" + po.Prop), Obj: d.AddString(po.Obj)}
	}
	return out
}

// Objects returns the objects of triples with the given property.
func (tg *TripleGroup) Objects(prop string) []string {
	var out []string
	for _, t := range tg.Triples {
		if t.Prop == prop {
			out = append(out, t.Obj)
		}
	}
	return out
}

// String renders the triplegroup for diagnostics.
func (tg *TripleGroup) String() string {
	parts := make([]string, len(tg.Triples))
	for i, t := range tg.Triples {
		parts[i] = t.Prop + "→" + t.Obj
	}
	return tg.Subject + "{" + strings.Join(parts, ", ") + "}"
}

// GroupBySubject builds subject triplegroups from a graph in term-key form
// (see PO), ordered by subject key for determinism.
func GroupBySubject(g *rdf.Graph) []TripleGroup {
	bySubject := map[string]*TripleGroup{}
	var order []string
	for _, t := range g.Triples {
		key := t.Subject.Key()
		tg, ok := bySubject[key]
		if !ok {
			tg = &TripleGroup{Subject: key}
			bySubject[key] = tg
			order = append(order, key)
		}
		tg.Triples = append(tg.Triples, PO{Prop: t.Property.Value, Obj: t.Object.Key()})
	}
	sort.Strings(order)
	out := make([]TripleGroup, len(order))
	for i, key := range order {
		out[i] = *bySubject[key]
	}
	return out
}

// AnnTG is an annotated (possibly joined) triplegroup: one component
// triplegroup per composite star already matched. It is the value type
// flowing through the NTGA physical operators (the paper's AnnTG).
type AnnTG struct {
	// Stars lists the composite-star indexes present, ascending.
	Stars []int
	// TGs holds the component triplegroups, parallel to Stars.
	TGs []TripleGroup
}

// NewAnnTG wraps a single star's triplegroup.
func NewAnnTG(star int, tg TripleGroup) AnnTG {
	return AnnTG{Stars: []int{star}, TGs: []TripleGroup{tg}}
}

// Component returns the triplegroup for the given star index.
func (a *AnnTG) Component(star int) (TripleGroup, bool) {
	for i, s := range a.Stars {
		if s == star {
			return a.TGs[i], true
		}
	}
	return TripleGroup{}, false
}

// Merge combines two joined triplegroups with disjoint star sets.
func Merge(a, b AnnTG) AnnTG {
	out := AnnTG{
		Stars: make([]int, 0, len(a.Stars)+len(b.Stars)),
		TGs:   make([]TripleGroup, 0, len(a.TGs)+len(b.TGs)),
	}
	i, j := 0, 0
	for i < len(a.Stars) && j < len(b.Stars) {
		if a.Stars[i] < b.Stars[j] {
			out.Stars = append(out.Stars, a.Stars[i])
			out.TGs = append(out.TGs, a.TGs[i])
			i++
		} else {
			out.Stars = append(out.Stars, b.Stars[j])
			out.TGs = append(out.TGs, b.TGs[j])
			j++
		}
	}
	for ; i < len(a.Stars); i++ {
		out.Stars = append(out.Stars, a.Stars[i])
		out.TGs = append(out.TGs, a.TGs[i])
	}
	for ; j < len(b.Stars); j++ {
		out.Stars = append(out.Stars, b.Stars[j])
		out.TGs = append(out.TGs, b.TGs[j])
	}
	return out
}
