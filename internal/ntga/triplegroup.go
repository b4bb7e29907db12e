// Package ntga implements the Nested TripleGroup Data Model and Algebra:
// triplegroups (triples grouped by subject), annotated/joined triplegroups,
// and the paper's logical operators — optional group filter (σ^γopt,
// Definition 3.3), n-split (χ, Definition 3.4), α-Join (Definition 3.5) and
// the binding enumeration underlying the triplegroup Agg-Join (γ^AgJ,
// Definition 3.6). The operators here are pure functions; the engines wrap
// them into map/reduce physical operators. The two per-record pieces are
// built for reuse instead: a Matcher compiles γ^AgJ's triple patterns once
// per job and enumerates solutions through a per-task MatchState, and an
// Arena is the per-task storage triplegroups decode into. The α-Join works
// on the encoded values without decoding them: component spans
// (AppendAnnTGSpans), one α pattern set per value (AppendPatternSet) and a
// spliced output record (AppendJoinIDs).
package ntga

import "strings"

// PO is one property/object pair of a triplegroup. Stored and in-flight
// triplegroups hold both as rdf.Dict ID-strings.
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

// String renders the triplegroup for diagnostics.
func (tg *TripleGroup) String() string {
	parts := make([]string, len(tg.Triples))
	for i, t := range tg.Triples {
		parts[i] = t.Prop + "→" + t.Obj
	}
	return tg.Subject + "{" + strings.Join(parts, ", ") + "}"
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
