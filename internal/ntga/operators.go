package ntga

import (
	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/sparql"
)

// SplitTG is one output of the n-split operator: the subset of a composite
// triplegroup matching original pattern Pattern.
type SplitTG struct {
	// Pattern is the original pattern's index in the composite.
	Pattern int
	// TG is the extracted triplegroup.
	TG TripleGroup
}

// PatternTriples groups original pattern k's canonical triple patterns by
// composite star index, the form ResolveTPMap consumes.
func PatternTriples(cp *algebra.CompositePattern, k int) map[int][]sparql.TriplePattern {
	out := map[int][]sparql.TriplePattern{}
	for i, cs := range cp.Stars {
		tps := cs.TriplesFor(k)
		if len(tps) > 0 {
			out[i] = tps
		}
	}
	return out
}
