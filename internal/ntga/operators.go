package ntga

import (
	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/sparql"
)

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
