package hive

import (
	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/stats"
)

// joinEst carries the planner's predicted cardinalities for one chain join:
// rows of the accumulated left input, of the right star relation, and of
// the join output.
type joinEst struct {
	leftRows  float64
	rightRows float64
	outRows   float64
}

// patternEstimator builds the relational-row-mode estimator for a plain
// graph pattern over the dataset's statistics catalog. It orders the
// inter-star join chain, sizes the map-join-site decision for chain inputs
// from predicted rows — real Hive compiles the whole plan before execution
// and cannot measure intermediates — and sizes reduce partitions from
// predicted output rows.
func patternEstimator(ds *engine.Dataset, gp *algebra.GraphPattern) *stats.Estimator {
	refs := make([][]algebra.PropRef, len(gp.Stars))
	for i, st := range gp.Stars {
		refs[i] = st.Props()
	}
	return stats.NewEstimator(ds.Stats, refs, true)
}

// compositeEstimator builds the relational-row-mode estimator for a
// composite pattern: each star is estimated from its primary (required)
// references; secondary LEFT-OUTER properties keep all rows and are
// approximated as fan-out 1.
func compositeEstimator(ds *engine.Dataset, cp *algebra.CompositePattern) *stats.Estimator {
	refs := make([][]algebra.PropRef, len(cp.Stars))
	for i, cs := range cp.Stars {
		refs[i] = cs.PrimaryRefs()
	}
	return stats.NewEstimator(ds.Stats, refs, true)
}

// chainStart returns the star the accumulated side starts from: order[0]'s
// Left endpoint, star 0 for edge-less patterns.
func chainStart(order []algebra.Join) int {
	if len(order) == 0 {
		return 0
	}
	return order[0].Left
}

// edgeEstimate predicts one chain join's cardinalities and advances the
// accumulated row count.
func edgeEstimate(est *stats.Estimator, acc *float64, edge algebra.Join) joinEst {
	rr := est.StarCard(edge.Right)
	out := est.JoinCard(*acc, rr, edge)
	je := joinEst{leftRows: *acc, rightRows: rr, outRows: out}
	*acc = out
	return je
}
