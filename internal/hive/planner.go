package hive

import (
	"fmt"

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

// chain plans the inter-star join chain of a pattern whose stars plan to
// the relations stars: the joins in est's cost order, the accumulated
// relation starting from order[0]'s Left star (star 0 for edge-less
// patterns) and joining one new star per edge. Each join keeps keep's
// columns and the later edges' join columns, or every column when keep is
// nil. Joins are named tag-join0, tag-join1, ...
func (pl *planner) chain(tag string, stars []*rel, joins []algebra.Join, est *stats.Estimator, keep map[string]bool) (*rel, error) {
	order, err := algebra.JoinOrderCost(len(stars), joins, est)
	if err != nil {
		return nil, err
	}
	start := 0
	if len(order) > 0 {
		start = order[0].Left
	}
	acc, accRows := stars[start], est.StarCard(start)
	for i, edge := range order {
		rightRows := est.StarCard(edge.Right)
		outRows := est.JoinCard(accRows, rightRows, edge)
		var k map[string]bool
		if keep != nil {
			k = keepWithJoins(keep, order[i+1:])
		}
		acc = pl.join(fmt.Sprintf("%s-join%d", tag, i), acc, stars[edge.Right], edge.Var, k,
			joinEst{leftRows: accRows, rightRows: rightRows, outRows: outRows})
		accRows = outRows
	}
	return acc, nil
}
