package algebra

import (
	"fmt"
	"slices"
)

// JoinOrder linearises a pattern's join edges into an execution order: the
// first edge starts at star 0, and every subsequent edge connects an
// already-covered star (returned as Left) to a new one (Right). Planners
// walk this order to chain binary join cycles. Redundant edges (closing
// cycles in the join graph) are rejected — the analytical workloads are
// acyclic.
//
// This is the fixed heuristic order (query order, star 0 first); the
// planners use JoinOrderCost, which checks the graph with it.
func JoinOrder(numStars int, joins []Join) ([]Join, error) {
	if numStars <= 1 {
		return nil, nil
	}
	covered := map[int]bool{0: true}
	used := make([]bool, len(joins))
	var order []Join
	for len(covered) < numStars {
		found := false
		for i, j := range joins {
			if used[i] {
				continue
			}
			switch {
			case covered[j.Left] && !covered[j.Right]:
				order = append(order, j)
			case covered[j.Right] && !covered[j.Left]:
				order = append(order, j.flip())
			default:
				continue
			}
			used[i] = true
			covered[order[len(order)-1].Right] = true
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("algebra: join graph does not connect all %d stars", numStars)
		}
	}
	for i, j := range joins {
		if !used[i] && covered[j.Left] && covered[j.Right] {
			return nil, fmt.Errorf("algebra: cyclic join graph (redundant edge on ?%s) not supported", j.Var)
		}
	}
	return order, nil
}

// CardEstimator supplies predicted cardinalities to cost-based join
// ordering and to the adaptive re-plan hook. stats.Estimator is the
// production implementation; tests substitute fakes to force mispredictions.
type CardEstimator interface {
	// StarCard returns the predicted cardinality of one star's scan output
	// (triplegroups or rows, depending on the engine's data model).
	StarCard(star int) float64
	// JoinCard returns the predicted output cardinality of joining inputs
	// of cardinality left and right along edge j.
	JoinCard(left, right float64, j Join) float64
}

// JoinOrderCost linearises the join edges like JoinOrder, but greedily
// picks the next edge (and the starting star) to minimise the predicted
// intermediate cardinality at every step. The returned order satisfies the
// same chaining contract — each edge's Left endpoint is already covered,
// each Right is new — except that the chain may start at any star:
// consumers seed their accumulator from order[0].Left rather than star 0.
// Ties break toward the earlier edge in query order, keeping plans
// deterministic.
func JoinOrderCost(numStars int, joins []Join, est CardEstimator) ([]Join, error) {
	// Validate connectivity and acyclicity with the heuristic walk first so
	// both planners reject malformed graphs with identical errors.
	if _, err := JoinOrder(numStars, joins); err != nil || numStars <= 1 {
		return nil, err
	}
	return greedyOrder(make([]bool, numStars), joins, 0, est), nil
}

// ReorderRemaining re-plans the tail of an executing join chain: given the
// stars already folded into the accumulator (covered), the not-yet-executed
// edges, and the observed accumulator cardinality accCard, it returns the
// remaining edges re-ordered greedily by predicted intermediate
// cardinality, re-oriented so each edge's Left endpoint is covered when it
// executes. The input slice is not modified.
func ReorderRemaining(covered []bool, remaining []Join, accCard float64, est CardEstimator) []Join {
	if len(remaining) < 2 {
		return remaining
	}
	if order := greedyOrder(slices.Clone(covered), remaining, accCard, est); order != nil {
		return order
	}
	// The tail no longer connects from the covered set (cannot happen for
	// orders produced by JoinOrder/JoinOrderCost); keep the original order
	// rather than guess.
	return remaining
}

// greedyOrder orders all of joins, each step taking the edge of least
// predicted output cardinality, ties to the earlier edge. It continues a
// chain over the covered stars whose accumulator holds acc rows, or, with
// no star covered, starts one at either endpoint of any edge, the first
// join's left input being that star's scan. It marks the stars it joins
// in covered, and returns nil if an edge left does not connect to them.
func greedyOrder(cov []bool, joins []Join, acc float64, est CardEstimator) []Join {
	started := slices.Contains(cov, true)
	used := make([]bool, len(joins))
	order := make([]Join, 0, len(joins))
	for len(order) < len(joins) {
		best := -1
		var bestEdge Join
		var bestCard float64
		for i, j := range joins {
			if used[i] {
				continue
			}
			var cands []Join
			switch {
			case !started:
				cands = []Join{j, j.flip()}
			case cov[j.Left] && !cov[j.Right]:
				cands = []Join{j}
			case cov[j.Right] && !cov[j.Left]:
				cands = []Join{j.flip()}
			}
			for _, c := range cands {
				left := acc
				if !started {
					left = est.StarCard(c.Left)
				}
				if out := est.JoinCard(left, est.StarCard(c.Right), c); best < 0 || out < bestCard {
					best, bestEdge, bestCard = i, c, out
				}
			}
		}
		if best < 0 {
			return nil
		}
		used[best], cov[bestEdge.Left], cov[bestEdge.Right], started = true, true, true, true
		order = append(order, bestEdge)
		acc = bestCard
	}
	return order
}
