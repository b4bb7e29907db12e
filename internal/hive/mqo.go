package hive

import (
	"fmt"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/obs"
)

// MQO is the Hive (MQO) engine: the multi-query-optimization rewriting of
// [27]. Overlapping graph patterns are rewritten into one composite pattern
// whose secondary (non-shared) properties join via LEFT OUTER JOIN; the
// composite relation is evaluated and materialised as an intermediate
// table; then each original pattern's grouping-aggregation runs as a second
// query over that table — filtering rows by the pattern's validity (its
// secondary columns non-NULL), projecting away the other patterns'
// columns, DISTINCT-ing when that projection can collapse rows, and
// aggregating.
//
// Faithful to the paper's observation, the composite relation is
// materialised with *all* columns: the materialisation boundary defeats
// early projection and partial aggregation, which is why MQO can lose to
// sequential evaluation on small inputs despite running fewer cycles.
type MQO struct {
	// Conf holds the planner's tuning knobs (DefaultConfig).
	Conf Config
}

// NewMQO returns the engine with default configuration.
func NewMQO() *MQO { return &MQO{Conf: DefaultConfig()} }

// Name implements engine.Engine.
func (h *MQO) Name() string { return "Hive (MQO)" }

// Execute implements engine.Engine. Queries whose patterns do not overlap
// (or with a single grouping) fall back to the Naive plan, as an MQO
// rewriter would.
func (h *MQO) Execute(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Result, *mapred.WorkflowMetrics, error) {
	if len(aq.Subqueries) < 2 {
		return (&Naive{Conf: h.Conf}).Execute(c, ds, aq)
	}
	ps := obs.StartChild(c.Context(), obs.KindPlanner, "composite-rewrite")
	cp, err := algebra.BuildComposite(aq.Subqueries)
	ps.End()
	if err != nil {
		return (&Naive{Conf: h.Conf}).Execute(c, ds, aq)
	}
	return engine.Run(c, fmt.Sprintf("tmp/hive-mqo/%d", runSeq.Add(1)), func(r *engine.Runner) (*engine.Result, error) {
		run := &runner{Runner: r}
		cols := compositeColumns(cp)
		compRel, err := h.evalComposite(run, ds, cp, cols)
		if err != nil {
			return nil, err
		}
		var aggFiles []string
		for k, sq := range aq.Subqueries {
			file, err := h.aggregatePattern(run, cp, cols, compRel, sq, k)
			if err != nil {
				return nil, err
			}
			aggFiles = append(aggFiles, file)
		}
		return engine.FinishQuery(run.Runner, aq, aggFiles)
	})
}

// compositeColumns assigns a relation column to every composite property:
// the object variable when the pattern binds one, a synthetic marker column
// for secondary constant-object properties (so LEFT OUTER NULLs make the
// validity of a row checkable), and no column for primary constant-object
// properties. cols[i][j] addresses cp.Stars[i].Props[j]; empty means no
// column.
func compositeColumns(cp *algebra.CompositePattern) [][]string {
	cols := make([][]string, len(cp.Stars))
	for i, cs := range cp.Stars {
		cols[i] = make([]string, len(cs.Props))
		for j, p := range cs.Props {
			switch {
			case p.TP.O.IsVar:
				cols[i][j] = p.TP.O.Var
			case len(p.Owners) != cp.NumPatterns:
				cols[i][j] = fmt.Sprintf("mark_%d_%d", i, j)
			}
		}
	}
	return cols
}

// evalComposite evaluates the composite pattern: per-star (left outer) star
// joins, then the inter-star join chain, keeping every column.
func (h *MQO) evalComposite(run *runner, ds *engine.Dataset, cp *algebra.CompositePattern, cols [][]string) (*rel, error) {
	starRels := make([]*rel, len(cp.Stars))
	for i, cs := range cp.Stars {
		var inputs []*starInput
		for j, p := range cs.Props {
			optional := len(p.Owners) != cp.NumPatterns
			file, isType, ok := ds.VP.TableFor(p.Ref)
			if !ok {
				var err error
				if file, err = run.emptyFile(true); err != nil {
					return nil, err
				}
			}
			r := &rel{file: file, dict: ds.Dict}
			switch {
			case isType:
				r.cols = []string{cs.SubjectVar}
			case !p.TP.O.IsVar:
				r.cols = []string{cs.SubjectVar, cols[i][j]}
				r.consts = []constCheck{{pos: 1, want: ds.Dict.KeyString(p.TP.O.Term.Key())}}
			default:
				r.cols = []string{cs.SubjectVar, cols[i][j]}
				for _, f := range cp.Filters {
					if f.Var == cols[i][j] {
						r.filters = append(r.filters, f)
					}
				}
			}
			inputs = append(inputs, &starInput{rel: r, keyCol: cs.SubjectVar, optional: optional})
		}
		if len(inputs) == 1 && !inputs[0].optional {
			starRels[i] = inputs[0].rel
			continue
		}
		// A composite star output streams when a join chain follows (its
		// single consumer); with no joins it *is* the composite relation,
		// read by every aggregatePattern, and must stay materialised.
		out, err := run.starJoin(h.Conf, fmt.Sprintf("comp-star%d", i), inputs, nil, run.Path(fmt.Sprintf("comp-star%d", i)), len(cp.Joins) > 0)
		if err != nil {
			return nil, err
		}
		starRels[i] = out
	}
	est := compositeEstimator(ds, cp)
	order, err := algebra.JoinOrderCost(len(cp.Stars), cp.Joins, est)
	if err != nil {
		return nil, err
	}
	acc := starRels[chainStart(order)]
	accRows := est.StarCard(chainStart(order))
	for i, edge := range order {
		out := run.Path(fmt.Sprintf("comp-join%d", i))
		// Intermediate composite joins stream; the final one produces the
		// composite relation — the MQO materialisation boundary every
		// aggregatePattern reads — which keeps the real DFS write.
		acc, err = run.join(h.Conf, fmt.Sprintf("comp-join%d", i), acc, starRels[edge.Right], edge.Var, edge.Var, nil, out, i < len(order)-1, edgeEstimate(est, &accRows, edge))
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// aggregatePattern computes original pattern k's grouping-aggregation over
// the materialised composite relation.
func (h *MQO) aggregatePattern(run *runner, cp *algebra.CompositePattern, cols [][]string, compRel *rel, sq *algebra.Subquery, k int) (string, error) {
	valid := h.validityFilter(cp, cols, compRel, k)

	groupCols := make([]string, len(sq.GroupBy))
	for i, g := range sq.GroupBy {
		groupCols[i] = cp.VarMaps[k][g]
	}
	aggs := make([]algebra.AggSpec, len(sq.Aggs))
	for i, a := range sq.Aggs {
		aggs[i] = algebra.AggSpec{Func: a.Func, Var: cp.VarMaps[k][a.Var], As: a.As, Distinct: a.Distinct}
	}

	in := compRel
	if cp.NeedsDistinct(k) {
		distinctCols := patternColumns(cp, cols, k)
		job, out := distinctJob(fmt.Sprintf("gp%d-distinct", k), compRel, distinctCols, valid,
			run.Path(fmt.Sprintf("gp%d-distinct", k)))
		// Consumed only by this pattern's grouping-aggregation below.
		job.StreamOutput = true
		if err := run.Exec(job); err != nil {
			return "", err
		}
		in = out
		valid = nil // already applied
	}
	aggOut := run.Path(fmt.Sprintf("gp%d-agg", k))
	job, out := groupAggJob(fmt.Sprintf("gp%d-agg", k), in, groupCols, aggs, valid, sq.GroupedHaving(), aggOut)
	if err := run.Exec(job); err != nil {
		return "", err
	}
	return out.file, nil
}

// validityFilter returns the row predicate "every secondary column owned by
// pattern k is non-NULL", or nil when k has no secondary properties.
func (h *MQO) validityFilter(cp *algebra.CompositePattern, cols [][]string, compRel *rel, k int) func(codec.Tuple) bool {
	var positions []int
	plan := compRel.compile()
	for i, cs := range cp.Stars {
		for j, p := range cs.Props {
			if len(p.Owners) != cp.NumPatterns && p.Owners[k] && cols[i][j] != "" {
				positions = append(positions, plan.colIndex(cols[i][j]))
			}
		}
	}
	if len(positions) == 0 {
		return nil
	}
	return func(row codec.Tuple) bool {
		for _, p := range positions {
			if p < 0 || p >= len(row) || algebra.IsNull(row[p]) {
				return false
			}
		}
		return true
	}
}

// patternColumns returns pattern k's structural columns in the composite
// relation: every star's subject plus the columns of k's properties.
func patternColumns(cp *algebra.CompositePattern, cols [][]string, k int) []string {
	var out []string
	for i, cs := range cp.Stars {
		out = append(out, cs.SubjectVar)
		for j, p := range cs.Props {
			if p.Owners[k] && cols[i][j] != "" {
				out = append(out, cols[i][j])
			}
		}
	}
	return out
}
