package hive

import (
	"fmt"
	"slices"

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

// Plan implements engine.Engine. Queries whose patterns do not overlap (or
// with a single grouping) fall back to the Naive plan, as an MQO rewriter
// would.
func (h *MQO) Plan(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Plan, error) {
	if len(aq.Subqueries) < 2 {
		return (&Naive{Conf: h.Conf}).Plan(c, ds, aq)
	}
	ps := obs.StartChild(c.Context(), obs.KindPlanner, "composite-rewrite")
	cp, err := algebra.BuildComposite(aq.Subqueries)
	ps.End()
	if err != nil {
		return (&Naive{Conf: h.Conf}).Plan(c, ds, aq)
	}
	pl := &planner{Plan: &engine.Plan{}, c: c, conf: h.Conf}
	cols := compositeColumns(cp)
	compRel, err := pl.composite(ds, cp, cols)
	if err != nil {
		return nil, err
	}
	aggs := make([]string, len(aq.Subqueries))
	for k, sq := range aq.Subqueries {
		aggs[k] = pl.aggregatePattern(cp, cols, compRel, sq, k).file
	}
	pl.Finish(aq, aggs...)
	return pl.Plan, nil
}

// compositeColumns assigns a relation column to every composite property:
// the object variable when the pattern binds one, a synthetic marker column
// for secondary constant-object properties and secondaries whose object
// the subject or a primary property of the star binds (?s e:knows ?s, or
// ?s e:tag ?o beside a primary ?s e:knows ?o), so LEFT OUTER NULLs make
// the validity of a row checkable, and no column for primary
// constant-object properties. cols[i][j] addresses cp.Stars[i].Props[j];
// empty means no column.
func compositeColumns(cp *algebra.CompositePattern) [][]string {
	cols := make([][]string, len(cp.Stars))
	for i, cs := range cp.Stars {
		cols[i] = make([]string, len(cs.Props))
		bound := func(v string) bool {
			return v == cs.SubjectVar || slices.ContainsFunc(cs.Props, func(q algebra.CompositeProp) bool {
				return len(q.Owners) == cp.NumPatterns && q.TP.O.IsVar && q.TP.O.Var == v
			})
		}
		for j, p := range cs.Props {
			secondary := len(p.Owners) != cp.NumPatterns
			switch {
			case p.TP.O.IsVar && !(secondary && bound(p.TP.O.Var)):
				cols[i][j] = p.TP.O.Var
			case secondary:
				cols[i][j] = fmt.Sprintf("mark_%d_%d", i, j)
			}
		}
	}
	return cols
}

// composite plans the composite pattern: per-star (left outer) star
// joins, the primary properties' inputs first, then the inter-star join
// chain, keeping every column.
func (pl *planner) composite(ds *engine.Dataset, cp *algebra.CompositePattern, cols [][]string) (*rel, error) {
	starRels := make([]*rel, len(cp.Stars))
	for i, cs := range cp.Stars {
		var inputs []*starInput
		for _, optional := range []bool{false, true} {
			for j, p := range cs.Props {
				if (len(p.Owners) != cp.NumPatterns) != optional {
					continue
				}
				si := &starInput{rel: vpScan(ds, cs.SubjectVar, p.TP, cols[i][j], cp.Filters), keyCol: cs.SubjectVar, optional: optional}
				if p.TP.O.IsVar && cols[i][j] != p.TP.O.Var {
					si.mark, si.markOf = cols[i][j], p.TP.O.Var
				}
				inputs = append(inputs, si)
			}
		}
		if len(inputs) == 1 && !inputs[0].optional {
			starRels[i] = inputs[0].rel
			continue
		}
		out, err := pl.starJoin(fmt.Sprintf("comp-star%d", i), inputs, nil)
		if err != nil {
			return nil, err
		}
		starRels[i] = out
	}
	return pl.chain("comp", starRels, cp.Joins, compositeEstimator(ds, cp), nil)
}

// aggregatePattern plans original pattern k's grouping-aggregation over
// the materialised composite relation.
func (pl *planner) aggregatePattern(cp *algebra.CompositePattern, cols [][]string, compRel *rel, sq *algebra.Subquery, k int) *rel {
	valid := validityFilter(cp, cols, compRel, k)

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
		name, distinctCols, filter := fmt.Sprintf("gp%d-distinct", k), patternColumns(cp, cols, k), valid
		in = pl.add(name, "distinct", func(output string) (*mapred.Job, *rel) {
			return distinctJob(name, compRel, distinctCols, filter, output)
		})
		valid = nil // already applied
	}
	name := fmt.Sprintf("gp%d-agg", k)
	return pl.groupAgg(name, name, in, groupCols, aggs, valid, sq.GroupedHaving())
}

// validityFilter returns the row predicate "every secondary column owned by
// pattern k is non-NULL", or nil when k has no secondary properties.
func validityFilter(cp *algebra.CompositePattern, cols [][]string, compRel *rel, k int) func(codec.Tuple) bool {
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
