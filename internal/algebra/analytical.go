package algebra

import (
	"errors"
	"fmt"
	"strings"

	"rapidanalytics/internal/sparql"
)

// AggSpec is one aggregation requirement of a subquery: a function applied
// to a variable, bound to an output alias.
type AggSpec struct {
	Func sparql.AggFunc
	// Var is the aggregated variable.
	Var string
	// As is the output column name.
	As string
	// Distinct marks the set-valued form (COUNT(DISTINCT ?x), ...).
	Distinct bool
}

func (a AggSpec) String() string { return fmt.Sprintf("%s(?%s) AS ?%s", a.Func, a.Var, a.As) }

// Subquery is one grouping-aggregation constraint of an analytical query: a
// graph pattern, the grouping variables (empty = a single group over all
// solutions, "GROUP BY ALL"), and the aggregations computed per group.
type Subquery struct {
	// ID is the subquery's position in the analytical query, used to tag
	// pattern-specific artifacts (α conditions, split triplegroups,
	// aggregation ids) throughout the planners.
	ID int
	// Pattern is the graph pattern the grouping ranges over.
	Pattern *GraphPattern
	// GroupBy lists grouping variable names; empty means GROUP BY ALL.
	GroupBy []string
	// Aggs are the aggregations computed per group.
	Aggs []AggSpec
	// Having are per-group constraints over the aggregates, resolved to
	// indexes into Aggs.
	Having []HavingPred
}

// HavingPred is a resolved HAVING constraint: Aggs[AggIndex] Op Value.
type HavingPred struct {
	AggIndex int
	Op       string
	Value    float64
}

// HavingPassed reports whether a group's final aggregate values satisfy
// every HAVING constraint. Non-numeric finals (NULL MIN/MAX over empty
// groups) fail numeric comparisons, as in SPARQL.
func (s *Subquery) HavingPassed(finals []string) bool {
	for _, h := range s.Having {
		if h.AggIndex < 0 || h.AggIndex >= len(finals) {
			return false
		}
		if !HavingHolds(finals[h.AggIndex], h.Op, h.Value) {
			return false
		}
	}
	return true
}

// GroupedHaving returns the HAVING predicate an aggregation reducer
// applies: nil without HAVING, and nil for GROUP BY ALL, whose one group
// gets its default row first and is filtered after that
// (engine.RepairGroupByAll).
func (s *Subquery) GroupedHaving() func([]string) bool {
	if s.GroupByAll() || len(s.Having) == 0 {
		return nil
	}
	return s.HavingPassed
}

// OutputColumns returns the subquery's result columns: grouping variables
// followed by aggregation aliases.
func (s *Subquery) OutputColumns() []string {
	cols := append([]string{}, s.GroupBy...)
	for _, a := range s.Aggs {
		cols = append(cols, a.As)
	}
	return cols
}

// GroupByAll reports whether the subquery aggregates all solutions into one
// group.
func (s *Subquery) GroupByAll() bool { return len(s.GroupBy) == 0 }

// AnalyticalQuery is the paper's query class: one or more grouped
// subqueries whose results the outer query joins on shared grouping
// variables and projects (possibly through arithmetic expressions).
type AnalyticalQuery struct {
	// Subqueries in source order.
	Subqueries []*Subquery
	// Projection is the outer SELECT's projection over the subqueries'
	// output columns.
	Projection []sparql.ProjItem
	// OrderBy lists the outer ORDER BY keys (over projection columns).
	OrderBy []sparql.OrderKey
	// Limit caps the result rows; 0 means unlimited.
	Limit int
}

// Sorted reports whether the query needs a final total-order (ORDER BY or
// LIMIT) pass.
func (aq *AnalyticalQuery) Sorted() bool { return len(aq.OrderBy) > 0 || aq.Limit > 0 }

// Build converts a parsed SPARQL query into the analytical form. Two shapes
// are accepted:
//
//   - A top-level SELECT whose pattern consists solely of sub-SELECTs: each
//     sub-SELECT becomes one Subquery (the multi-grouping queries MG1–MG18).
//   - A top-level SELECT with triple patterns and aggregates: the whole
//     query is a single Subquery and the outer projection names its
//     columns in SELECT order (the single-grouping queries G1–G9).
func Build(q *sparql.Query) (*AnalyticalQuery, error) {
	sel := q.Select
	if len(sel.Pattern.SubSelects) > 0 {
		if p := sel.Pattern; len(p.Triples)+len(p.Optionals)+len(p.Filters) > 0 {
			return nil, fmt.Errorf("algebra: mixing triple patterns, OPTIONAL or FILTER with sub-SELECTs in the outer query is not supported")
		}
		aq := &AnalyticalQuery{Projection: sel.Projection, OrderBy: sel.OrderBy, Limit: sel.Limit}
		for i, sub := range sel.Pattern.SubSelects {
			if len(sub.OrderBy) > 0 || sub.Limit > 0 {
				return nil, fmt.Errorf("algebra: subquery %d: ORDER BY/LIMIT are only supported on the outer query", i+1)
			}
			sq, err := buildSubquery(i, sub)
			if err != nil {
				return nil, fmt.Errorf("algebra: subquery %d: %w", i+1, err)
			}
			aq.Subqueries = append(aq.Subqueries, sq)
		}
		if err := aq.validate(); err != nil {
			return nil, err
		}
		return aq, nil
	}
	// Single-grouping shape.
	sq, err := buildSubquery(0, sel)
	if err != nil {
		return nil, fmt.Errorf("algebra: %w", err)
	}
	aq := &AnalyticalQuery{Subqueries: []*Subquery{sq}, OrderBy: sel.OrderBy, Limit: sel.Limit}
	for _, pi := range sel.Projection {
		aq.Projection = append(aq.Projection, sparql.ProjItem{Var: pi.Var})
	}
	if err := aq.validate(); err != nil {
		return nil, err
	}
	return aq, nil
}

func buildSubquery(id int, sel *sparql.SelectQuery) (*Subquery, error) {
	if len(sel.Pattern.SubSelects) > 0 {
		return nil, fmt.Errorf("nested sub-SELECT below depth 1 is not supported")
	}
	gp, err := BuildGraphPattern(sel.Pattern)
	if err != nil {
		// BuildGraphPattern is an entry point of its own and prefixes its
		// (flat) errors; buildSubquery's callers prefix once for every
		// cause.
		return nil, errors.New(strings.TrimPrefix(err.Error(), "algebra: "))
	}
	if !gp.Connected() {
		return nil, fmt.Errorf("graph pattern is disconnected: %s", gp)
	}
	sq := &Subquery{ID: id, Pattern: gp, GroupBy: sel.GroupBy}
	vars := gp.Vars()
	projected := map[string]bool{}
	for _, pi := range sel.Projection {
		switch {
		case pi.Agg != nil:
			if !vars[pi.Agg.Var] {
				return nil, fmt.Errorf("aggregated variable ?%s not bound by the pattern", pi.Agg.Var)
			}
			sq.Aggs = append(sq.Aggs, AggSpec{Func: pi.Agg.Func, Var: pi.Agg.Var, As: pi.Var, Distinct: pi.Agg.Distinct})
		case pi.Expr != nil:
			return nil, fmt.Errorf("expression projections are only supported in the outer query")
		default:
			projected[pi.Var] = true
		}
	}
	if len(sq.Aggs) == 0 {
		return nil, fmt.Errorf("subquery has no aggregation")
	}
	// Plain projected variables must be grouping variables, and vice versa.
	for _, g := range sel.GroupBy {
		if !vars[g] {
			return nil, fmt.Errorf("grouping variable ?%s not bound by the pattern", g)
		}
	}
	for v := range projected {
		if !contains(sel.GroupBy, v) {
			return nil, fmt.Errorf("projected variable ?%s is not a grouping variable", v)
		}
	}
	// Resolve HAVING constraints against the SELECT's aggregates.
	for _, h := range sel.Having {
		idx := -1
		for i, a := range sq.Aggs {
			if a.Func == h.Agg.Func && a.Var == h.Agg.Var && a.Distinct == h.Agg.Distinct {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("HAVING aggregate %s(?%s) must also appear in the SELECT projection", h.Agg.Func, h.Agg.Var)
		}
		sq.Having = append(sq.Having, HavingPred{AggIndex: idx, Op: h.Op, Value: h.Value})
	}
	return sq, nil
}

func (aq *AnalyticalQuery) validate() error {
	// Every outer projection variable must be produced by some subquery.
	produced := map[string]bool{}
	for _, sq := range aq.Subqueries {
		for _, c := range sq.OutputColumns() {
			produced[c] = true
		}
	}
	for _, pi := range aq.Projection {
		if pi.Agg != nil {
			return fmt.Errorf("algebra: aggregates are not allowed in the outer projection")
		}
		if pi.Expr != nil {
			for _, v := range pi.Expr.Vars(nil) {
				if !produced[v] {
					return fmt.Errorf("algebra: outer expression references unknown column ?%s", v)
				}
			}
			continue
		}
		if !produced[pi.Var] {
			return fmt.Errorf("algebra: outer projection references unknown column ?%s", pi.Var)
		}
	}
	out := map[string]bool{}
	for _, c := range aq.OutputColumns() {
		out[c] = true
	}
	for _, k := range aq.OrderBy {
		if !out[k.Var] {
			return fmt.Errorf("algebra: ORDER BY references non-projected column ?%s", k.Var)
		}
	}
	return nil
}

// JoinColumns returns the columns on which subquery i joins with the
// preceding subqueries' combined output: the intersection of its output
// columns with theirs. An empty result means a cross join (e.g. joining a
// GROUP BY ALL subquery's single row).
func (aq *AnalyticalQuery) JoinColumns(i int) []string {
	prior := map[string]bool{}
	for j := 0; j < i; j++ {
		for _, c := range aq.Subqueries[j].OutputColumns() {
			prior[c] = true
		}
	}
	var cols []string
	for _, c := range aq.Subqueries[i].OutputColumns() {
		if prior[c] {
			cols = append(cols, c)
		}
	}
	return cols
}

// OutputColumns returns the analytical query's final column names in
// projection order.
func (aq *AnalyticalQuery) OutputColumns() []string {
	cols := make([]string, len(aq.Projection))
	for i, pi := range aq.Projection {
		cols[i] = pi.Var
	}
	return cols
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
