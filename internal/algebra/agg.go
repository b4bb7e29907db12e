package algebra

import (
	"strconv"

	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// AggState is the mergeable partial state of one aggregate function. All
// five functions of the analytical subset (COUNT, SUM, AVG, MIN, MAX) are
// algebraic: partial states computed by mappers or combiners merge
// associatively into the final value, which is what makes the paper's
// map-side hash pre-aggregation (Algorithm 3) and Hive's combiners correct.
type AggState struct {
	Func sparql.AggFunc
	// Count is the number of accumulated non-null values.
	Count int64
	// Sum accumulates numeric values for SUM and AVG.
	Sum float64
	// Extreme holds the current MIN/MAX value in lexical form.
	Extreme string
	// Distinct marks SPARQL's set-valued form (COUNT(DISTINCT ?x) etc.):
	// each value contributes once per group. The state then carries the
	// value set, which merges by union — still algebraic, though partial
	// states grow with group cardinality.
	Distinct bool
	// Seen is the distinct-value set (nil unless Distinct).
	Seen map[string]bool
}

// NewAggState returns an empty state for the function.
func NewAggState(fn sparql.AggFunc) *AggState { return &AggState{Func: fn} }

// NewDistinctAggState returns an empty DISTINCT state for the function.
func NewDistinctAggState(fn sparql.AggFunc) *AggState {
	return &AggState{Func: fn, Distinct: true, Seen: map[string]bool{}}
}

// Update folds one bound value, a term key, into the state. NULL values
// are ignored, matching SPARQL aggregate semantics over unbound variables;
// SUM and AVG skip values that are no number (rdf.KeyNumber).
func (s *AggState) Update(value string) {
	if IsNull(value) || value == "" {
		return
	}
	if s.Distinct {
		if s.Seen[value] {
			return
		}
		s.Seen[value] = true
	}
	switch s.Func {
	case sparql.Count:
		s.Count++
	case sparql.Sum, sparql.Avg:
		if f, ok := rdf.KeyNumber(value); ok {
			s.Count++
			s.Sum += f
		}
	case sparql.Min, sparql.Max:
		lex := rdf.KeyLex(value)
		if s.Count == 0 {
			s.Extreme = lex
			s.Count = 1
			return
		}
		s.Count++
		if valueLess(lex, s.Extreme) == (s.Func == sparql.Min) {
			s.Extreme = lex
		}
	}
}

// valueLess orders two lexical values as ORDER BY does (CompareValues).
func valueLess(a, b string) bool { return CompareValues(a, b, false) < 0 }

// Merge folds another partial state for the same function into s.
func (s *AggState) Merge(o *AggState) {
	if s.Distinct {
		// Replay the other side's unseen values; Update maintains the
		// derived fields consistently.
		for v := range o.Seen {
			s.Update(v)
		}
		return
	}
	if o.Count == 0 {
		return
	}
	switch s.Func {
	case sparql.Count:
		s.Count += o.Count
	case sparql.Sum, sparql.Avg:
		s.Count += o.Count
		s.Sum += o.Sum
	case sparql.Min, sparql.Max:
		if s.Count == 0 {
			s.Extreme = o.Extreme
			s.Count = o.Count
			return
		}
		s.Count += o.Count
		if valueLess(o.Extreme, s.Extreme) == (s.Func == sparql.Min) {
			s.Extreme = o.Extreme
		}
	}
}

// Final renders the aggregate's final value in lexical form. Aggregates
// over empty groups follow SPARQL semantics: COUNT is 0, SUM is 0, and
// AVG/MIN/MAX are NULL.
func (s *AggState) Final() string {
	switch s.Func {
	case sparql.Count:
		return strconv.FormatInt(s.Count, 10)
	case sparql.Sum:
		return FormatNumber(s.Sum)
	case sparql.Avg:
		if s.Count == 0 {
			return Null
		}
		return FormatNumber(s.Sum / float64(s.Count))
	default:
		if s.Count == 0 {
			return Null
		}
		return s.Extreme
	}
}

// MultiAggState bundles the states for a subquery's aggregation list — the
// per-group payload of grouping operators across every engine.
type MultiAggState struct {
	States []*AggState
}

// NewMultiAggState returns empty states for the given aggregation specs.
func NewMultiAggState(specs []AggSpec) *MultiAggState {
	m := &MultiAggState{}
	InitMultiAggState(m, specs, make([]*AggState, len(specs)), make([]AggState, len(specs)))
	return m
}

// InitMultiAggState makes m empty states for specs in the caller's
// storage: m.States becomes ptrs, pointing into states, and both must hold
// len(specs) elements. A pre-aggregation table carves many groups' states
// from a few slabs this way.
func InitMultiAggState(m *MultiAggState, specs []AggSpec, ptrs []*AggState, states []AggState) {
	m.States = ptrs
	for i, sp := range specs {
		states[i] = AggState{Func: sp.Func}
		if sp.Distinct {
			states[i].Distinct, states[i].Seen = true, map[string]bool{}
		}
		ptrs[i] = &states[i]
	}
}

// Reset empties every state, keeping the functions and DISTINCT flags, so a
// per-solution partial state can be reused instead of reallocated.
func (m *MultiAggState) Reset() {
	for _, s := range m.States {
		s.Count, s.Sum, s.Extreme = 0, 0, ""
		clear(s.Seen)
	}
}

// Merge folds another multi-state (same spec list) into m.
func (m *MultiAggState) Merge(o *MultiAggState) {
	for i := range m.States {
		m.States[i].Merge(o.States[i])
	}
}

// Finals renders every aggregate's final value.
func (m *MultiAggState) Finals() []string {
	return m.AppendFinals(make([]string, 0, len(m.States)))
}

// AppendFinals appends every aggregate's final value to dst, so a reducer
// renders each group's finals into its own scratch.
func (m *MultiAggState) AppendFinals(dst []string) []string {
	for _, s := range m.States {
		dst = append(dst, s.Final())
	}
	return dst
}
