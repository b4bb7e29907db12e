// Package refimpl is a direct in-memory evaluator for analytical queries:
// BGP matching with bag semantics over the graph read as a set (a repeated
// statement counts once), grouping, aggregation, and the outer
// join/projection. It is the correctness oracle the MapReduce engines are
// tested against, not an evaluated system.
package refimpl

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// Execute evaluates the analytical query directly over the graph.
func Execute(g *rdf.Graph, aq *algebra.AnalyticalQuery) (*engine.Result, error) {
	idx := buildIndex(g)
	subResults := make([][]map[string]string, len(aq.Subqueries))
	for i, sq := range aq.Subqueries {
		rows, err := evalSubquery(idx, sq)
		if err != nil {
			return nil, fmt.Errorf("refimpl: subquery %d: %w", i, err)
		}
		subResults[i] = rows
	}
	return joinAndProject(aq, subResults)
}

// index holds per-property adjacency for fast candidate lookup.
type index struct {
	byProp    map[string][][2]string // prop -> (s, o) pairs, in graph order
	byPropSub map[string][]string    // prop \x00 subject -> objects
	byPropObj map[string][]string    // prop \x00 object -> subjects
	bySub     map[string][][2]string // subject -> (prop, o) pairs
	all       [][3]string            // every (s, prop, o)
}

// buildIndex indexes each distinct statement of g once, at its first
// occurrence: an RDF graph is a set. A repeat has its statement's property
// and subject, so it is found in their object list.
func buildIndex(g *rdf.Graph) *index {
	idx := &index{
		byProp:    map[string][][2]string{},
		byPropSub: map[string][]string{},
		byPropObj: map[string][]string{},
		bySub:     map[string][][2]string{},
	}
	for _, t := range g.Triples {
		p := t.Property.Value
		s, o := t.Subject.Key(), t.Object.Key()
		ps := p + "\x00" + s
		if slices.Contains(idx.byPropSub[ps], o) {
			continue
		}
		idx.byProp[p] = append(idx.byProp[p], [2]string{s, o})
		idx.byPropSub[ps] = append(idx.byPropSub[ps], o)
		idx.byPropObj[p+"\x00"+o] = append(idx.byPropObj[p+"\x00"+o], s)
		idx.bySub[s] = append(idx.bySub[s], [2]string{p, o})
		idx.all = append(idx.all, [3]string{s, p, o})
	}
	return idx
}

// evalSubquery matches the pattern with bag semantics and aggregates per
// group, returning one row per group (columns per sq.OutputColumns).
func evalSubquery(idx *index, sq *algebra.Subquery) ([]map[string]string, error) {
	var tps, opts []sparql.TriplePattern
	for _, st := range sq.Pattern.Stars {
		tps = append(tps, st.Triples...)
		opts = append(opts, st.Optionals...)
	}
	groups := map[string]*algebra.MultiAggState{}
	groupVals := map[string][]string{}
	var order []string

	var ferr error
	match(idx, tps, opts, sq.Pattern.Filters, func(b map[string]string) {
		if ferr != nil {
			return
		}
		keyParts := make([]string, len(sq.GroupBy))
		for i, v := range sq.GroupBy {
			if val, ok := b[v]; ok {
				keyParts[i] = val
			} else {
				keyParts[i] = algebra.Null
			}
		}
		key := strings.Join(keyParts, "\x1f")
		st, ok := groups[key]
		if !ok {
			st = algebra.NewMultiAggState(sq.Aggs)
			groups[key] = st
			groupVals[key] = keyParts
			order = append(order, key)
		}
		for i, a := range sq.Aggs {
			st.States[i].Update(b[a.Var])
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	var rows []map[string]string
	for _, key := range order {
		row := map[string]string{}
		finals := groups[key].Finals()
		if !sq.HavingPassed(finals) {
			continue
		}
		for i, v := range sq.GroupBy {
			row[v] = groupVals[key][i]
		}
		for i, a := range sq.Aggs {
			row[a.As] = finals[i]
		}
		rows = append(rows, row)
	}
	// A GROUP BY ALL subquery over an empty match set still yields one row
	// (SPARQL aggregates without GROUP BY always produce a single group),
	// which is then subject to HAVING like any other group.
	if len(order) == 0 && sq.GroupByAll() {
		row := map[string]string{}
		empty := algebra.NewMultiAggState(sq.Aggs)
		finals := empty.Finals()
		if sq.HavingPassed(finals) {
			for i, a := range sq.Aggs {
				row[a.As] = finals[i]
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// match enumerates BGP solutions with a greedy bound-first pattern order,
// then extends each solution through the OPTIONAL patterns with left-outer
// semantics (unmatched optionals leave their variables unbound).
func match(idx *index, tps, opts []sparql.TriplePattern, filters []sparql.Filter, fn func(map[string]string)) {
	binding := map[string]string{}
	done := make([]bool, len(tps))

	filtersByVar := map[string][]sparql.Filter{}
	for _, f := range filters {
		filtersByVar[f.Var] = append(filtersByVar[f.Var], f)
	}
	passes := func(v, val string) bool {
		for _, f := range filtersByVar[v] {
			ok, err := algebra.EvalFilter(f, val)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}

	var recOpt func(j int)
	recOpt = func(j int) {
		if j == len(opts) {
			fn(binding)
			return
		}
		tp := opts[j]
		sVal := binding[tp.S.Var]
		prop := tp.P.Term.Value
		matched := false
		for _, o := range idx.byPropSub[prop+"\x00"+sVal] {
			if !tp.O.IsVar {
				if o == tp.O.Term.Key() {
					matched = true
					recOpt(j + 1)
				}
				continue
			}
			matched = true
			binding[tp.O.Var] = o
			recOpt(j + 1)
			delete(binding, tp.O.Var)
		}
		if !matched {
			recOpt(j + 1)
		}
	}

	var rec func(remaining int)
	rec = func(remaining int) {
		if remaining == 0 {
			recOpt(0)
			return
		}
		// Pick the most constrained unprocessed pattern: bound subject
		// beats bound/constant object beats unbound.
		best, bestScore := -1, -1
		for i, tp := range tps {
			if done[i] {
				continue
			}
			score := 0
			if _, ok := binding[tp.S.Var]; ok {
				score += 2
			}
			if !tp.O.IsVar {
				score++
			} else if _, ok := binding[tp.O.Var]; ok {
				score += 2
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		tp := tps[best]
		done[best] = true
		defer func() { done[best] = false }()

		if tp.P.IsVar {
			matchUnbound(idx, tp, binding, passes, rec, remaining)
			return
		}
		prop := tp.P.Term.Value
		sVal, sBound := binding[tp.S.Var]
		var oVal string
		oBound := false
		if tp.O.IsVar {
			oVal, oBound = binding[tp.O.Var]
		} else {
			oVal, oBound = tp.O.Term.Key(), true
		}

		// ?s e:knows ?s binds one term: only self-loops match.
		loop := tp.O.IsVar && tp.O.Var == tp.S.Var
		emit := func(s, o string) {
			if loop && s != o {
				return
			}
			setS := !sBound
			setO := tp.O.IsVar && !oBound && !loop
			if setS {
				if !passes(tp.S.Var, s) {
					return
				}
				binding[tp.S.Var] = s
			}
			if setO {
				if !passes(tp.O.Var, o) {
					if setS {
						delete(binding, tp.S.Var)
					}
					return
				}
				binding[tp.O.Var] = o
			}
			rec(remaining - 1)
			if setS {
				delete(binding, tp.S.Var)
			}
			if setO {
				delete(binding, tp.O.Var)
			}
		}

		switch {
		case sBound && oBound:
			for _, o := range idx.byPropSub[prop+"\x00"+sVal] {
				if o == oVal {
					emit(sVal, oVal)
				}
			}
		case sBound:
			for _, o := range idx.byPropSub[prop+"\x00"+sVal] {
				emit(sVal, o)
			}
		case oBound:
			for _, s := range idx.byPropObj[prop+"\x00"+oVal] {
				emit(s, oVal)
			}
		default:
			for _, so := range idx.byProp[prop] {
				emit(so[0], so[1])
			}
		}
	}
	rec(len(tps))
}

// matchUnbound enumerates candidates for an unbound-property pattern,
// binding the property variable (in "I"+IRI key form like other bindings).
func matchUnbound(idx *index, tp sparql.TriplePattern, binding map[string]string,
	passes func(v, val string) bool, rec func(int), remaining int) {
	sVal, sBound := binding[tp.S.Var]
	emit := func(s, p, o string) {
		pv := tp.P.Var
		pKey := "I" + p
		if prev, had := binding[pv]; had && prev != pKey {
			return
		}
		if !tp.O.IsVar && tp.O.Term.Key() != o {
			return
		}
		if !passes(pv, pKey) {
			return
		}
		setS := !sBound
		if setS {
			if !passes(tp.S.Var, s) {
				return
			}
			binding[tp.S.Var] = s
		}
		setP := false
		if _, had := binding[pv]; !had {
			binding[pv] = pKey
			setP = true
		}
		setO := false
		if tp.O.IsVar {
			if prev, had := binding[tp.O.Var]; had {
				if prev != o {
					if setP {
						delete(binding, pv)
					}
					if setS {
						delete(binding, tp.S.Var)
					}
					return
				}
			} else if !passes(tp.O.Var, o) {
				if setP {
					delete(binding, pv)
				}
				if setS {
					delete(binding, tp.S.Var)
				}
				return
			} else {
				binding[tp.O.Var] = o
				setO = true
			}
		}
		rec(remaining - 1)
		if setO {
			delete(binding, tp.O.Var)
		}
		if setP {
			delete(binding, pv)
		}
		if setS {
			delete(binding, tp.S.Var)
		}
	}
	if sBound {
		for _, po := range idx.bySub[sVal] {
			emit(sVal, po[0], po[1])
		}
		return
	}
	for _, spo := range idx.all {
		emit(spo[0], spo[1], spo[2])
	}
}

// joinAndProject joins the subquery results on shared columns and evaluates
// the outer projection — the in-memory analogue of engine.FinalJoinJob.
func joinAndProject(aq *algebra.AnalyticalQuery, sub [][]map[string]string) (*engine.Result, error) {
	acc := sub[0]
	for i := 1; i < len(sub); i++ {
		joinCols := aq.JoinColumns(i)
		idx := map[string][]map[string]string{}
		for _, r := range sub[i] {
			idx[joinKey(r, joinCols)] = append(idx[joinKey(r, joinCols)], r)
		}
		var next []map[string]string
		for _, left := range acc {
			for _, right := range idx[joinKey(left, joinCols)] {
				merged := map[string]string{}
				for k, v := range left {
					merged[k] = v
				}
				for k, v := range right {
					merged[k] = v
				}
				next = append(next, merged)
			}
		}
		acc = next
	}
	res := engine.NewResult(aq)
	for _, row := range acc {
		out := make(codec.Tuple, len(aq.Projection))
		for i, pi := range aq.Projection {
			if pi.Expr != nil {
				v, err := algebra.EvalExpr(pi.Expr, row)
				if err != nil {
					out[i] = algebra.Null
					continue
				}
				out[i] = algebra.FormatNumber(v)
				continue
			}
			v, ok := row[pi.Var]
			if !ok {
				v = algebra.Null
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	if aq.Sorted() {
		raws := make([][]byte, len(res.Rows))
		for i, r := range res.Rows {
			raws[i] = r.Encode()
		}
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		keys := engine.OrderKeys(aq)
		sort.SliceStable(idx, func(a, b int) bool {
			return engine.CompareRows(res.Rows[idx[a]], res.Rows[idx[b]], keys, raws[idx[a]], raws[idx[b]]) < 0
		})
		sorted := make([]codec.Tuple, 0, len(idx))
		for _, i := range idx {
			sorted = append(sorted, res.Rows[i])
		}
		if aq.Limit > 0 && aq.Limit < len(sorted) {
			sorted = sorted[:aq.Limit]
		}
		res.Rows = sorted
	}
	return res, nil
}

func joinKey(row map[string]string, cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = row[c]
	}
	return strings.Join(parts, "\x1f")
}
