// Package refimpl is the correctness oracle the MapReduce engines are
// tested against, not an evaluated system: it evaluates the parsed query's
// AST with SPARQL's mapping semantics (Schmidt et al.) over a store's ID
// plane, a Dict plus ID triples read as a set. Patterns match on term IDs;
// terms decode only for filters, aggregates and the result rows, which come
// out as the engines write theirs (engine.Result). It reads no algebra
// pattern type, so it shares no structure with the engines' rewrite, only
// the value-level functions: filters, aggregate states, expressions and
// the result order.
package refimpl

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// Execute evaluates q over the statements ts, whose terms are IDs of d.
func Execute(q *sparql.Query, d *rdf.Dict, ts []rdf.IDTriple) (*engine.Result, error) {
	ev := &evaluator{d: d, ts: ts, props: map[uint64]*propIndex{}}
	t, err := ev.selectQuery(q.Select)
	if err != nil {
		return nil, fmt.Errorf("refimpl: %w", err)
	}
	return &engine.Result{Columns: t.cols, Keys: t.keys, Rows: t.rows}, nil
}

// evaluator holds one call's index of ts, built as patterns ask for it:
// each constant property's distinct statements by subject and by object,
// and, for a variable property, all distinct statements by subject.
type evaluator struct {
	d     *rdf.Dict
	ts    []rdf.IDTriple
	props map[uint64]*propIndex
	all   []rdf.IDTriple
}

type propIndex struct{ bySubj, byObj []rdf.IDTriple }

const noTerm = math.MaxUint64 // a constant's ID when no statement holds it

// distinct returns the statements of ts that keep holds, by subject, once.
func distinct(ts []rdf.IDTriple, keep func(rdf.IDTriple) bool) []rdf.IDTriple {
	var out []rdf.IDTriple
	for _, t := range ts {
		if keep(t) {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b rdf.IDTriple) int {
		return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.P, b.P), cmp.Compare(a.O, b.O))
	})
	return slices.Compact(out)
}

// candidates returns the statements that may match pattern p under the
// binding: by subject or object among a constant property's statements,
// by subject among all of them when the property is a variable.
func (g *group) candidates(p [3]node) []rdf.IDTriple {
	ev, s, o := g.ev, g.value(p[0]), g.value(p[2])
	if p[1].slot >= 0 {
		if ev.all == nil {
			ev.all = distinct(ev.ts, func(rdf.IDTriple) bool { return true })
		}
		if s != 0 {
			return run(ev.all, 0, s)
		}
		return ev.all
	}
	pi := ev.props[p[1].id]
	if pi == nil {
		pi = &propIndex{bySubj: distinct(ev.ts, func(t rdf.IDTriple) bool { return t.P == p[1].id })}
		pi.byObj = slices.SortedFunc(slices.Values(pi.bySubj), func(a, b rdf.IDTriple) int {
			return cmp.Or(cmp.Compare(a.O, b.O), cmp.Compare(a.S, b.S))
		})
		ev.props[p[1].id] = pi
	}
	switch {
	case s != 0:
		return run(pi.bySubj, 0, s)
	case o != 0:
		return run(pi.byObj, 2, o)
	}
	return pi.bySubj
}

// run returns the statements of ts, sorted by position i, that hold id there.
func run(ts []rdf.IDTriple, i int, id uint64) []rdf.IDTriple {
	at := func(k int) uint64 { return [3]uint64{ts[k].S, ts[k].P, ts[k].O}[i] }
	lo := sort.Search(len(ts), func(k int) bool { return at(k) >= id })
	hi := sort.Search(len(ts), func(k int) bool { return at(k) > id })
	return ts[lo:hi]
}

// node is a pattern position: a variable's slot, or (slot -1) a term ID.
type node struct {
	slot int
	id   uint64
}

// group is one group graph pattern compiled against the dictionary: its
// variables are slots of one binding of term IDs, 0 while unbound.
type group struct {
	ev       *evaluator
	vars     []string
	required [][3]node // subject, property, object
	optional [][][3]node
	after    []int // how many required patterns precede each optional block
	// filters holds per slot the filters on its variable, checked as a
	// pattern binds it; an unbound variable fails them, so a solution
	// leaving one unbound is dropped.
	filters map[int][]sparql.Filter
	vals    []uint64
	undo    []int
	row     codec.Tuple
}

func (ev *evaluator) compile(p *sparql.GroupGraphPattern) *group {
	g := &group{ev: ev}
	slot := func(v string) int {
		if !slices.Contains(g.vars, v) {
			g.vars = append(g.vars, v)
		}
		return slices.Index(g.vars, v)
	}
	patterns := func(tps []sparql.TriplePattern) [][3]node {
		ps := make([][3]node, len(tps))
		for i, tp := range tps {
			for j, n := range [3]sparql.Node{tp.S, tp.P, tp.O} {
				ps[i][j] = node{slot: -1, id: noTerm}
				if n.IsVar {
					ps[i][j].slot = slot(n.Var)
				} else if id, ok := ev.d.Lookup(n.Term.Key()); ok {
					ps[i][j].id = id
				}
			}
		}
		return ps
	}
	g.required = patterns(p.Triples)
	for _, block := range p.Optionals {
		g.optional, g.after = append(g.optional, patterns(block.Triples)), append(g.after, block.After)
	}
	g.filters = map[int][]sparql.Filter{}
	for _, f := range p.Filters {
		g.filters[slot(f.Var)] = append(g.filters[slot(f.Var)], f) // also a variable no pattern binds
	}
	g.vals, g.row = make([]uint64, len(g.vars)), make(codec.Tuple, len(g.vars), len(g.vars)+1)
	return g
}

// solutions calls fn with each solution of the group as a row of term keys
// over g.vars, NULL where unbound, that the next solution overwrites: the
// group read left to right as SPARQL reads it, { P1 OPTIONAL { O } P2 }
// being Join(LeftJoin(P1, O), P2), that every filter holds on. A required
// pattern's binding is filtered as it binds, since the solution keeps it;
// an OPTIONAL block's extension is filtered once the block matched, so an
// extension the filters drop still counts as the block's match.
func (g *group) solutions(fn func(codec.Tuple)) {
	var step func(k, from int)
	step = func(k, from int) {
		to := len(g.required)
		if k < len(g.optional) {
			to = g.after[k]
		}
		g.match(g.required[from:to], 0, true, func() {
			if k == len(g.optional) {
				g.emit(fn)
				return
			}
			found, mark := false, len(g.undo)
			g.match(g.optional[k], 0, false, func() {
				if found = true; g.holds(g.undo[mark:]) {
					step(k+1, to)
				}
			})
			if !found {
				step(k+1, to)
			}
		})
	}
	step(0, 0)
}

// emit calls fn with the binding as a row, unless it leaves a filtered
// variable unbound.
func (g *group) emit(fn func(codec.Tuple)) {
	for i, id := range g.vals {
		if g.row[i] = algebra.Null; id != 0 {
			g.row[i], _ = g.ev.d.Key(id)
		} else if len(g.filters[i]) > 0 {
			return
		}
	}
	fn(g.row)
}

// match calls fn with each extension of the binding by patterns ps[k:]:
// the most bound one first, moved to ps[k] meanwhile, unified with each of
// its candidate statements position by position, and, when filter is set,
// dropped as soon as a variable it binds fails its filters.
func (g *group) match(ps [][3]node, k int, filter bool, fn func()) {
	if k == len(ps) {
		fn()
		return
	}
	best := k
	for i := k + 1; i < len(ps); i++ {
		if g.score(ps[i]) > g.score(ps[best]) {
			best = i
		}
	}
	ps[k], ps[best] = ps[best], ps[k]
	p := ps[k]
	for _, t := range g.candidates(p) {
		mark := len(g.undo)
		if g.unify(p[0], t.S) && g.unify(p[1], t.P) && g.unify(p[2], t.O) && (!filter || g.holds(g.undo[mark:])) {
			g.match(ps, k+1, filter, fn)
		}
		for _, s := range g.undo[mark:] {
			g.vals[s] = 0
		}
		g.undo = g.undo[:mark]
	}
	ps[k], ps[best] = ps[best], ps[k]
}

// value returns the term ID n holds, 0 while unbound.
func (g *group) value(n node) uint64 {
	if n.slot < 0 {
		return n.id
	}
	return g.vals[n.slot]
}

func (g *group) score(p [3]node) uint64 {
	return 2*min(g.value(p[0]), 1) + min(g.value(p[1]), 1) + 2*min(g.value(p[2]), 1)
}

// unify binds n to id, noted for undoing, or checks that it holds id
// already.
func (g *group) unify(n node, id uint64) bool {
	if v := g.value(n); v != 0 {
		return v == id
	}
	g.vals[n.slot] = id
	g.undo = append(g.undo, n.slot)
	return true
}

// holds reports whether the variables of slots pass their filters.
func (g *group) holds(slots []int) bool {
	for _, slot := range slots {
		if fs := g.filters[slot]; len(fs) > 0 {
			key, _ := g.ev.d.Key(g.vals[slot])
			for _, f := range fs {
				if ok, err := algebra.EvalFilter(f, key); err != nil || !ok {
					return false
				}
			}
		}
	}
	return true
}

// table is a solution sequence in the engines' result format: keys says
// per column whether it holds term keys or lexical values; NULL is unbound.
type table struct {
	cols []string
	keys []bool
	rows []codec.Tuple
}

func (ev *evaluator) selectQuery(sel *sparql.SelectQuery) (*table, error) {
	p, src := sel.Pattern, table{rows: []codec.Tuple{{}}}
	each := func(fn func(codec.Tuple)) {
		for _, r := range src.rows {
			fn(r)
		}
	}
	if len(p.SubSelects) > 0 && len(p.Triples)+len(p.Optionals)+len(p.Filters) > 0 {
		return nil, errors.New("a group of sub-SELECTs and other patterns is not supported")
	}
	for _, sub := range p.SubSelects {
		t, err := ev.selectQuery(sub)
		if err != nil {
			return nil, err
		}
		src = join(src, *t)
	}
	if len(p.SubSelects) == 0 {
		g := ev.compile(p)
		src, each = table{cols: g.vars, keys: slices.Repeat([]bool{true}, len(g.vars))}, g.solutions
	}
	out, err := project(sel, src, each)
	if err == nil && len(sel.OrderBy)+sel.Limit > 0 {
		order(sel, out)
	}
	return out, err
}

// join returns the compatible pairs of a's and b's solutions, merged:
// each shared column holds equal values, or NULL on one side, which the
// other side's value fills.
func join(a, b table) table {
	out := table{cols: slices.Clone(a.cols), keys: slices.Clone(a.keys)}
	at := make([]int, len(b.cols)) // b's columns in out
	for j, c := range b.cols {
		if at[j] = slices.Index(a.cols, c); at[j] < 0 {
			at[j], out.cols, out.keys = len(out.cols), append(out.cols, c), append(out.keys, b.keys[j])
		}
	}
	for _, l := range a.rows {
	next:
		for _, r := range b.rows {
			for j, v := range r {
				if i := at[j]; i < len(l) && v != l[i] && !algebra.IsNull(v) && !algebra.IsNull(l[i]) {
					continue next
				}
			}
			m := append(make(codec.Tuple, 0, len(out.cols)), l...)[:len(out.cols)]
			for j, v := range r {
				if i := at[j]; i >= len(l) || algebra.IsNull(m[i]) {
					m[i] = v
				}
			}
			out.rows = append(out.rows, m)
		}
	}
	return out
}

// project evaluates sel's projection over the solutions each yields, whose
// columns src describes: per group, after HAVING, when sel groups or
// aggregates, and per solution otherwise.
func project(sel *sparql.SelectQuery, src table, each func(func(codec.Tuple))) (*table, error) {
	out, keys := &table{}, map[string]bool{} // keys: the columns expressions read as term keys
	for i, v := range src.cols {
		keys[v] = src.keys[i]
	}
	var aggs []algebra.AggSpec // the projection's, then HAVING's
	for _, pi := range sel.Projection {
		out.cols = append(out.cols, pi.Var)
		out.keys = append(out.keys, pi.Agg == nil && pi.Expr == nil && (keys[pi.Var] || !slices.Contains(src.cols, pi.Var)))
		if pi.Agg != nil {
			aggs, keys[pi.Var] = append(aggs, algebra.AggSpec{Func: pi.Agg.Func, Var: pi.Agg.Var, Distinct: pi.Agg.Distinct}), false
		}
	}
	for _, h := range sel.Having {
		aggs = append(aggs, algebra.AggSpec{Func: h.Agg.Func, Var: h.Agg.Var, Distinct: h.Agg.Distinct})
	}
	// A plain SELECT makes each solution a group of its own, keyed by its
	// number and holding all of its columns.
	grouped, by := len(sel.GroupBy)+len(aggs) > 0, src.cols
	if grouped {
		by = sel.GroupBy
	}
	// A variable src lacks reads the NULL each row gets past its columns.
	column := func(v string) int { return cmp.Or(slices.Index(src.cols, v)+1, len(src.cols)+1) - 1 }
	gpos, apos := make([]int, len(by)), make([]int, len(aggs))
	for i, v := range by {
		gpos[i] = column(v)
	}
	for i, a := range aggs {
		if apos[i] = column(a.Var); apos[i] < len(src.cols) && !src.keys[apos[i]] {
			return nil, fmt.Errorf("an aggregate over ?%s, which no pattern binds, is not supported", a.Var)
		}
	}
	type grp struct {
		vals []string
		*algebra.MultiAggState
	}
	newGroup := func() *grp { return &grp{make([]string, len(by)), algebra.NewMultiAggState(aggs)} }
	var groups []*grp
	byKey, kb := map[string]*grp{}, []byte(nil)
	each(func(row codec.Tuple) {
		row, kb = append(row, algebra.Null), kb[:0]
		if !grouped {
			kb = binary.AppendUvarint(kb, uint64(len(groups)))
		}
		for _, i := range gpos {
			kb = append(binary.AppendUvarint(kb, uint64(len(row[i]))), row[i]...)
		}
		gr := byKey[string(kb)]
		if gr == nil {
			gr = newGroup()
			for j, i := range gpos {
				gr.vals[j] = row[i]
			}
			byKey[string(kb)] = gr
			groups = append(groups, gr)
		}
		for j, st := range gr.States {
			st.Update(row[apos[j]])
		}
	})
	if len(groups) == 0 && grouped && len(by) == 0 {
		groups = append(groups, newGroup()) // aggregates without GROUP BY form one group
	}
	nproj := len(aggs) - len(sel.Having)
next:
	for _, gr := range groups {
		finals := gr.Finals()
		for j, h := range sel.Having {
			if !algebra.HavingHolds(finals[nproj+j], h.Op, h.Value) {
				continue next
			}
		}
		env, j := map[string]string{}, 0
		for i, v := range by {
			env[v] = gr.vals[i]
		}
		for _, pi := range sel.Projection {
			if pi.Agg != nil {
				env[pi.Var], j = finals[j], j+1
			}
		}
		row := make(codec.Tuple, len(sel.Projection))
		for i, pi := range sel.Projection {
			v, ok := env[pi.Var]
			if pi.Expr != nil {
				f, err := algebra.EvalExpr(pi.Expr, env, keys)
				v, ok = algebra.FormatNumber(f), err == nil
			}
			if row[i] = v; !ok {
				row[i] = algebra.Null
			}
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// order sorts t by sel's ORDER BY keys and cuts it at its LIMIT, breaking
// ties by the encoded row as the engines do (engine.CompareRows). A key
// that names no column of t orders nothing; Compile rejects such a query.
func order(sel *sparql.SelectQuery, t *table) {
	keys := make([]engine.OrderKey, len(sel.OrderBy))
	for i, k := range sel.OrderBy {
		c := slices.Index(t.cols, k.Var)
		keys[i] = engine.OrderKey{Col: c, Desc: k.Desc, Key: c >= 0 && t.keys[c]}
	}
	sort.SliceStable(t.rows, func(i, j int) bool {
		a, b := t.rows[i], t.rows[j]
		return engine.CompareRows(a, b, keys, a.Encode(), b.Encode()) < 0
	})
	t.rows = t.rows[:min(len(t.rows), cmp.Or(sel.Limit, len(t.rows)))]
}
