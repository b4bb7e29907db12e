package tgops

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// preAggRef is the pre-aggregation table as a Go map from the group key
// to a state built by algebra.NewMultiAggState, as TG_AgJ's mapper kept it
// before the flat table: the reference of FuzzPreAggMatchesReference. It
// also records the keys in first-seen order.
type preAggRef struct {
	m      *aggJoinMapper // the specs, the dictionary and the key builder
	groups map[string]*algebra.MultiAggState
	order  []string
}

func (r *preAggRef) solution(slots []string) {
	sp, dict := &r.m.specs[r.m.cur], r.m.sc.dict
	key := r.m.appendAggKey(sp, slots)
	st := r.groups[string(key)]
	if st == nil {
		st = algebra.NewMultiAggState(sp.Aggs)
		r.groups[string(key)] = st
		r.order = append(r.order, string(key))
	}
	for i, slot := range sp.aggSlots {
		st.States[i].UpdateTerm(dict, slotValue(slots, slot))
	}
}

func (r *preAggRef) close(emit mapred.Emit) {
	var enc []byte
	for key, st := range r.groups {
		enc = st.AppendEncode(enc[:0])
		emit(key, enc)
	}
}

// preAggSolution is one solution of a pre-aggregation case: the spec it
// belongs to and its slot values.
type preAggSolution struct {
	spec  int
	slots []string
}

// preAggSlots is the number of slots a case's solutions bind.
const preAggSlots = 5

// decodePreAggCase reads one to three specs — zero to two group slots,
// one to three aggregates of any function, DISTINCT or not, each slot
// possibly unbound — and a solution stream from data. Group values come
// from a pool of keys that are prefixes of each other and of up to 256
// numbered ones; aggregate values are ID-strings of d's numeric and string
// literals, or unbound.
func decodePreAggCase(data []byte, d *rdf.Dict) ([]resolvedAggSpec, []preAggSolution) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	funcs := []sparql.AggFunc{sparql.Count, sparql.Sum, sparql.Avg, sparql.Min, sparql.Max}
	var aggVals []string
	for _, k := range []string{"L1", "L2.5", "L-3", "L10", "Lfoo", "Lbar", "Iiri"} {
		aggVals = append(aggVals, d.AddString(k))
	}
	groupVals := []string{"", "a", "ab", "abc", "\x00", "b"}
	specs := make([]resolvedAggSpec, 1+next(3))
	for i := range specs {
		sp := &specs[i]
		for range next(3) {
			sp.GroupVars = append(sp.GroupVars, "g")
			sp.groupSlots = append(sp.groupSlots, next(preAggSlots+1)-1)
		}
		for range 1 + next(3) {
			sp.Aggs = append(sp.Aggs, algebra.AggSpec{Func: funcs[next(len(funcs))], Var: "v", Distinct: next(2) == 1})
			sp.aggSlots = append(sp.aggSlots, next(preAggSlots+1)-1)
		}
	}
	var sols []preAggSolution
	for len(data) > 0 {
		s := preAggSolution{spec: next(len(specs)), slots: make([]string, preAggSlots)}
		for j := range s.slots {
			switch next(3) {
			case 0:
				s.slots[j] = groupVals[next(len(groupVals))]
			case 1:
				s.slots[j] = "k" + strconv.Itoa(next(256))
			default:
				s.slots[j] = aggVals[next(len(aggVals))]
			}
		}
		sols = append(sols, s)
	}
	return specs, sols
}

// canonicalState returns an encoded multi-state with each DISTINCT
// state's value set sorted: the set's order is a Go map's.
func canonicalState(enc []byte) string {
	parts := bytes.Split(enc, []byte{0x1e})
	for i, p := range parts {
		fields := bytes.Split(p, []byte{0x1f})
		if len(fields) > 4 && string(fields[4]) == "D" {
			slices.SortFunc(fields[5:], bytes.Compare)
		}
		parts[i] = bytes.Join(fields, []byte{0x1f})
	}
	return string(bytes.Join(parts, []byte{0x1e}))
}

// FuzzPreAggMatchesReference folds random solution streams into TG_AgJ's
// flat pre-aggregation table, starting from its smallest size, and into
// the map-keyed reference: Close must emit the reference's (key, encoded
// state) multiset — empty keys, keys that are prefixes of each other,
// DISTINCT aggregates and several specs included — in first-seen order.
func FuzzPreAggMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0})
	f.Add([]byte{2, 1, 0, 2, 1, 1, 3, 0, 2, 1, 2, 4, 1, 3, 0, 0, 1, 2, 1, 0, 1, 2, 1, 2, 0, 2, 1, 2, 1, 1, 1, 2, 0, 1, 0})
	// Three specs of two group slots and three aggregates, one of them
	// DISTINCT, then random solutions: hundreds of groups, so the table
	// grows from its smallest size through several slabs.
	header := []byte{2, 2, 1, 2, 2, 0, 0, 3, 3, 1, 4, 1, 0, 5, 2, 1, 2, 2, 2, 1, 1, 1, 0, 3, 4, 0, 4, 2, 3, 4, 1, 0, 0, 1, 4, 1, 2}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 4000} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
		f.Add(append(header[:len(header):len(header)], data...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := rdf.NewDict()
		specs, sols := decodePreAggCase(data, d)
		sc := &scanner{dict: d}
		m := &aggJoinMapper{sc: sc, specs: specs, multiAggMap: &preAggTable{}}
		ref := &preAggRef{m: &aggJoinMapper{sc: sc, specs: specs}, groups: map[string]*algebra.MultiAggState{}}
		for _, s := range sols {
			m.cur, ref.m.cur = s.spec, s.spec
			m.solution(s.slots)
			ref.solution(s.slots)
		}
		var got, want []string
		var order []string
		if err := m.Close(func(key string, value []byte) {
			order = append(order, strings.Clone(key))
			got = append(got, strconv.Quote(key)+canonicalState(value))
		}); err != nil {
			t.Fatal(err)
		}
		ref.close(func(key string, value []byte) {
			want = append(want, strconv.Quote(key)+canonicalState(value))
		})
		if !slices.Equal(order, ref.order) {
			t.Fatalf("keys emitted in order %q, first seen %q", order, ref.order)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("emits\n%q\nwant\n%q", got, want)
		}
	})
}
