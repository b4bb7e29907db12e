// Package tgops provides the NTGA physical operators as MapReduce jobs:
// TG_OptGrpFilter-fused triplegroup scans, TG_AlphaJoin (Algorithm 2), and
// TG_AgJ with map-side hash pre-aggregation (Algorithm 3). Both NTGA
// engines — RAPID+ (Naive) and RAPIDAnalytics — compose their workflows
// from these builders.
//
// Every operator runs on dictionary-encoded records: triplegroup fields are
// uvarint ID-strings of the dataset's rdf.Dict (Source.Dict). Query-space
// constants — property references, triple patterns, the α table — are
// resolved through the dictionary once at job-build or task-start time
// (TG_AgJ's patterns into an ntga.Matcher, its variables into slot
// indexes), shuffle keys are separator-free concatenations of
// self-delimiting IDs, and values decode back to lexical Term.Key form only
// at the final aggregation boundary, where result rows are emitted.
//
// Scratch ownership: a map task owns the storage its records decode into
// (scanner) and reuses it, so a decoded triplegroup is valid until the next
// record. The α-join reducer decodes nothing: it holds offsets into its key
// group's values, reset per key. mapred copies every emit before it
// returns, so mappers and reducers alike encode what they emit into one
// reused buffer.
package tgops

import (
	"fmt"
	"slices"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// PropFilter applies a FILTER constraint at triplegroup level: triples of
// Prop whose objects fail the filter are removed (bindings over the
// remaining triples implement per-solution filter semantics).
type PropFilter struct {
	Prop   string        // the filtered property's IRI
	Filter sparql.Filter // the constraint its objects must pass
}

// ScanSpec describes a TG_OptGrpFilter-fused scan of raw triplegroup files
// for one (composite) star: project to Prim ∪ Opt, require all of Prim,
// apply property-level filters. References are query-space; the scan
// resolves them through the source's dictionary per task.
type ScanSpec struct {
	Star    int               // the star's index, its annotation in the output
	Prim    []algebra.PropRef // primary properties, all required
	Opt     []algebra.PropRef // secondary properties, kept when present
	Filters []PropFilter      // triple-level FILTER constraints
	// KeepAll skips the projection onto Prim ∪ Opt: the star contains an
	// unbound-property pattern, so every triple of the subject is relevant.
	KeepAll bool
}

// Source is a job input: either raw triplegroup files with a scan spec, or
// an intermediate file of annotated (joined) triplegroups.
type Source struct {
	Files []string // the DFS files the job reads
	// Scan is non-nil for raw triplegroup inputs.
	Scan *ScanSpec
	// Dict is the dataset's dictionary: records are ID-encoded and
	// constants resolve through it. Required by every job builder.
	Dict *rdf.Dict
}

// planeFilter is a PropFilter with its property resolved to an ID-string.
type planeFilter struct {
	prop   string
	filter sparql.Filter
}

// scanner is a Source with its constants resolved, built once per map task
// so per-record matching is free of dictionary lookups, and the task's
// decode scratch: every record decodes into the same storage.
type scanner struct {
	dict *rdf.Dict
	scan *ScanSpec
	prim []ntga.Ref
	// refs is prim ∪ opt, the σ^γopt projection list.
	refs    []ntga.Ref
	filters []planeFilter

	// arena backs the decoded record, proj the projected triples and ann
	// the result; all three are overwritten by the next annTGOf call.
	arena ntga.Arena
	proj  []ntga.PO
	ann   ntga.AnnTG
}

// scanner resolves the source's query-space constants through its
// dictionary.
func (s *Source) scanner() *scanner {
	sc := &scanner{dict: s.Dict, scan: s.Scan}
	if s.Scan != nil {
		sc.prim = ntga.ResolveRefs(s.Scan.Prim, s.Dict)
		sc.refs = append(sc.prim[:len(sc.prim):len(sc.prim)], ntga.ResolveRefs(s.Scan.Opt, s.Dict)...)
		for _, pf := range s.Scan.Filters {
			sc.filters = append(sc.filters, planeFilter{prop: s.Dict.KeyString("I" + pf.Prop), filter: pf.Filter})
		}
	}
	return sc
}

// lexOf translates an ID-string to lexical form for filter evaluation.
func (sc *scanner) lexOf(v string) string {
	lex, ok := sc.dict.Lex(v)
	if !ok {
		return ""
	}
	return lex
}

// annTGOf decodes one record of the source into an annotated triplegroup.
// Raw triplegroups pass through TG_OptGrpFilter first; the second result is
// false when the record is filtered out. The result lives in the scanner's
// scratch and is valid until the next annTGOf call: a mapper must finish
// with it — encode it, extract its keys, enumerate its solutions — before
// it returns from Map.
func (sc *scanner) annTGOf(rec []byte) (*ntga.AnnTG, bool, error) {
	sc.arena.Reset()
	if sc.scan == nil {
		a, err := sc.arena.DecodeAnnTGIDs(rec, sc.dict)
		if err != nil {
			return nil, false, err
		}
		sc.ann = a
		return &sc.ann, true, nil
	}
	tg, rest, err := sc.arena.DecodeTripleGroupIDs(rec, sc.dict)
	if err != nil {
		return nil, false, err
	}
	if len(rest) != 0 {
		// malformed input ends the task; not a per-record path
		return nil, false, fmt.Errorf("tgops: %d trailing bytes after triplegroup", len(rest))
	}
	// σ^γopt (Definition 3.3): every primary property must be matched.
	if !tg.HasAllRefs(sc.prim) {
		return nil, false, nil
	}
	// An unbound-property star keeps every triple; any other is projected
	// onto prim ∪ opt.
	if !sc.scan.KeepAll {
		sc.proj = tg.AppendProjectRefs(sc.proj[:0], sc.refs)
		tg.Triples = sc.proj
	}
	if len(sc.filters) > 0 && !sc.applyPropFilters(&tg) {
		return nil, false, nil
	}
	sc.ann.Stars = append(sc.ann.Stars[:0], sc.scan.Star)
	sc.ann.TGs = append(sc.ann.TGs[:0], tg)
	return &sc.ann, true, nil
}

// applyPropFilters drops, in place, triples whose objects fail a filter;
// the triplegroup survives only if every primary property retains at least
// one triple.
func (sc *scanner) applyPropFilters(tg *ntga.TripleGroup) bool {
	kept := tg.Triples[:0]
	for _, po := range tg.Triples {
		keep := true
		for _, pf := range sc.filters {
			if pf.prop != po.Prop {
				continue
			}
			ok, err := algebra.EvalFilter(pf.filter, sc.lexOf(po.Obj))
			if err != nil || !ok {
				keep = false
				break
			}
		}
		if keep {
			kept = append(kept, po)
		}
	}
	tg.Triples = kept
	return tg.HasAllRefs(sc.prim)
}

// Endpoint designates where a join variable lives in an annotated
// triplegroup: the subject of a star, or the objects of carrying properties
// within a star.
type Endpoint struct {
	Star  int               // the star the variable lives in
	Role  algebra.Role      // subject, or object of Props
	Props []algebra.PropRef // the carrying properties of an object endpoint
}

// planeProps resolves the endpoint's carrying properties to ID-strings
// through d.
func (ep Endpoint) planeProps(d *rdf.Dict) []string {
	props := make([]string, len(ep.Props))
	for i, ref := range ep.Props {
		props[i] = d.KeyString("I" + ref.Prop)
	}
	return props
}

// appendJoinKeys appends the distinct join key values at an endpoint to dst
// — one per matching object for multi-valued join properties (Algorithm 2's
// objList). props are the endpoint's resolved carrying properties
// (planeProps). The keys come out sorted: one record's keys are distinct,
// so they land in different reduce groups and their order among themselves
// reaches no output.
func appendJoinKeys(dst []string, a *ntga.AnnTG, ep Endpoint, props []string) []string {
	comp, ok := a.Component(ep.Star)
	if !ok {
		return dst
	}
	if ep.Role == algebra.RoleSubject {
		return append(dst, comp.Subject)
	}
	start := len(dst)
	for _, prop := range props {
		for _, t := range comp.Triples {
			if t.Prop == prop {
				dst = append(dst, t.Obj)
			}
		}
	}
	if len(dst)-start > 1 {
		slices.Sort(dst[start:])
		dst = dst[:start+len(slices.Compact(dst[start:]))]
	}
	return dst
}

// JoinSide couples an input source with its join endpoint.
type JoinSide struct {
	Src Source   // the side's input
	Ep  Endpoint // where the side's join key lives
}

// AlphaJoinJob builds the TG_AlphaJoin cycle (Algorithm 2): both sides are
// tagged on their join keys and joined reduce-side; the joined triplegroup
// is materialised only if it satisfies at least one original pattern's α
// condition. A nil α table disables the check (RAPID+'s plain TG_Join, and
// the α-ablation of RAPIDAnalytics). The table must be resolved through the
// sources' dictionary (ntga.ResolveAlpha).
func AlphaJoinJob(name string, left, right JoinSide, alpha *ntga.AlphaTable, output string) *mapred.Job {
	var inputs []string
	seen := map[string]bool{}
	for _, f := range append(append([]string{}, left.Src.Files...), right.Src.Files...) {
		if !seen[f] {
			seen[f] = true
			inputs = append(inputs, f)
		}
	}
	inFiles := func(files []string, name string) bool {
		for _, f := range files {
			if f == name {
				return true
			}
		}
		return false
	}
	dict := left.Src.Dict
	return &mapred.Job{
		Name:           name,
		Inputs:         inputs,
		Output:         output,
		Partitions:     mapred.DefaultPartitions,
		MapOperator:    "TG_OptGrpFilter",
		ReduceOperator: "TG_AlphaJoin",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			m := &alphaJoinMapper{}
			if inFiles(left.Src.Files, tc.InputFile) {
				m.sides = append(m.sides, alphaJoinSide{sc: left.Src.scanner(), ep: left.Ep, props: left.Ep.planeProps(left.Src.Dict), tag: 0})
			}
			if inFiles(right.Src.Files, tc.InputFile) {
				m.sides = append(m.sides, alphaJoinSide{sc: right.Src.scanner(), ep: right.Ep, props: right.Ep.planeProps(right.Src.Dict), tag: 1})
			}
			return m
		},
		NewReducer: func() mapred.Reducer {
			return &alphaJoinReducer{alpha: alpha, dict: dict}
		},
	}
}

// alphaJoinSide is one join side an α-join map task reads its file for.
type alphaJoinSide struct {
	sc    *scanner
	ep    Endpoint
	props []string
	tag   byte
}

// alphaJoinMapper tags each side's triplegroups on their join keys.
type alphaJoinMapper struct {
	sides []alphaJoinSide
	// keys is per-task scratch for one record's join keys, enc for the
	// record's tagged encoding.
	keys []string
	enc  []byte
}

func (m *alphaJoinMapper) Map(rec []byte, emit mapred.Emit) error {
	for i := range m.sides {
		s := &m.sides[i]
		a, ok, err := s.sc.annTGOf(rec)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		m.keys = appendJoinKeys(m.keys[:0], a, s.ep, s.props)
		if len(m.keys) == 0 {
			continue
		}
		// One tagged encode per record, emitted under each of its join
		// keys.
		m.enc = a.AppendEncodeIDs(append(m.enc[:0], s.tag))
		for _, key := range m.keys {
			emit(key, m.enc)
		}
	}
	return nil
}

// alphaJoinReducer is the symmetric (streaming) formulation: one pass over
// the group, pairing each arriving triplegroup with every earlier arrival
// of the other side, so joined groups are emitted as soon as the later
// element arrives instead of after buffering the whole group. Each (l, r)
// pair is emitted exactly once; deterministic given the shuffle's fixed
// value order, and downstream TG_AgJ aggregation is order-insensitive.
//
// Nothing is decoded: each value is parsed once into component spans, α's
// pattern set is computed once per value, a pair is admitted when its
// sides' sets meet, and the output record is spliced from the two values'
// bytes (ntga.AppendJoinIDs).
type alphaJoinReducer struct {
	alpha *ntga.AlphaTable
	dict  *rdf.Dict
	// spans holds the key group's component spans, pats its values' pattern
	// sets, ls and rs its values per side. All four are offsets into the
	// group's values, reset per key, so no group's bytes outlive its Reduce
	// call here. out is the encode buffer, reused because the framework
	// copies every reduce emit.
	spans  []ntga.CompSpan
	pats   []uint64
	ls, rs []joinValue
	out    []byte
}

// joinValue is one value of the α-join reducer's key group: values[v]
// holds it behind its side tag, spans[lo:hi] are its components and
// pats[pat:] starts its pattern set.
type joinValue struct {
	v, lo, hi, pat int
}

// pair emits the join of l and r when α admits it: their pattern sets
// meet.
func (red *alphaJoinReducer) pair(values [][]byte, l, r *joinValue, emit mapred.Emit) {
	if red.alpha != nil {
		w := red.alpha.PatternWords()
		if !ntga.PatternSetsMeet(red.pats[l.pat:l.pat+w], red.pats[r.pat:r.pat+w]) {
			return
		}
	}
	red.out = ntga.AppendJoinIDs(red.out[:0], values[l.v][1:], red.spans[l.lo:l.hi], values[r.v][1:], red.spans[r.lo:r.hi])
	emit("", red.out)
}

func (red *alphaJoinReducer) Reduce(key string, values [][]byte, emit mapred.Emit) error {
	red.spans, red.pats = red.spans[:0], red.pats[:0]
	red.ls, red.rs = red.ls[:0], red.rs[:0]
	maxID := uint64(red.dict.Len())
	for i, v := range values {
		if len(v) < 1 {
			return fmt.Errorf("tgops: empty α-join value")
		}
		jv := joinValue{v: i, lo: len(red.spans), pat: len(red.pats)}
		var err error
		if red.spans, err = ntga.AppendAnnTGSpans(red.spans, v[1:], maxID); err != nil {
			return err
		}
		jv.hi = len(red.spans)
		if red.alpha != nil {
			if red.pats, err = red.alpha.AppendPatternSet(red.pats, v[1:], red.spans[jv.lo:jv.hi]); err != nil {
				return err
			}
		}
		if v[0] == 0 {
			for j := range red.rs {
				red.pair(values, &jv, &red.rs[j], emit)
			}
			red.ls = append(red.ls, jv)
		} else {
			for j := range red.ls {
				red.pair(values, &red.ls[j], &jv, emit)
			}
			red.rs = append(red.rs, jv)
		}
	}
	return nil
}

// AggJoinSpec is one grouping-aggregation requirement evaluated by a TG_AgJ
// cycle: the spec's α condition, the triple patterns whose bindings feed
// the grouping and aggregation variables, and the aggregation list.
type AggJoinSpec struct {
	// GroupVars are the grouping variables (composite names; empty = ALL).
	GroupVars []string
	// Aggs are the aggregations (Var in composite names).
	Aggs []algebra.AggSpec
	// TPs are the original pattern's canonical triple patterns per star.
	TPs map[int][]sparql.TriplePattern
	// OptTPs are the pattern's OPTIONAL triple patterns per star.
	OptTPs map[int][]sparql.TriplePattern
	// Alpha gates which triplegroups contribute (nil accepts all) —
	// Figure 5's "pf ≠ ∅". The annotated triplegroup's fields are
	// ID-strings.
	Alpha func(*ntga.AnnTG) bool
	// Having drops groups whose final aggregate values fail the predicate
	// (nil keeps all).
	Having func([]string) bool
	// BindingFilters are FILTER constraints evaluated per solution (used
	// for variables of unbound-property patterns, where triple-level
	// pushdown would drop triples other patterns need).
	BindingFilters []sparql.Filter
}

// resolvedAggSpec is an AggJoinSpec compiled for one job: its triple
// patterns resolved through the source's dictionary into a matcher, and the
// variables the mapper reads per solution resolved to the matcher's slots
// (-1 for a variable no pattern mentions, which is unbound in every
// solution).
type resolvedAggSpec struct {
	AggJoinSpec
	matcher     *ntga.Matcher
	groupSlots  []int // parallel to GroupVars
	aggSlots    []int // parallel to Aggs
	filterSlots []int // parallel to BindingFilters
}

// resolveAggSpec compiles sp against d.
func resolveAggSpec(sp AggJoinSpec, d *rdf.Dict) resolvedAggSpec {
	r := resolvedAggSpec{
		AggJoinSpec: sp,
		matcher:     ntga.CompileMatcher(ntga.ResolveTPMap(sp.TPs, d), ntga.ResolveTPMap(sp.OptTPs, d)),
	}
	for _, g := range sp.GroupVars {
		r.groupSlots = append(r.groupSlots, r.matcher.Slot(g))
	}
	for _, ag := range sp.Aggs {
		r.aggSlots = append(r.aggSlots, r.matcher.Slot(ag.Var))
	}
	for _, f := range sp.BindingFilters {
		r.filterSlots = append(r.filterSlots, r.matcher.Slot(f.Var))
	}
	return r
}

// slotValue returns a solution's value for a resolved slot: the bound
// ID-string, "" when unbound.
func slotValue(slots []string, slot int) string {
	if slot < 0 {
		return ""
	}
	return slots[slot]
}

// AggJoinJob builds the TG_AgJ cycle (Algorithm 3). With several specs it
// is the generalised operator of Figure 6(b): all aggregations evaluate in
// parallel within one cycle, keyed by the spec's index followed by the
// group values. With hashAgg the mapper pre-aggregates into a task-wide
// hash map flushed at Map.clean(); otherwise per-solution partial states
// are merged by a combiner.
//
// Output rows are [group values..., finals...] for one spec, and [spec
// index, group values..., finals...] for several — the two layouts
// engine.FinishQuery reads. Rows are lexical: the reducer, the engines'
// shared aggregation merger, is the decode boundary.
func AggJoinJob(name string, src Source, specs []AggJoinSpec, hashAgg bool, output string) *mapred.Job {
	resolved := make([]resolvedAggSpec, len(specs))
	groupings := make([]engine.Grouping, len(specs))
	for i, sp := range specs {
		resolved[i] = resolveAggSpec(sp, src.Dict)
		groupings[i] = engine.Grouping{Aggs: sp.Aggs, Having: sp.Having}
	}
	return &mapred.Job{
		Name:           name,
		Inputs:         src.Files,
		Output:         output,
		Partitions:     mapred.DefaultPartitions,
		MapOperator:    "TG_AgJ.map",
		ReduceOperator: "TG_AgJ.reduce",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return newAggJoinMapper(src.scanner(), resolved, hashAgg)
		},
		NewCombiner: func() mapred.Reducer { return engine.NewAggMerger(groupings, nil) },
		NewReducer:  func() mapred.Reducer { return engine.NewAggMerger(groupings, src.Dict) },
	}
}

// aggJoinMapper is one TG_AgJ map task. Everything it touches per record —
// the scanner's decode scratch, one matching state per spec, the key buffer
// and, without hash aggregation, one partial state per spec — is allocated
// when the task starts and reused (map tasks are single-goroutine).
type aggJoinMapper struct {
	sc    *scanner
	specs []resolvedAggSpec
	// states holds each spec's matching state; all report to solution.
	states []*ntga.MatchState
	// cur indexes the spec being matched and emit is the current Map
	// call's sink: solution's context, set by Map.
	cur  int
	emit mapred.Emit
	// keyBuf is scratch for key building, enc for state encoding.
	keyBuf, enc []byte
	// multiAggMap is the mapper-wide pre-aggregation table (Algorithm 3);
	// nil disables hash aggregation, and partial then holds each spec's
	// per-solution state, reset before every solution.
	multiAggMap map[string]*algebra.MultiAggState
	partial     []*algebra.MultiAggState
}

func newAggJoinMapper(sc *scanner, specs []resolvedAggSpec, hashAgg bool) *aggJoinMapper {
	m := &aggJoinMapper{sc: sc, specs: specs, states: make([]*ntga.MatchState, len(specs))}
	// One method value for the task, not a closure per record and spec.
	onSolution := m.solution
	for i := range specs {
		m.states[i] = specs[i].matcher.NewState(onSolution)
	}
	if hashAgg {
		m.multiAggMap = map[string]*algebra.MultiAggState{}
	} else {
		m.partial = make([]*algebra.MultiAggState, len(specs))
		for i := range specs {
			m.partial[i] = algebra.NewMultiAggState(specs[i].Aggs)
		}
	}
	return m
}

// appendAggKey builds the shuffle key for one solution of the current spec
// in keyBuf: the uvarint spec index when the job has several specs,
// followed by the group values' self-delimiting ID bytes, with no
// separators (ID bytes may contain 0x1f).
func (m *aggJoinMapper) appendAggKey(sp *resolvedAggSpec, slots []string) []byte {
	buf := m.keyBuf[:0]
	if len(m.specs) > 1 {
		buf = codec.AppendUvarint(buf, uint64(m.cur))
	}
	for _, g := range sp.groupSlots {
		if v := slotValue(slots, g); v != "" {
			buf = append(buf, v...)
		} else {
			buf = append(buf, algebra.Null...)
		}
	}
	m.keyBuf = buf
	return buf
}

func (m *aggJoinMapper) Map(rec []byte, emit mapred.Emit) error {
	a, ok, err := m.sc.annTGOf(rec)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	m.emit = emit
	for i := range m.specs {
		sp := &m.specs[i]
		if sp.Alpha != nil && !sp.Alpha(a) {
			continue
		}
		m.cur = i
		m.states[i].Match(a)
	}
	return nil
}

// solution folds one solution of the current spec into the pre-aggregation
// table, or emits it as a one-solution partial state for the combiner.
func (m *aggJoinMapper) solution(slots []string) {
	sp, dict := &m.specs[m.cur], m.sc.dict
	for i, f := range sp.BindingFilters {
		v, _ := dict.Lex(slotValue(slots, sp.filterSlots[i]))
		ok, err := algebra.EvalFilter(f, v)
		if err != nil || !ok {
			return
		}
	}
	key := m.appendAggKey(sp, slots)
	hashAgg := m.multiAggMap != nil
	var st *algebra.MultiAggState
	if hashAgg {
		// a map index by string(bytes) does not allocate
		st = m.multiAggMap[string(key)]
		if st == nil {
			st = algebra.NewMultiAggState(sp.Aggs)
			// once per group key and task: the table's key must be a string
			m.multiAggMap[string(key)] = st
		}
	} else {
		st = m.partial[m.cur]
		st.Reset()
	}
	for i, slot := range sp.aggSlots {
		st.States[i].UpdateTerm(dict, slotValue(slots, slot))
	}
	if !hashAgg {
		m.enc = st.AppendEncode(m.enc[:0])
		// Emit takes its key as a string: one per solution
		m.emit(string(key), m.enc)
	}
}

// Close flushes the pre-aggregated entries — Algorithm 3's Map.clean().
// Map iteration order is free: the shuffle sorts every run by key, and the
// table holds each key once per task.
func (m *aggJoinMapper) Close(emit mapred.Emit) error {
	for key, st := range m.multiAggMap {
		m.enc = st.AppendEncode(m.enc[:0])
		emit(key, m.enc)
	}
	return nil
}
