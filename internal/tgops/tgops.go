// Package tgops provides the NTGA physical operators as MapReduce jobs:
// TG_OptGrpFilter-fused triplegroup scans, TG_AlphaJoin (Algorithm 2), and
// TG_AgJ with map-side hash pre-aggregation (Algorithm 3). Both NTGA
// engines — RAPID+ (Naive) and RAPIDAnalytics — compose their workflows
// from these builders.
//
// Every operator runs on dictionary-encoded records: triplegroup fields are
// uvarint ID-strings of the dataset's rdf.Dict (Source.Dict). Query-space
// constants — property references, triple patterns, the α table — are
// resolved through the dictionary once at job-build or task-start time,
// shuffle keys are separator-free concatenations of self-delimiting IDs,
// and values decode back to lexical Term.Key form only at the final
// aggregation boundary, where result rows are emitted.
package tgops

import (
	"fmt"
	"sort"
	"strconv"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// PropFilter applies a FILTER constraint at triplegroup level: triples of
// Prop whose objects fail the filter are removed (bindings over the
// remaining triples implement per-solution filter semantics).
type PropFilter struct {
	Prop   string
	Filter sparql.Filter
}

// ScanSpec describes a TG_OptGrpFilter-fused scan of raw triplegroup files
// for one (composite) star: project to Prim ∪ Opt, require all of Prim,
// apply property-level filters. References are query-space; the scan
// resolves them through the source's dictionary per task.
type ScanSpec struct {
	Star    int
	Prim    []algebra.PropRef
	Opt     []algebra.PropRef
	Filters []PropFilter
	// KeepAll skips the projection onto Prim ∪ Opt: the star contains an
	// unbound-property pattern, so every triple of the subject is relevant.
	KeepAll bool
}

// Source is a job input: either raw triplegroup files with a scan spec, or
// an intermediate file of annotated (joined) triplegroups.
type Source struct {
	Files []string
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
// so per-record matching is free of dictionary lookups.
type scanner struct {
	dict    *rdf.Dict
	scan    *ScanSpec
	prim    []ntga.Ref
	opt     []ntga.Ref
	filters []planeFilter
}

// scanner resolves the source's query-space constants through its
// dictionary.
func (s *Source) scanner() *scanner {
	sc := &scanner{dict: s.Dict, scan: s.Scan}
	if s.Scan != nil {
		sc.prim = ntga.ResolveRefs(s.Scan.Prim, s.Dict)
		sc.opt = ntga.ResolveRefs(s.Scan.Opt, s.Dict)
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
// false when the record is filtered out.
func (sc *scanner) annTGOf(rec []byte) (ntga.AnnTG, bool, error) {
	if sc.scan == nil {
		a, err := ntga.DecodeAnnTGIDs(rec, sc.dict)
		if err != nil {
			return ntga.AnnTG{}, false, err
		}
		return a, true, nil
	}
	tg, rest, err := ntga.DecodeTripleGroupIDs(rec, sc.dict)
	if err != nil {
		return ntga.AnnTG{}, false, err
	}
	if len(rest) != 0 {
		return ntga.AnnTG{}, false, fmt.Errorf("tgops: %d trailing bytes after triplegroup", len(rest))
	}
	var out ntga.TripleGroup
	var ok bool
	if sc.scan.KeepAll {
		// Unbound-property star: validate the bound primaries, keep every
		// triple.
		out, ok = tg, true
		for _, ref := range sc.prim {
			if !tg.HasPO(ref.Prop, ref.Obj) {
				ok = false
				break
			}
		}
	} else {
		out, ok = ntga.OptGroupFilterRefs(tg, sc.prim, sc.opt)
	}
	if !ok {
		return ntga.AnnTG{}, false, nil
	}
	if len(sc.filters) > 0 {
		out, ok = sc.applyPropFilters(out)
		if !ok {
			return ntga.AnnTG{}, false, nil
		}
	}
	return ntga.NewAnnTG(sc.scan.Star, out), true, nil
}

// applyPropFilters drops triples whose objects fail a filter; the
// triplegroup survives only if every primary property retains at least one
// triple.
func (sc *scanner) applyPropFilters(tg ntga.TripleGroup) (ntga.TripleGroup, bool) {
	out := ntga.TripleGroup{Subject: tg.Subject}
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
			out.Triples = append(out.Triples, po)
		}
	}
	for _, ref := range sc.prim {
		if !out.HasPO(ref.Prop, ref.Obj) {
			return ntga.TripleGroup{}, false
		}
	}
	return out, true
}

// Endpoint designates where a join variable lives in an annotated
// triplegroup: the subject of a star, or the objects of carrying properties
// within a star.
type Endpoint struct {
	Star  int
	Role  algebra.Role
	Props []algebra.PropRef
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

// joinKeys extracts the join key values at an endpoint — one per matching
// object for multi-valued join properties (Algorithm 2's objList). props
// are the endpoint's resolved carrying properties (planeProps).
func joinKeys(a *ntga.AnnTG, ep Endpoint, props []string) []string {
	comp, ok := a.Component(ep.Star)
	if !ok {
		return nil
	}
	if ep.Role == algebra.RoleSubject {
		return []string{comp.Subject}
	}
	var keys []string
	seen := map[string]bool{}
	for _, prop := range props {
		for _, obj := range comp.Objects(prop) {
			if !seen[obj] {
				seen[obj] = true
				keys = append(keys, obj)
			}
		}
	}
	return keys
}

// JoinSide couples an input source with its join endpoint.
type JoinSide struct {
	Src Source
	Ep  Endpoint
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
			type taskSide struct {
				sc    *scanner
				ep    Endpoint
				props []string
				tag   byte
			}
			var sides []taskSide
			if inFiles(left.Src.Files, tc.InputFile) {
				sides = append(sides, taskSide{left.Src.scanner(), left.Ep, left.Ep.planeProps(left.Src.Dict), 0})
			}
			if inFiles(right.Src.Files, tc.InputFile) {
				sides = append(sides, taskSide{right.Src.scanner(), right.Ep, right.Ep.planeProps(right.Src.Dict), 1})
			}
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				for _, s := range sides {
					a, ok, err := s.sc.annTGOf(rec)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					// One tagged encode per record, shared across its join
					// keys: the engine retains but never mutates emitted
					// values.
					enc := a.AppendEncodeIDs([]byte{s.tag})
					for _, key := range joinKeys(&a, s.ep, s.props) {
						emit(key, enc)
					}
				}
				return nil
			})
		},
		NewReducer: func() mapred.Reducer {
			// Symmetric (streaming) formulation: one pass over the group,
			// pairing each arriving triplegroup with every earlier arrival
			// of the other side, so merged groups are emitted as soon as
			// the later element arrives instead of after buffering the
			// whole group. Each (l, r) pair is emitted exactly once;
			// deterministic given the shuffle's fixed value order, and
			// downstream TG_AgJ aggregation is order-insensitive.
			pair := func(l, r *ntga.AnnTG, emit mapred.Emit) {
				merged := ntga.Merge(*l, *r)
				if alpha.SatisfiesAny(&merged) {
					emit("", merged.AppendEncodeIDs(nil))
				}
			}
			return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
				var ls, rs []ntga.AnnTG
				for _, v := range values {
					if len(v) < 1 {
						return fmt.Errorf("tgops: empty α-join value")
					}
					a, err := ntga.DecodeAnnTGIDs(v[1:], dict)
					if err != nil {
						return err
					}
					if v[0] == 0 {
						for j := range rs {
							pair(&a, &rs[j], emit)
						}
						ls = append(ls, a)
					} else {
						for i := range ls {
							pair(&ls[i], &a, emit)
						}
						rs = append(rs, a)
					}
				}
				return nil
			})
		},
	}
}

// AggJoinSpec is one grouping-aggregation requirement evaluated by a TG_AgJ
// cycle: the spec's α condition, the triple patterns whose bindings feed
// the grouping and aggregation variables, and the aggregation list.
type AggJoinSpec struct {
	// ID tags the spec's output rows (the subquery index).
	ID int
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

// resolvedAggSpec is an AggJoinSpec with its triple patterns resolved
// through the source's dictionary.
type resolvedAggSpec struct {
	AggJoinSpec
	tps    map[int][]ntga.TP
	optTPs map[int][]ntga.TP
}

// AggJoinJob builds the TG_AgJ cycle (Algorithm 3). With several specs it
// is the generalised operator of Figure 6(b): all aggregations evaluate in
// parallel within one cycle, keyed by id#group. With hashAgg the mapper
// pre-aggregates into a task-wide hash map flushed at Map.clean();
// otherwise per-solution partial states are merged by a combiner.
//
// Output rows are [id, group values..., finals...] when tagged, and
// [group values..., finals...] otherwise (tagged must be true when more
// than one spec is given). Rows are lexical: the reducer is the decode
// boundary.
func AggJoinJob(name string, src Source, specs []AggJoinSpec, tagged, hashAgg bool, output string) *mapred.Job {
	if !tagged && len(specs) != 1 {
		panic("tgops: untagged AggJoinJob requires exactly one spec")
	}
	resolved := make([]resolvedAggSpec, len(specs))
	specByID := map[int]AggJoinSpec{}
	for i, sp := range specs {
		resolved[i] = resolvedAggSpec{
			AggJoinSpec: sp,
			tps:         ntga.ResolveTPMap(sp.TPs, src.Dict),
			optTPs:      ntga.ResolveTPMap(sp.OptTPs, src.Dict),
		}
		specByID[sp.ID] = sp
	}
	job := &mapred.Job{
		Name:           name,
		Inputs:         src.Files,
		Output:         output,
		Partitions:     mapred.DefaultPartitions,
		MapOperator:    "TG_AgJ.map",
		ReduceOperator: "TG_AgJ.reduce",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			m := &aggJoinMapper{sc: src.scanner(), specs: resolved, tagged: tagged}
			if hashAgg {
				m.multiAggMap = map[string]*algebra.MultiAggState{}
			}
			return m
		},
		NewCombiner: func() mapred.Reducer {
			return aggJoinMerger(specByID, src.Dict, tagged, false)
		},
		NewReducer: func() mapred.Reducer {
			return aggJoinMerger(specByID, src.Dict, tagged, true)
		},
	}
	return job
}

type aggJoinMapper struct {
	sc     *scanner
	specs  []resolvedAggSpec
	tagged bool
	// keyBuf is per-task scratch for key building (map tasks are
	// single-goroutine).
	keyBuf []byte
	// multiAggMap is the mapper-wide pre-aggregation table (Algorithm 3);
	// nil disables hash aggregation.
	multiAggMap map[string]*algebra.MultiAggState
}

// aggKey builds the shuffle key for one solution: the optional uvarint spec
// ID followed by the group values' self-delimiting ID bytes, with no
// separators (ID bytes may contain 0x1f).
//
//rapid:hot
func (m *aggJoinMapper) aggKey(sp *resolvedAggSpec, b ntga.Binding) string {
	buf := m.keyBuf[:0]
	if m.tagged {
		buf = codec.AppendUvarint(buf, uint64(sp.ID))
	}
	for _, g := range sp.GroupVars {
		if v, ok := b[g]; ok {
			buf = append(buf, v...)
		} else {
			buf = append(buf, algebra.Null...)
		}
	}
	m.keyBuf = buf
	//lint:alloc shuffle keys and the multiAggMap index must be string; this is the single per-solution key materialization and keyBuf pools the build buffer
	return string(buf)
}

func (m *aggJoinMapper) Map(rec []byte, emit mapred.Emit) error {
	a, ok, err := m.sc.annTGOf(rec)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	dict := m.sc.dict
	for i := range m.specs {
		sp := &m.specs[i]
		if sp.Alpha != nil && !sp.Alpha(&a) {
			continue
		}
		ntga.MatchResolved(&a, sp.tps, sp.optTPs, func(b ntga.Binding) {
			for _, f := range sp.BindingFilters {
				v, _ := dict.Lex(b[f.Var])
				ok, err := algebra.EvalFilter(f, v)
				if err != nil || !ok {
					return
				}
			}
			key := m.aggKey(sp, b)
			if m.multiAggMap != nil {
				st, ok := m.multiAggMap[key]
				if !ok {
					st = algebra.NewMultiAggState(sp.Aggs)
					m.multiAggMap[key] = st
				}
				for i, ag := range sp.Aggs {
					st.States[i].UpdateTerm(dict, b[ag.Var])
				}
				return
			}
			st := algebra.NewMultiAggState(sp.Aggs)
			for i, ag := range sp.Aggs {
				st.States[i].UpdateTerm(dict, b[ag.Var])
			}
			emit(key, st.AppendEncode(nil))
		})
	}
	return nil
}

// Close flushes the pre-aggregated entries — Algorithm 3's Map.clean() — in
// sorted key order. Map iteration order would vary run to run; the combiner
// happens to re-sort each partition today, but the output contract
// (byte-identical shuffle streams) must not depend on which jobs attach a
// combiner.
func (m *aggJoinMapper) Close(emit mapred.Emit) error {
	keys := make([]string, 0, len(m.multiAggMap))
	for key := range m.multiAggMap {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		emit(key, m.multiAggMap[key].AppendEncode(nil))
	}
	return nil
}

// splitAggKey parses a shuffle key built by aggKey back into the spec ID
// and lexical group values — the decode boundary.
func splitAggKey(key string, d *rdf.Dict, tagged bool) (id int, groups []string, err error) {
	buf := []byte(key)
	if tagged {
		v, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return 0, nil, fmt.Errorf("tgops: bad agg-join id key %q", key)
		}
		id, buf = int(v), rest
	}
	for len(buf) > 0 {
		v, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return 0, nil, fmt.Errorf("tgops: bad agg-join group key %q", key)
		}
		buf = rest
		if v == 0 {
			groups = append(groups, algebra.Null)
			continue
		}
		lex, ok := d.Key(v)
		if !ok {
			return 0, nil, fmt.Errorf("tgops: unknown term id %d in agg-join key", v)
		}
		groups = append(groups, lex)
	}
	return id, groups, nil
}

// aggJoinMerger merges partial states per key; as the reducer it emits the
// final (lexical) row.
func aggJoinMerger(specByID map[int]AggJoinSpec, d *rdf.Dict, tagged, final bool) mapred.Reducer {
	return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
		var sp AggJoinSpec
		if tagged {
			id, _, err := splitAggKey(key, d, true)
			if err != nil {
				return err
			}
			var ok bool
			sp, ok = specByID[id]
			if !ok {
				return fmt.Errorf("tgops: unknown agg-join id %d", id)
			}
		} else {
			for _, s := range specByID {
				sp = s
			}
		}
		acc := algebra.NewMultiAggState(sp.Aggs)
		for _, v := range values {
			st, err := algebra.DecodeMultiAggStateBytes(v)
			if err != nil {
				return err
			}
			acc.Merge(st)
		}
		if !final {
			emit(key, acc.AppendEncode(nil))
			return nil
		}
		finals := acc.Finals()
		if sp.Having != nil && !sp.Having(finals) {
			return nil
		}
		var row codec.Tuple
		if key != "" {
			_, groups, err := splitAggKey(key, d, tagged)
			if err != nil {
				return err
			}
			if tagged {
				row = append(row, strconv.Itoa(sp.ID))
			}
			row = append(row, groups...)
		}
		row = append(row, finals...)
		emit("", row.Encode())
		return nil
	})
}
