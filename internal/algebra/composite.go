package algebra

import (
	"fmt"
	"sort"
	"strings"

	"rapidanalytics/internal/sparql"
)

// CompositeProp is one property of a composite star pattern together with
// the set of original patterns that require it. A property owned by every
// pattern is primary; the others are secondary (optional).
type CompositeProp struct {
	// TP is the canonical triple pattern (subject and object variables in
	// composite-variable names).
	TP sparql.TriplePattern
	// Ref is the property reference.
	Ref PropRef
	// Owners marks the original subquery ids whose star requires this
	// property.
	Owners map[int]bool
}

// CompositeStar is a composite star pattern: the merge of the corresponding
// stars of all overlapping original patterns (P_prim ∪ P_sec in the paper's
// notation).
type CompositeStar struct {
	// SubjectVar is the canonical root variable.
	SubjectVar string
	// Props holds the merged properties, in insertion order (base pattern's
	// properties first).
	Props []CompositeProp

	numPatterns int
}

// PrimaryRefs returns P_prim: properties required by every original
// pattern.
func (cs *CompositeStar) PrimaryRefs() []PropRef {
	var refs []PropRef
	for _, p := range cs.Props {
		if len(p.Owners) == cs.numPatterns {
			refs = append(refs, p.Ref)
		}
	}
	return refs
}

// SecondaryRefs returns P_sec: properties not required by every pattern.
func (cs *CompositeStar) SecondaryRefs() []PropRef {
	var refs []PropRef
	for _, p := range cs.Props {
		if len(p.Owners) != cs.numPatterns {
			refs = append(refs, p.Ref)
		}
	}
	return refs
}

// RequiredSecondaryFor returns the secondary properties that original
// pattern k requires — the per-star α condition "p ≠ ∅" set of Definition
// 3.5 / Figure 5.
func (cs *CompositeStar) RequiredSecondaryFor(k int) []PropRef {
	var refs []PropRef
	for _, p := range cs.Props {
		if len(p.Owners) != cs.numPatterns && p.Owners[k] {
			refs = append(refs, p.Ref)
		}
	}
	return refs
}

// TriplesFor returns the canonical triple patterns of original pattern k's
// star (primary plus k's secondaries).
func (cs *CompositeStar) TriplesFor(k int) []sparql.TriplePattern {
	var tps []sparql.TriplePattern
	for _, p := range cs.Props {
		if p.Owners[k] {
			tps = append(tps, p.TP)
		}
	}
	return tps
}

// String renders the star in the paper's Stp_ab̲c notation: secondary
// properties are suffixed with '?'.
func (cs *CompositeStar) String() string {
	parts := make([]string, 0, len(cs.Props))
	for _, p := range cs.Props {
		s := p.Ref.Key()
		if len(p.Owners) != cs.numPatterns {
			s += "?"
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return "?" + cs.SubjectVar + "{" + strings.Join(parts, ",") + "}"
}

// CompositePattern is a composite graph pattern GP' covering all original
// overlapping patterns of an analytical query.
type CompositePattern struct {
	// Stars are the composite stars, indexed like the base pattern's stars.
	Stars []*CompositeStar
	// Joins are the canonical join edges (the base pattern's; all patterns
	// agree on them up to role-equivalence).
	Joins []Join
	// NumPatterns is the number of original patterns merged.
	NumPatterns int
	// VarMaps maps, per original pattern, original variable names to
	// canonical composite names.
	VarMaps []map[string]string
	// Filters are the shared filter constraints in canonical variables.
	Filters []sparql.Filter
}

// BuildComposite merges the subqueries' graph patterns into a composite
// pattern. It fails if any pattern does not overlap the first one
// (Definition 3.2), if variable correspondences conflict, or if the patterns
// carry differing FILTER constraints (out of the paper's scope).
func BuildComposite(subqueries []*Subquery) (*CompositePattern, error) {
	if len(subqueries) < 2 {
		return nil, fmt.Errorf("algebra: composite pattern needs at least two subqueries")
	}
	base := subqueries[0].Pattern
	n := len(subqueries)
	cp := &CompositePattern{
		Joins:       base.Joins,
		NumPatterns: n,
		VarMaps:     make([]map[string]string, n),
	}
	used := map[string]bool{} // composite variable names in use
	// Seed with the base pattern.
	cp.VarMaps[0] = map[string]string{}
	for _, st := range base.Stars {
		cs := &CompositeStar{SubjectVar: st.SubjectVar, numPatterns: n}
		cp.VarMaps[0][st.SubjectVar] = st.SubjectVar
		used[st.SubjectVar] = true
		for _, tp := range st.Triples {
			cs.Props = append(cs.Props, CompositeProp{
				TP:     tp,
				Ref:    propRefOf(tp),
				Owners: map[int]bool{0: true},
			})
			if tp.O.IsVar {
				cp.VarMaps[0][tp.O.Var] = tp.O.Var
				used[tp.O.Var] = true
			}
		}
		cp.Stars = append(cp.Stars, cs)
	}
	// Merge each subsequent pattern.
	for k := 1; k < n; k++ {
		gp := subqueries[k].Pattern
		mapping, ok := FindOverlap(base, gp)
		if !ok {
			return nil, fmt.Errorf("algebra: pattern %d does not overlap pattern 0", k)
		}
		vm := map[string]string{}
		bind := func(orig, composite string) error {
			if prev, ok := vm[orig]; ok && prev != composite {
				return fmt.Errorf("algebra: variable ?%s of pattern %d maps to both ?%s and ?%s", orig, k, prev, composite)
			}
			vm[orig] = composite
			return nil
		}
		for i, cs := range cp.Stars {
			st := gp.Stars[mapping[i]]
			if err := bind(st.SubjectVar, cs.SubjectVar); err != nil {
				return nil, err
			}
			for _, tp := range st.Triples {
				ref := propRefOf(tp)
				idx := -1
				for pi := range cs.Props {
					if cs.Props[pi].Ref.Key() == ref.Key() {
						idx = pi
						break
					}
				}
				if idx >= 0 {
					cs.Props[idx].Owners[k] = true
					if tp.O.IsVar {
						cobj := cs.Props[idx].TP.O
						if !cobj.IsVar {
							return nil, fmt.Errorf("algebra: pattern %d binds a variable where pattern 0 has constant %v", k, cobj.Term)
						}
						if err := bind(tp.O.Var, cobj.Var); err != nil {
							return nil, err
						}
					}
					continue
				}
				// New secondary property contributed by pattern k.
				ctp := sparql.TriplePattern{S: sparql.V(cs.SubjectVar), P: tp.P, O: tp.O}
				if tp.O.IsVar {
					name := tp.O.Var
					if used[name] {
						name = fmt.Sprintf("gp%d_%s", k, tp.O.Var)
					}
					used[name] = true
					ctp.O = sparql.V(name)
					if err := bind(tp.O.Var, name); err != nil {
						return nil, err
					}
				}
				cs.Props = append(cs.Props, CompositeProp{
					TP:     ctp,
					Ref:    ref,
					Owners: map[int]bool{k: true},
				})
			}
		}
		cp.VarMaps[k] = vm
	}
	// Filters: every pattern must carry the same constraints after variable
	// mapping (differing filters are out of the paper's scope, §3).
	canon := canonicalFilters(subqueries[0].Pattern.Filters, cp.VarMaps[0])
	for k := 1; k < len(subqueries); k++ {
		fk := canonicalFilters(subqueries[k].Pattern.Filters, cp.VarMaps[k])
		if !filtersEqual(canon, fk) {
			return nil, fmt.Errorf("algebra: patterns 0 and %d carry differing FILTER constraints", k)
		}
	}
	cp.Filters = canon
	// Grouping and aggregation variables must be reachable through the
	// variable maps.
	for k, sq := range subqueries {
		for _, v := range sq.GroupBy {
			if _, ok := cp.VarMaps[k][v]; !ok {
				return nil, fmt.Errorf("algebra: grouping variable ?%s of pattern %d has no composite counterpart", v, k)
			}
		}
		for _, a := range sq.Aggs {
			if _, ok := cp.VarMaps[k][a.Var]; !ok {
				return nil, fmt.Errorf("algebra: aggregation variable ?%s of pattern %d has no composite counterpart", a.Var, k)
			}
		}
	}
	return cp, nil
}

func canonicalFilters(fs []sparql.Filter, vm map[string]string) []sparql.Filter {
	out := make([]sparql.Filter, len(fs))
	for i, f := range fs {
		f.Var = vm[f.Var]
		out[i] = f
	}
	sort.Slice(out, func(i, j int) bool { return filterKey(out[i]) < filterKey(out[j]) })
	return out
}

func filterKey(f sparql.Filter) string {
	return fmt.Sprintf("%d|%s|%s|%s|%s|%s", f.Kind, f.Var, f.Op, f.Value, f.Pattern, f.Flags)
}

func filtersEqual(a, b []sparql.Filter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if filterKey(a[i]) != filterKey(b[i]) {
			return false
		}
	}
	return true
}

// NeedsDistinct reports whether projecting the composite relation onto
// original pattern k's columns can collapse rows: true iff some secondary
// property of another pattern is not required by k, so its column is
// dropped. Hive (MQO) then runs a DISTINCT cycle before k's aggregation.
func (cp *CompositePattern) NeedsDistinct(k int) bool {
	for _, cs := range cp.Stars {
		for _, p := range cs.Props {
			if len(p.Owners) != cp.NumPatterns && !p.Owners[k] {
				return true
			}
		}
	}
	return false
}

// String renders the composite pattern.
func (cp *CompositePattern) String() string {
	parts := make([]string, len(cp.Stars))
	for i, cs := range cp.Stars {
		parts[i] = cs.String()
	}
	return strings.Join(parts, " ⋈ ")
}
