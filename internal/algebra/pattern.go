// Package algebra models SPARQL analytical queries the way the paper's
// optimizer sees them: graph patterns decomposed into subject-rooted star
// patterns connected by join variables, grouping/aggregation specifications
// decoupled from the patterns they range over, and — the core contribution —
// overlap detection between graph patterns and construction of composite
// graph patterns with primary and secondary (optional) properties.
package algebra

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// PropRef identifies a star-pattern "property" in the paper's sense. A plain
// triple pattern (?s p ?o) is identified by its property IRI. A triple
// pattern with a constant object, such as (?s rdf:type PT18) or
// (?p pub_type "News"), is identified by the property plus the object — the
// paper abbreviates (rdf:type PT18) as the single property "ty18".
type PropRef struct {
	// Prop is the property IRI.
	Prop string
	// Obj is the constant object, when the pattern binds the object to a
	// constant. Zero (invalid) for variable objects.
	Obj rdf.Term
}

// HasConstObj reports whether the property reference pins the object.
func (p PropRef) HasConstObj() bool { return p.Obj.Valid() }

// Key returns a canonical string form usable as a map key.
func (p PropRef) Key() string {
	if !p.HasConstObj() {
		return p.Prop
	}
	return p.Prop + "=" + p.Obj.Key()
}

// String renders the reference compactly for diagnostics.
func (p PropRef) String() string { return p.Key() }

// ECKeyForRef returns the equivalence-class key (rdf.ECKey) a required
// property reference prunes on. Non-type constant-object references (e.g.
// pub_type "News") prune only on the property: values are not part of the
// schema.
func ECKeyForRef(ref PropRef) string {
	if ref.Prop == rdf.RDFType && ref.HasConstObj() {
		return rdf.ECKey(ref.Prop, ref.Obj.Key())
	}
	return ref.Prop
}

// Role is the position a variable occupies in a triple pattern.
type Role uint8

const (
	// RoleSubject marks a variable in subject position.
	RoleSubject Role = iota
	// RoleObject marks a variable in object position.
	RoleObject
)

func (r Role) String() string {
	if r == RoleSubject {
		return "subject"
	}
	return "object"
}

// StarPattern is a subject-rooted star: all triple patterns sharing one
// subject variable.
type StarPattern struct {
	// SubjectVar is the star's root variable name.
	SubjectVar string
	// Triples are the member triple patterns, in query order.
	Triples []sparql.TriplePattern
	// Optionals are OPTIONAL triple patterns attached to this star: their
	// variables bind when a matching triple exists and stay NULL otherwise
	// (left-outer semantics).
	Optionals []sparql.TriplePattern
}

// OptionalRefs returns the property references of the star's OPTIONAL
// patterns.
func (s *StarPattern) OptionalRefs() []PropRef {
	refs := make([]PropRef, 0, len(s.Optionals))
	for _, tp := range s.Optionals {
		refs = append(refs, propRefOf(tp))
	}
	return refs
}

// Props returns the star's bound property references in a deterministic
// order. Unbound-property triple patterns contribute no reference.
func (s *StarPattern) Props() []PropRef {
	refs := make([]PropRef, 0, len(s.Triples))
	for _, tp := range s.Triples {
		if tp.P.IsVar {
			continue
		}
		refs = append(refs, propRefOf(tp))
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Key() < refs[j].Key() })
	return refs
}

// HasUnbound reports whether the star contains an unbound-property triple
// pattern such as (?s ?p ?o).
func (s *StarPattern) HasUnbound() bool {
	for _, tp := range s.Triples {
		if tp.P.IsVar {
			return true
		}
	}
	return false
}

// PropSet returns the star's bound property keys as a set.
func (s *StarPattern) PropSet() map[string]bool {
	m := make(map[string]bool, len(s.Triples))
	for _, tp := range s.Triples {
		if tp.P.IsVar {
			continue
		}
		m[propRefOf(tp).Key()] = true
	}
	return m
}

// TypeObjects returns the set of constant objects of rdf:type triple
// patterns in the star (Definition 3.1's second condition ranges over
// these).
func (s *StarPattern) TypeObjects() map[string]bool {
	m := map[string]bool{}
	for _, tp := range s.Triples {
		if !tp.P.IsVar && tp.P.Term.Value == rdf.RDFType && !tp.O.IsVar {
			m[tp.O.Term.Key()] = true
		}
	}
	return m
}

// Vars returns all variable names used in the star, including property
// variables of unbound-property patterns.
func (s *StarPattern) Vars() map[string]bool {
	m := map[string]bool{s.SubjectVar: true}
	for _, tp := range s.Triples {
		if tp.P.IsVar {
			m[tp.P.Var] = true
		}
		if tp.O.IsVar {
			m[tp.O.Var] = true
		}
	}
	for _, tp := range s.Optionals {
		if tp.O.IsVar {
			m[tp.O.Var] = true
		}
	}
	return m
}

// ObjectVarProps returns, for a variable, the property references of the
// star's bound triple patterns in which it appears as object.
func (s *StarPattern) ObjectVarProps(v string) []PropRef {
	var refs []PropRef
	for _, tp := range s.Triples {
		if !tp.P.IsVar && tp.O.IsVar && tp.O.Var == v {
			refs = append(refs, propRefOf(tp))
		}
	}
	return refs
}

func propRefOf(tp sparql.TriplePattern) PropRef {
	ref := PropRef{Prop: tp.P.Term.Value}
	if !tp.O.IsVar {
		ref.Obj = tp.O.Term
	}
	return ref
}

// PropRefOf exposes the property reference of a triple pattern.
func PropRefOf(tp sparql.TriplePattern) PropRef { return propRefOf(tp) }

// String renders the star compactly: root{p1,p2,...}; an unbound-property
// pattern shows as its property variable.
func (s *StarPattern) String() string {
	keys := make([]string, 0, len(s.Triples))
	for _, r := range s.Props() {
		keys = append(keys, r.Key())
	}
	for _, tp := range s.Triples {
		if tp.P.IsVar {
			keys = append(keys, "?"+tp.P.Var)
		}
	}
	return "?" + s.SubjectVar + "{" + strings.Join(keys, ",") + "}"
}

// Join is an edge between two stars of a graph pattern: a shared variable
// together with the role and (for object roles) the carrying properties at
// each endpoint.
type Join struct {
	// Var is the join variable name.
	Var string
	// Left and Right index GraphPattern.Stars. Left < Right.
	Left, Right int
	// LeftRole and RightRole are the variable's roles in each star.
	LeftRole, RightRole Role
	// LeftProps / RightProps list the property references of the triple
	// patterns in which the variable occurs as object (empty for subject
	// roles).
	LeftProps, RightProps []PropRef
}

// flip returns the edge with its endpoints swapped.
func (j Join) flip() Join {
	return Join{
		Var:        j.Var,
		Left:       j.Right,
		Right:      j.Left,
		LeftRole:   j.RightRole,
		RightRole:  j.LeftRole,
		LeftProps:  j.RightProps,
		RightProps: j.LeftProps,
	}
}

// GraphPattern is a basic graph pattern decomposed into stars plus join
// edges and filters.
type GraphPattern struct {
	Stars   []*StarPattern
	Joins   []Join
	Filters []sparql.Filter
}

// BuildGraphPattern decomposes a group graph pattern's triple patterns into
// subject-rooted stars and derives the join edges between them. Subjects
// must be variables (the analytical workloads never use constant subjects).
func BuildGraphPattern(g *sparql.GroupGraphPattern) (*GraphPattern, error) {
	gp := &GraphPattern{Filters: g.Filters}
	index := map[string]int{} // subject var -> star index
	for _, tp := range g.Triples {
		if !tp.S.IsVar {
			return nil, fmt.Errorf("algebra: constant subject %v not supported", tp.S)
		}
		i, ok := index[tp.S.Var]
		if !ok {
			i = len(gp.Stars)
			index[tp.S.Var] = i
			gp.Stars = append(gp.Stars, &StarPattern{SubjectVar: tp.S.Var})
		}
		gp.Stars[i].Triples = append(gp.Stars[i].Triples, tp)
	}
	// Reject duplicate property references within one star: the triplegroup
	// model identifies triples by property, so two patterns with the same
	// property in one star would be ambiguous. (The paper's workloads never
	// do this.) Unbound-property patterns are limited to one per star, and
	// their variables may not be shared with other triple patterns — joins
	// through unbound properties need the machinery of [32] (§5.2) and stay
	// out of scope.
	for _, st := range gp.Stars {
		seen := map[string]bool{}
		unbound := 0
		for _, tp := range st.Triples {
			if tp.P.IsVar {
				unbound++
				continue
			}
			k := propRefOf(tp).Key()
			if seen[k] {
				return nil, fmt.Errorf("algebra: duplicate property %s in star ?%s", k, st.SubjectVar)
			}
			seen[k] = true
		}
		if unbound > 1 {
			return nil, fmt.Errorf("algebra: star ?%s has %d unbound-property patterns; at most one is supported", st.SubjectVar, unbound)
		}
	}
	if err := gp.attachOptionals(g); err != nil {
		return nil, err
	}
	if err := gp.validateUnboundVars(); err != nil {
		return nil, err
	}
	if err := gp.deriveJoins(); err != nil {
		return nil, err
	}
	for _, j := range gp.Joins {
		for _, st := range gp.Stars {
			for _, tp := range st.Triples {
				if !tp.P.IsVar {
					continue
				}
				if tp.P.Var == j.Var || (tp.O.IsVar && tp.O.Var == j.Var) {
					return nil, fmt.Errorf("algebra: variable ?%s of an unbound-property pattern may not join stars (out of scope, §5.2/[32])", j.Var)
				}
			}
		}
	}
	return gp, nil
}

// attachOptionals assigns each OPTIONAL block's triple pattern to the star
// whose subject it extends, enforcing the analytical subset's
// restrictions: one pattern per block, bound properties, subject bound by
// a required star, object variables fresh (not used anywhere else,
// including filters and other optionals), no property already required by
// the star. A block of several patterns is one left-join operand that
// matches only where all of them do; the engines extend a star one pattern
// at a time, so such a block is rejected rather than answered per pattern.
//
// The engines left-join every block with the whole required pattern. That
// equals SPARQL's Join(LeftJoin(P1, O), P2) for { P1 OPTIONAL { O } P2 }
// when the group is well-designed (Schmidt et al.): every variable O
// shares with P2 is bound in P1. A block whose subject only later
// patterns bind is rejected.
func (gp *GraphPattern) attachOptionals(g *sparql.GroupGraphPattern) error {
	if len(g.Optionals) == 0 {
		return nil
	}
	used := map[string]int{}
	for _, st := range gp.Stars {
		for v := range st.Vars() {
			used[v]++
		}
	}
	for _, block := range g.Optionals {
		if len(block.Triples) > 1 {
			return fmt.Errorf("algebra: an OPTIONAL block of %d patterns is not supported; write one OPTIONAL per pattern", len(block.Triples))
		}
		for _, tp := range block.Triples {
			if tp.P.IsVar {
				return fmt.Errorf("algebra: unbound properties inside OPTIONAL are not supported")
			}
			if !tp.S.IsVar {
				return fmt.Errorf("algebra: constant subject %v in OPTIONAL", tp.S)
			}
			star := -1
			for i, st := range gp.Stars {
				if st.SubjectVar == tp.S.Var {
					star = i
					break
				}
			}
			if star < 0 {
				return fmt.Errorf("algebra: OPTIONAL subject ?%s is not bound by the required pattern", tp.S.Var)
			}
			if !slices.ContainsFunc(g.Triples[:block.After], func(r sparql.TriplePattern) bool {
				return r.S.IsVar && r.S.Var == tp.S.Var || r.O.IsVar && r.O.Var == tp.S.Var
			}) {
				return fmt.Errorf("algebra: OPTIONAL subject ?%s is bound only after the block, which is not well-designed", tp.S.Var)
			}
			st := gp.Stars[star]
			ref := propRefOf(tp)
			for _, req := range st.Triples {
				if !req.P.IsVar && propRefOf(req).Key() == ref.Key() {
					return fmt.Errorf("algebra: property %s is both required and OPTIONAL on ?%s", ref, st.SubjectVar)
				}
			}
			for _, opt := range st.Optionals {
				if propRefOf(opt).Key() == ref.Key() {
					return fmt.Errorf("algebra: duplicate OPTIONAL property %s on ?%s", ref, st.SubjectVar)
				}
			}
			if tp.O.IsVar {
				if used[tp.O.Var] > 0 {
					return fmt.Errorf("algebra: OPTIONAL variable ?%s is also used elsewhere in the pattern", tp.O.Var)
				}
				used[tp.O.Var]++
			}
			st.Optionals = append(st.Optionals, tp)
		}
	}
	// Filters may not reference OPTIONAL variables: SPARQL's
	// error-on-unbound filter semantics are out of the subset.
	optVars := map[string]bool{}
	for _, st := range gp.Stars {
		for _, tp := range st.Optionals {
			if tp.O.IsVar {
				optVars[tp.O.Var] = true
			}
		}
	}
	for _, f := range gp.Filters {
		if optVars[f.Var] {
			return fmt.Errorf("algebra: FILTER on OPTIONAL variable ?%s is not supported", f.Var)
		}
	}
	return nil
}

// validateUnboundVars rejects property variables that also occur in other
// positions or other triple patterns.
func (gp *GraphPattern) validateUnboundVars() error {
	occurrences := map[string]int{}
	for _, st := range gp.Stars {
		for _, tp := range st.Triples {
			if tp.O.IsVar {
				occurrences[tp.O.Var]++
			}
		}
		occurrences[st.SubjectVar] += len(st.Triples)
	}
	for _, st := range gp.Stars {
		for _, tp := range st.Triples {
			if !tp.P.IsVar {
				continue
			}
			if occurrences[tp.P.Var] > 0 {
				return fmt.Errorf("algebra: property variable ?%s is also used elsewhere in the pattern", tp.P.Var)
			}
		}
	}
	return nil
}

func (gp *GraphPattern) deriveJoins() error {
	for i := 0; i < len(gp.Stars); i++ {
		for j := i + 1; j < len(gp.Stars); j++ {
			a, b := gp.Stars[i], gp.Stars[j]
			av, bv := a.Vars(), b.Vars()
			for v := range av {
				if !bv[v] {
					continue
				}
				jn := Join{Var: v, Left: i, Right: j}
				if v == a.SubjectVar {
					jn.LeftRole = RoleSubject
				} else {
					jn.LeftRole = RoleObject
					jn.LeftProps = a.ObjectVarProps(v)
				}
				if v == b.SubjectVar {
					jn.RightRole = RoleSubject
				} else {
					jn.RightRole = RoleObject
					jn.RightProps = b.ObjectVarProps(v)
				}
				gp.Joins = append(gp.Joins, jn)
			}
		}
	}
	sort.Slice(gp.Joins, func(i, j int) bool {
		a, b := gp.Joins[i], gp.Joins[j]
		if a.Left != b.Left {
			return a.Left < b.Left
		}
		if a.Right != b.Right {
			return a.Right < b.Right
		}
		return a.Var < b.Var
	})
	return nil
}

// Connected reports whether the pattern's stars form a connected join graph
// (disconnected patterns would imply cross products; the workloads never
// produce them).
func (gp *GraphPattern) Connected() bool {
	if len(gp.Stars) <= 1 {
		return true
	}
	adj := make(map[int][]int)
	for _, j := range gp.Joins {
		adj[j.Left] = append(adj[j.Left], j.Right)
		adj[j.Right] = append(adj[j.Right], j.Left)
	}
	seen := map[int]bool{0: true}
	stack := []int{0}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return len(seen) == len(gp.Stars)
}

// Vars returns all variable names used in the pattern.
func (gp *GraphPattern) Vars() map[string]bool {
	m := map[string]bool{}
	for _, s := range gp.Stars {
		for v := range s.Vars() {
			m[v] = true
		}
	}
	return m
}

// String renders the pattern compactly.
func (gp *GraphPattern) String() string {
	parts := make([]string, len(gp.Stars))
	for i, s := range gp.Stars {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ⋈ ")
}
