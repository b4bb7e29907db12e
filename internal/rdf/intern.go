package rdf

import (
	"slices"
	"strings"
)

// IDTriple is a statement whose terms are Dict IDs.
type IDTriple struct {
	S uint64 // subject
	P uint64 // property
	O uint64 // object
}

// IDGraph is a graph's statements interned into a Dict and read as a set:
// the one form the physical layouts and the statistics catalog are built
// from. A store keeps only its Dict and its ID triples and builds an
// IDGraph from them on each load (NewIDGraph).
type IDGraph struct {
	// Dict holds every term of the graph.
	Dict *Dict
	// Triples holds each distinct statement once, where it first occurs in
	// the source graph.
	Triples []IDTriple
	// Subjects groups Triples by subject, ordered by the subjects'
	// Term.Key; a subject's statements keep their order in Triples.
	Subjects [][]IDTriple
}

// Intern registers g's terms in d and returns g read as a set (NewIDGraph).
func Intern(g *Graph, d *Dict) *IDGraph { return NewIDGraph(d, InternTriples(d, nil, g.Triples)) }

// InternTriples appends ts to dst as IDTriples, repeats included, adding
// their terms to d subject, property, object per statement (a property as
// an IRI). IDs are dense in first-occurrence order, so batches interned one
// after another get the IDs a single intern of them all would give.
func InternTriples(d *Dict, dst []IDTriple, ts []Triple) []IDTriple {
	dst = slices.Grow(dst, len(ts))
	for _, t := range ts {
		dst = append(dst, IDTriple{d.Add(t.Subject.Key()), d.Add("I" + t.Property.Value), d.Add(t.Object.Key())})
	}
	return dst
}

// NewIDGraph reads ts, whose terms are IDs of d, as a set: a statement
// that repeats an earlier one is dropped, and the rest are grouped by
// subject. ts is not modified.
func NewIDGraph(d *Dict, ts []IDTriple) *IDGraph {
	ig := &IDGraph{Dict: d, Triples: make([]IDTriple, 0, len(ts))}
	seen := make(map[IDTriple]bool, len(ts))
	for _, it := range ts {
		if !seen[it] {
			seen[it] = true
			ig.Triples = append(ig.Triples, it)
		}
	}
	// Group by subject with a counting sort: next[s] counts subject s's
	// statements, then becomes where its next one goes.
	next := make([]int, d.Len()+1)
	var subjects []uint64
	for _, t := range ig.Triples {
		if next[t.S] == 0 {
			subjects = append(subjects, t.S)
		}
		next[t.S]++
	}
	slices.SortFunc(subjects, func(a, b uint64) int { return strings.Compare(d.entry(a).key, d.entry(b).key) })
	grouped := make([]IDTriple, len(ig.Triples))
	ig.Subjects = make([][]IDTriple, len(subjects))
	start := 0
	for i, s := range subjects {
		end := start + next[s]
		ig.Subjects[i] = grouped[start:end:end]
		next[s], start = start, end
	}
	for _, t := range ig.Triples {
		grouped[next[t.S]] = t
		next[t.S]++
	}
	return ig
}

// ECKey returns the equivalence-class key of a statement with property IRI
// prop and object key objKey: "type="+objKey for rdf:type, else prop. The
// keys of a subject's statements class it, for the triplegroup files and
// the statistics catalog's characteristic sets alike.
func ECKey(prop, objKey string) string {
	if prop == RDFType {
		return "type=" + objKey
	}
	return prop
}

// ECKeys returns the sorted, distinct ECKeys of statements ts (one
// subject's, usually) and how many statements carry each, in the storage of
// keys and counts.
func (g *IDGraph) ECKeys(ts []IDTriple, keys []string, counts []int64) ([]string, []int64) {
	keys, counts = keys[:0], counts[:0]
	for _, t := range ts {
		keys = append(keys, ECKey(KeyLex(g.Dict.entry(t.P).key), g.Dict.entry(t.O).key))
	}
	slices.Sort(keys)
	n := 0
	for _, k := range keys {
		if n > 0 && k == keys[n-1] {
			counts[n-1]++
			continue
		}
		keys[n], counts = k, append(counts, 1)
		n++
	}
	return keys[:n], counts
}

// DecodeGraph returns the statements ts, whose terms are IDs of d, as a
// Graph, repeats included. The terms share d's strings.
func DecodeGraph(d *Dict, ts []IDTriple) *Graph {
	g := &Graph{Triples: make([]Triple, len(ts))}
	for i, t := range ts {
		g.Triples[i] = Triple{TermFromKey(d.entry(t.S).key), TermFromKey(d.entry(t.P).key), TermFromKey(d.entry(t.O).key)}
	}
	return g
}
