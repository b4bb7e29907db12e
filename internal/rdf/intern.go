package rdf

import (
	"cmp"
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
	d.mu.Lock()
	defer d.mu.Unlock()
	in := interner{d: d, props: map[string]uint64{}}
	for _, t := range ts {
		dst = append(dst, in.add(t))
	}
	return dst
}

// interner interns statements into a Dict one after another. It remembers
// the previous statement's subject and every property it has seen, the
// terms a statement most often repeats: a generator or an exporter writes
// a subject's statements together, and a vocabulary has few properties.
// Its user holds the Dict's lock for the interner's life, so a batch takes
// the lock once.
type interner struct {
	d *Dict
	// subject is the previous statement's subject as its Dict key, and
	// subjectID its ID.
	subject   string
	subjectID uint64
	// props maps each property IRI seen to its ID; its keys are views of
	// the Dict's keys.
	props map[string]uint64
}

// add interns t's terms, subject, property (as an IRI), object, and returns
// its IDTriple. t's values may be views of a buffer the caller reuses.
func (in *interner) add(t Triple) IDTriple {
	if in.subject == "" || in.subject[0] != keyTag(t.Subject.Kind) || in.subject[1:] != t.Subject.Value {
		in.subjectID = in.d.addTerm(t.Subject.Kind, t.Subject.Value)
		in.subject = in.d.entry(in.subjectID).key
	}
	p, ok := in.props[t.Property.Value]
	if !ok {
		p = in.d.addTerm(IRI, t.Property.Value)
		in.props[KeyLex(in.d.entry(p).key)] = p
	}
	return IDTriple{in.subjectID, p, in.d.addTerm(t.Object.Kind, t.Object.Value)}
}

// NewIDGraph reads ts, whose terms are IDs of d, as a set: a statement
// that repeats an earlier one is dropped, and the rest are grouped by
// subject. ts is not modified.
func NewIDGraph(d *Dict, ts []IDTriple) *IDGraph {
	// Group the statements by subject with a counting sort: next[s] counts
	// subject s's statements, then becomes where its next one goes, and at
	// the end where its group ends. bySubject holds positions in ts, each
	// subject's in graph order.
	next := make([]int, d.Len()+1)
	n := 0
	for _, t := range ts {
		if next[t.S] == 0 {
			n++
		}
		next[t.S]++
	}
	subjects := make([]subjectKey, 0, n)
	for id, count := range next {
		if count > 0 {
			subjects = append(subjects, subjectKey{d.entry(uint64(id)).key, uint64(id)})
		}
	}
	slices.SortFunc(subjects, func(a, b subjectKey) int { return strings.Compare(a.key, b.key) })
	start := 0
	for _, s := range subjects {
		next[s.id], start = start, start+next[s.id]
	}
	bySubject := make([]int, len(ts))
	for i, t := range ts {
		bySubject[next[t.S]] = i
		next[t.S]++
	}

	// A repeat has its subject, so it is found within its subject's group:
	// sorted by property, object and position, a group has each repeat
	// right after the statement's first occurrence.
	repeat := make([]bool, len(ts))
	repeats := 0
	var group []int
	lo := 0
	for _, s := range subjects {
		hi := next[s.id]
		if hi-lo > 1 {
			group = append(group[:0], bySubject[lo:hi]...)
			slices.SortFunc(group, func(a, b int) int {
				return cmp.Or(cmp.Compare(ts[a].P, ts[b].P), cmp.Compare(ts[a].O, ts[b].O), cmp.Compare(a, b))
			})
			for k := 1; k < len(group); k++ {
				if ts[group[k]] == ts[group[k-1]] {
					repeat[group[k]] = true
					repeats++
				}
			}
		}
		lo = hi
	}

	ig := &IDGraph{Dict: d, Triples: make([]IDTriple, 0, len(ts)-repeats), Subjects: make([][]IDTriple, len(subjects))}
	for i, t := range ts {
		if !repeat[i] {
			ig.Triples = append(ig.Triples, t)
		}
	}
	grouped := make([]IDTriple, 0, len(ig.Triples))
	lo = 0
	for i, s := range subjects {
		from := len(grouped)
		for _, at := range bySubject[lo:next[s.id]] {
			if !repeat[at] {
				grouped = append(grouped, ts[at])
			}
		}
		ig.Subjects[i] = grouped[from:len(grouped):len(grouped)]
		lo = next[s.id]
	}
	return ig
}

// subjectKey is a subject's Dict key and ID, which NewIDGraph sorts by key.
type subjectKey struct {
	key string
	id  uint64
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
