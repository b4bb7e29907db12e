// Package stats collects the load-time statistics catalog the cost-based
// planner consumes: per-predicate triple counts with distinct subject/object
// counts, and characteristic sets — the star-shaped co-occurrence classes of
// the triplegroup store — with per-property triple totals. engine.Load
// computes the catalog from the same interned, de-duplicated graph
// (rdf.IDGraph) and subject grouping the VP and triplegroup layouts are
// written from, and the estimator in this package reads it to predict
// triple-pattern, star and join cardinalities (the selectivity framework of
// Schmidt et al., "Foundations of SPARQL Query Optimization").
package stats

import (
	"maps"
	"slices"

	"rapidanalytics/internal/rdf"
)

// PredStat summarises one predicate: how many triples carry it and how many
// distinct subjects/objects those triples touch. In Schmidt et al. notation
// these are |t(p)|, |dom(p)| and |range(p)|.
type PredStat struct {
	// Count is the number of triples with this predicate.
	Count int64 `json:"count"`
	// DistinctSubj is the number of distinct subjects among those triples.
	DistinctSubj int64 `json:"distinctSubj"`
	// DistinctObj is the number of distinct objects among those triples.
	DistinctObj int64 `json:"distinctObj"`
}

// CharSet is one characteristic set: the set of subjects whose triples carry
// exactly this combination of equivalence-class keys (rdf.ECKey, the keys
// the triplegroup store shards on). PropCounts holds the total triples per
// key across the set's subjects, so PropCounts[k]/Subjects is the average
// fan-out of k within the set.
type CharSet struct {
	// Props are the set's equivalence-class keys, sorted.
	Props []string `json:"props"`
	// Subjects is the number of subjects in the set.
	Subjects int64 `json:"subjects"`
	// PropCounts maps each key to the total triples the set's subjects hold
	// for it.
	PropCounts map[string]int64 `json:"propCounts"`
}

// Has reports whether the set carries the equivalence-class key.
func (cs *CharSet) Has(key string) bool {
	for _, p := range cs.Props {
		if p == key {
			return true
		}
	}
	return false
}

// Catalog is the full statistics catalog of one loaded dataset.
type Catalog struct {
	// Triples is the graph size |G|.
	Triples int64 `json:"triples"`
	// Preds maps property IRIs to their predicate statistics.
	Preds map[string]PredStat `json:"preds"`
	// Sets are the characteristic sets, sorted by their key lists.
	Sets []CharSet `json:"sets"`
}

// Collect builds the catalog of g (Compute over g interned into a fresh
// dictionary).
func Collect(g *rdf.Graph) *Catalog { return Compute(rdf.Intern(g, rdf.NewDict())) }

// Compute builds the catalog of an interned graph from its subject
// grouping: predicate counts with distinct subjects and objects, and the
// characteristic sets of the subjects' ECKeys.
func Compute(g *rdf.IDGraph) *Catalog {
	type predAgg struct {
		PredStat
		lastSubj uint64
	}
	preds := map[uint64]*predAgg{}
	objs := map[[2]uint64]bool{}
	sets := map[string]*CharSet{}
	var (
		keys   []string
		counts []int64
		setKey []byte // the subject's keys joined by "\x00"
	)
	for _, sub := range g.Subjects {
		for _, t := range sub {
			pa := preds[t.P]
			if pa == nil {
				pa = &predAgg{}
				preds[t.P] = pa
			}
			pa.Count++
			// A subject's statements are adjacent, so a predicate meets a
			// new subject exactly when it differs from the last one.
			if pa.lastSubj != t.S {
				pa.lastSubj = t.S
				pa.DistinctSubj++
			}
			if po := [2]uint64{t.P, t.O}; !objs[po] {
				objs[po] = true
				pa.DistinctObj++
			}
		}
		keys, counts = g.ECKeys(sub, keys, counts)
		setKey = setKey[:0]
		for i, k := range keys {
			if i > 0 {
				setKey = append(setKey, 0)
			}
			setKey = append(setKey, k...)
		}
		cs := sets[string(setKey)]
		if cs == nil {
			cs = &CharSet{Props: slices.Clone(keys), PropCounts: make(map[string]int64, len(keys))}
			sets[string(setKey)] = cs
		}
		cs.Subjects++
		for i, k := range keys {
			cs.PropCounts[k] += counts[i]
		}
	}
	c := &Catalog{
		Triples: int64(len(g.Triples)),
		Preds:   make(map[string]PredStat, len(preds)),
		Sets:    make([]CharSet, 0, len(sets)),
	}
	for p, pa := range preds {
		key, _ := g.Dict.Key(p)
		c.Preds[rdf.KeyLex(key)] = pa.PredStat
	}
	for _, id := range slices.Sorted(maps.Keys(sets)) {
		c.Sets = append(c.Sets, *sets[id])
	}
	return c
}
