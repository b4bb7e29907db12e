// Package stats collects the load-time statistics catalog the cost-based
// planner consumes: per-predicate triple counts with distinct subject/object
// counts, and characteristic sets — the star-shaped co-occurrence classes of
// the triplegroup store — with per-property triple totals. The catalog is
// built in one pass over the graph during engine.Load (alongside the Dict
// build) and read by the estimator in this package to predict
// triple-pattern, star and join cardinalities (the selectivity framework of
// Schmidt et al., "Foundations of SPARQL Query Optimization").
package stats

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"strings"

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
// exactly this combination of equivalence-class keys (the same keys the
// triplegroup store shards on — "type="+object for rdf:type, else the
// property IRI). PropCounts holds the total triples per key across the
// set's subjects, so PropCounts[k]/Subjects is the average fan-out of k
// within the set.
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
	// Version is a content hash of the catalog, folded into plan-cache keys
	// so cached plans do not survive statistics drift.
	Version uint64 `json:"version"`
}

// ECKey returns the equivalence-class key of a (predicate, object-key)
// pair, mirroring the triplegroup store's sharding key: rdf:type triples
// class by their object, every other predicate by its IRI.
func ECKey(prop, objKey string) string {
	if prop == rdf.RDFType {
		return "type=" + objKey
	}
	return prop
}

// Collect builds the catalog in a single pass over the graph: predicate
// counts with distinct subject/object sets, and subjects grouped into
// characteristic sets by the equivalence-class keys they carry.
func Collect(g *rdf.Graph) *Catalog {
	type predAgg struct {
		count int64
		subj  map[string]struct{}
		obj   map[string]struct{}
	}
	preds := map[string]*predAgg{}
	perSubject := map[string]map[string]int64{} // subject key -> EC key -> triples
	for _, t := range g.Triples {
		sk := t.Subject.Key()
		pa := preds[t.Property.Value]
		if pa == nil {
			pa = &predAgg{subj: map[string]struct{}{}, obj: map[string]struct{}{}}
			preds[t.Property.Value] = pa
		}
		pa.count++
		pa.subj[sk] = struct{}{}
		pa.obj[t.Object.Key()] = struct{}{}
		m := perSubject[sk]
		if m == nil {
			m = map[string]int64{}
			perSubject[sk] = m
		}
		m[ECKey(t.Property.Value, t.Object.Key())]++
	}

	c := &Catalog{Triples: int64(g.Len()), Preds: make(map[string]PredStat, len(preds))}
	for p, pa := range preds {
		c.Preds[p] = PredStat{
			Count:        pa.count,
			DistinctSubj: int64(len(pa.subj)),
			DistinctObj:  int64(len(pa.obj)),
		}
	}
	sets := map[string]*CharSet{}
	for _, m := range perSubject {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		id := strings.Join(keys, "\x00")
		cs := sets[id]
		if cs == nil {
			cs = &CharSet{Props: keys, PropCounts: make(map[string]int64, len(m))}
			sets[id] = cs
		}
		cs.Subjects++
		for k, n := range m {
			cs.PropCounts[k] += n
		}
	}
	ids := make([]string, 0, len(sets))
	for id := range sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c.Sets = make([]CharSet, len(ids))
	for i, id := range ids {
		c.Sets[i] = *sets[id]
	}
	c.Version = c.hash()
	return c
}

// hash computes the catalog's content hash over a canonical rendering.
func (c *Catalog) hash() uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	// Maps need deterministic order; encoding/json sorts map keys, so the
	// struct encodes canonically as long as Sets are sorted (Collect sorts
	// them).
	v := c.Version
	c.Version = 0
	_ = enc.Encode(c)
	c.Version = v
	return h.Sum64()
}

// Pred returns the statistics of a predicate (the zero PredStat when the
// predicate does not occur in the data).
func (c *Catalog) Pred(p string) PredStat { return c.Preds[p] }
