package stats

import (
	"math"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/rdf"
)

// Estimator predicts star and join cardinalities for one decomposed graph
// pattern from a dataset's statistics catalog. It implements
// algebra.CardEstimator. Two output units are supported, selected by rows:
//
//   - triplegroup mode (rows=false): a star's cardinality is the number of
//     matching subjects — what the NTGA engines shuffle, one annotated
//     triplegroup per subject;
//   - relational mode (rows=true): a star's cardinality is the number of
//     result rows after the star's self-joins — variable-object properties
//     multiply by their average fan-out within each characteristic set, the
//     unit the Hive engines materialise.
//
// All per-star quantities are precomputed at construction; the StarCard /
// JoinCard calls on the per-cycle execution path are arithmetic only.
type Estimator struct {
	cat  *Catalog
	rows bool
	// card and subjects are indexed by star: predicted output cardinality
	// and predicted distinct matching subjects.
	card     []float64
	subjects []float64
}

// NewEstimator builds an estimator for a pattern whose stars require the
// given property references (StarPattern.Props for plain patterns,
// CompositeStar.PrimaryRefs for composite ones).
func NewEstimator(cat *Catalog, stars [][]algebra.PropRef, rows bool) *Estimator {
	e := &Estimator{
		cat:      cat,
		rows:     rows,
		card:     make([]float64, len(stars)),
		subjects: make([]float64, len(stars)),
	}
	for i, refs := range stars {
		e.subjects[i], e.card[i] = e.starStats(refs)
	}
	return e
}

// starStats computes a star's predicted distinct subjects and output
// cardinality: the sum over characteristic sets containing every required
// equivalence-class key of the set's subjects, scaled by 1/distinct(obj)
// for each non-type constant-object reference (uniformity assumption —
// Schmidt et al.'s sel(p=o) = 1/|range(p)|), and, in relational mode,
// multiplied by each variable-object property's average fan-out within the
// set (|t(p) ∩ set|/|set|).
func (e *Estimator) starStats(refs []algebra.PropRef) (subjects, card float64) {
	if len(refs) == 0 {
		// A star with no bound required property (pure unbound pattern)
		// matches every subject.
		for _, cs := range e.cat.Sets {
			subjects += float64(cs.Subjects)
		}
		return subjects, subjects
	}
	// Constant-object selectivity is set-independent; compute it once.
	sel := 1.0
	for _, r := range refs {
		if r.HasConstObj() && r.Prop != rdf.RDFType {
			sel /= math.Max(1, float64(e.cat.Preds[r.Prop].DistinctObj))
		}
	}
	for _, cs := range e.cat.Sets {
		match := true
		for _, r := range refs {
			if !cs.Has(algebra.ECKeyForRef(r)) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		s := float64(cs.Subjects) * sel
		subjects += s
		rows := s
		if e.rows {
			for _, r := range refs {
				if r.HasConstObj() {
					continue
				}
				rows *= float64(cs.PropCounts[algebra.ECKeyForRef(r)]) / float64(cs.Subjects)
			}
		}
		card += rows
	}
	return subjects, card
}

// StarCard implements algebra.CardEstimator: the predicted cardinality of
// one star's filtered scan output.
//
//rapid:hot
func (e *Estimator) StarCard(star int) float64 {
	if star < 0 || star >= len(e.card) {
		return 1
	}
	return math.Max(1, e.card[star])
}

// StarSubjects returns the predicted number of distinct subjects matching a
// star — the distinct-value count of its subject variable.
func (e *Estimator) StarSubjects(star int) float64 {
	if star < 0 || star >= len(e.subjects) {
		return 1
	}
	return math.Max(1, e.subjects[star])
}

// JoinCard implements algebra.CardEstimator: the predicted output
// cardinality of joining inputs of cardinality left and right on edge j,
// |L ⋈ R| = |L|·|R| / max(d(L), d(R)) with d the distinct join-variable
// count at each endpoint — subjects for subject-role endpoints, the
// carrying properties' distinct objects for object-role endpoints
// (Schmidt et al.'s independence-based equi-join estimate).
//
//rapid:hot
func (e *Estimator) JoinCard(left, right float64, j algebra.Join) float64 {
	dl := e.endpointDistinct(j.Left, j.LeftRole, j.LeftProps)
	dr := e.endpointDistinct(j.Right, j.RightRole, j.RightProps)
	return left * right / math.Max(1, math.Max(dl, dr))
}

// endpointDistinct estimates the distinct join-variable values at one join
// endpoint.
//
//rapid:hot
func (e *Estimator) endpointDistinct(star int, role algebra.Role, props []algebra.PropRef) float64 {
	if role == algebra.RoleSubject {
		return e.StarSubjects(star)
	}
	d := math.Inf(1)
	for _, p := range props {
		if pd := float64(e.cat.Preds[p.Prop].DistinctObj); pd < d {
			d = pd
		}
	}
	if math.IsInf(d, 1) {
		return 1
	}
	return math.Max(1, d)
}

// PartitionsFor maps a predicted output cardinality onto a reduce partition
// count — the planner's reduce-worker-count choice. Roughly one partition
// per 4096 predicted rows, clamped to [1, 16] (the simulated reduce-task
// schedule still comes from the cost model; partitions shape execution
// parallelism only).
//
//rapid:hot
func PartitionsFor(predicted float64) int {
	p := int(predicted / 4096)
	if p < 1 {
		return 1
	}
	if p > 16 {
		return 16
	}
	return p
}
