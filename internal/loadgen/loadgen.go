// Package loadgen builds log-realistic serving workloads over the
// evaluation query catalog.
//
// Real SPARQL endpoint logs (DBpedia, Wikidata) are dominated by a small
// set of hot query templates repeated with Zipfian frequency, punctuated
// by bursts of one template arriving nearly simultaneously (dashboards
// refreshing, retry storms). The generator reproduces that shape
// deterministically: a seeded Zipf draw picks each slot's template, and
// every BurstEvery slots a burst of BurstSize consecutive requests for one
// of the hottest templates is injected. The benchmark's serve-zipf
// workload (benchmark/serve.go) replays the schedule against the HTTP
// server and checks every response against a row-hash oracle.
package loadgen

import (
	"math/rand"

	"rapidanalytics/internal/bench"
)

// Template is one workload query template.
type Template struct {
	// ID is the catalog identifier ("G1", "MG13", ...).
	ID string
	// SPARQL is the query text.
	SPARQL string
}

// CatalogTemplates returns the full evaluation catalog as workload
// templates, in catalog order (the Zipf draw makes earlier entries
// hotter).
func CatalogTemplates() []Template {
	out := make([]Template, 0, len(bench.Catalog))
	for _, q := range bench.Catalog {
		out = append(out, Template{ID: q.ID, SPARQL: q.SPARQL})
	}
	return out
}

// The schedule's engine mix: of every 20 draws, 17 on average target
// rapidanalytics and 3 rapid+.
const (
	primarySystem   = "rapidanalytics"
	secondarySystem = "rapid+"
	primaryWeight   = 17
	totalWeight     = 20
)

// zipfV is the Zipf draw's value offset.
const zipfV = 1

// ScheduleOptions tunes the workload generator. Zero fields select the
// defaults.
type ScheduleOptions struct {
	// Seed seeds the deterministic draw; equal seeds give equal schedules.
	Seed int64
	// Requests is the total schedule length (default 200).
	Requests int
	// ZipfS is the Zipf skew exponent (default 1.1; must be > 1).
	ZipfS float64
	// BurstEvery injects a burst after every this many slots (default 40;
	// negative disables bursts).
	BurstEvery int
	// BurstSize is how many consecutive requests a burst repeats one hot
	// template for (default 8).
	BurstSize int
}

func (o ScheduleOptions) withDefaults() ScheduleOptions {
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.ZipfS <= 1 {
		o.ZipfS = 1.1
	}
	if o.BurstEvery == 0 {
		o.BurstEvery = 40
	}
	if o.BurstSize <= 0 {
		o.BurstSize = 8
	}
	return o
}

// Request is one scheduled query execution.
type Request struct {
	// Slot is the request's position in the schedule.
	Slot int `json:"slot"`
	// TemplateID names the catalog template.
	TemplateID string `json:"templateId"`
	// SPARQL is the query text.
	SPARQL string `json:"-"`
	// System is the engine the request targets.
	System string `json:"system"`
	// Burst marks requests injected as part of a burst.
	Burst bool `json:"burst,omitempty"`
}

// Schedule generates a deterministic log-realistic request schedule over
// the templates: Zipf-skewed repetition with periodic hot-template bursts.
func Schedule(templates []Template, opts ScheduleOptions) []Request {
	o := opts.withDefaults()
	if len(templates) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(o.Seed))
	var zipf *rand.Zipf
	if len(templates) > 1 {
		zipf = rand.NewZipf(rng, o.ZipfS, zipfV, uint64(len(templates)-1))
	}
	pickSystem := func() string {
		if rng.Intn(totalWeight) < primaryWeight {
			return primarySystem
		}
		return secondarySystem
	}

	reqs := make([]Request, 0, o.Requests)
	sinceBurst := 0
	for len(reqs) < o.Requests {
		if o.BurstEvery > 0 && sinceBurst >= o.BurstEvery {
			sinceBurst = 0
			hot := templates[rng.Intn(min(3, len(templates)))]
			sys := pickSystem()
			for i := 0; i < o.BurstSize && len(reqs) < o.Requests; i++ {
				reqs = append(reqs, Request{
					Slot: len(reqs), TemplateID: hot.ID, SPARQL: hot.SPARQL,
					System: sys, Burst: true,
				})
			}
			continue
		}
		idx := 0
		if zipf != nil {
			idx = int(zipf.Uint64())
		}
		t := templates[idx]
		reqs = append(reqs, Request{
			Slot: len(reqs), TemplateID: t.ID, SPARQL: t.SPARQL,
			System: pickSystem(),
		})
		sinceBurst++
	}
	return reqs
}
