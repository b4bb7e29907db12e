package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	ra "rapidanalytics"
	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/datagen"
	"rapidanalytics/internal/rdf"
)

// dataScale names the graph every workload runs on: the composition of
// ra.NewWorkloadStore(1, …), about 106k triples.
const dataScale = "bsbm600x8+chem1200+pubmed3000"

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median, and the last set-up is the one the passes run on.
const setupRepeats = 5

// cellTimeout bounds one execution; hitting it is a failed operation.
const cellTimeout = 60 * time.Second

// scratchRoot holds what a run writes besides benchmark/out: the disk
// workload's data directory. The wrapper script builds into it too.
const scratchRoot = ".bench_build"

// workloadSpec is one of the four workloads. Names are permanent: a later
// change is judged against numbers recorded under them.
type workloadSpec struct {
	name    string
	systems []ra.System
	// queryIDs selects catalog queries; nil is the whole catalog.
	queryIDs []string
	// disk runs on the blockstore-backed DFS in a fresh directory with a
	// 64 KiB spill threshold; otherwise the DFS is in memory.
	disk bool
	// serve replays an HTTP schedule instead of sweeping prepared cells.
	serve bool
	// passSeconds is what one timed pass takes on the 2-core reference box.
	// It turns --seconds into a pass count before the run starts (see
	// timedPasses), and is part of the workload's definition: correcting it
	// changes the number of samples behind every median.
	passSeconds float64
	// shrink divides the generators' entity counts; only the unit tests
	// set it, to run the harness on a graph of a few thousand triples.
	shrink int
}

var workloads = []workloadSpec{
	{name: "ntga-mem", systems: []ra.System{ra.RAPIDPlus, ra.RAPIDAnalytics}, passSeconds: 2.5},
	{name: "hive-mem", systems: []ra.System{ra.HiveNaive, ra.HiveMQO}, passSeconds: 2.6},
	{name: "disk-spill", systems: ra.Systems(), disk: true, passSeconds: 2.3,
		queryIDs: []string{"MG1", "MG2", "MG3", "MG4", "MG13", "MG14", "MG15"}},
	{name: "serve-zipf", systems: []ra.System{ra.RAPIDAnalytics, ra.RAPIDPlus}, serve: true, passSeconds: 3.0},
}

func findWorkload(name string) (*workloadSpec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func (w *workloadSpec) queries() []bench.Query {
	if w.queryIDs == nil {
		return bench.Catalog
	}
	out := make([]bench.Query, 0, len(w.queryIDs))
	for _, id := range w.queryIDs {
		q, ok := bench.Get(id)
		if !ok {
			panic("benchmark bug: no catalog query " + id)
		}
		out = append(out, q)
	}
	return out
}

// spillThresholdBytes makes every NTGA map task of the disk workload spill
// its shuffle output and merge it back.
const spillThresholdBytes = 64 << 10

// serveResultCacheBytes is 3.0 MB, a little over a quarter of the 10.9 MB
// the result cache holds after the whole catalog ran once on both serving
// engines at seed 1 (final results plus RAPIDAnalytics' composite
// sub-relations). The serving working set is larger than the cache, so
// entries are evicted; the measured hit ratio is 0.77–0.81 over seeds 1–4.
const serveResultCacheBytes = 3_000_000

func (w *workloadSpec) options(dataDir string) ra.Options {
	o := ra.DefaultOptions()
	// Explicit, so that RAPID_STORAGE in the environment cannot move a
	// memory workload onto disk.
	o.Storage = ra.StorageMem
	if w.disk {
		o.Storage = ra.StorageDisk
		o.DataDir = dataDir
		o.SpillThresholdBytes = spillThresholdBytes
	}
	if w.serve {
		// cmd/rapidserver's defaults, except the result cache size.
		o.SharedScans = true
		o.ResultCacheBytes = serveResultCacheBytes
	}
	return o
}

// generate builds the graph for a seed. Seed 1 is the repository's
// canonical graph; seed n moves each generator's own seed by (n−1)·100.
//
// Statements the generators emit twice (about 250 of 106k: a publication
// drawing the same MeSH heading, chemical, author or grant again) are kept
// once. An RDF graph is a set, and the engines do not agree on what a
// repeated statement means: hive-mqo's DISTINCT counts a repeated pm:grant
// once, the other engines and the reference count it twice, so on seeds
// that repeat a grant (3, 4, 7, 8, 10, …) MG11, MG12, MG17 and MG18 return
// different counts on hive-mqo. That is the program's to settle; the
// benchmark keeps to inputs on which the answer is not in question.
func generate(seed int64, shrink int) *rdf.Graph {
	shift := (seed - 1) * 100
	b, c, p := datagen.BSBMSmall(), datagen.ChemDefault(), datagen.PubMedDefault()
	b.Seed += shift
	c.Seed += shift
	p.Seed += shift
	if shrink > 1 {
		b.Products /= shrink
		c.Compounds /= shrink
		p.Publications /= shrink
	}
	g := &rdf.Graph{}
	seen := map[rdf.Triple]bool{}
	for _, part := range []*rdf.Graph{datagen.GenerateBSBM(b), datagen.GenerateChem(c), datagen.GeneratePubMed(p)} {
		for _, t := range part.Triples {
			if !seen[t] {
				seen[t] = true
				g.Add(t)
			}
		}
	}
	return g
}

// cell is one (query, system) pair: prepared once, timed as one Execute.
type cell struct {
	query bench.Query
	sys   ra.System
	pq    *ra.PreparedQuery
}

func (c *cell) String() string { return c.query.ID + "/" + string(c.sys) }

// instance is a set-up program: a loaded store and its prepared cells.
type instance struct {
	spec  *workloadSpec
	store *ra.Store
	cells []cell
	// nt is the N-Triples document the store was loaded from; probes
	// rebuild layers from it.
	nt []byte
	// want is the oracle's row hash per query id.
	want map[string]uint64
}

// setUp is one full set-up, every step through the program's public API:
// generate → serialise → LoadNTriples → prepare every cell → first query
// (which builds both layouts, the dictionary and the statistics). Its wall
// time is one sample of setup_s.
func setUp(spec *workloadSpec, seed int64, dataDir string, tr *tracer) (*instance, time.Duration, error) {
	start := time.Now()
	root := tr.start(-1, "setup")
	defer tr.end(root)
	step := func(name string, fn func() error) error {
		id := tr.start(root, name)
		defer tr.end(id)
		if err := fn(); err != nil {
			return fmt.Errorf("setup %s: %w", name, err)
		}
		return nil
	}

	in := &instance{spec: spec}
	var g *rdf.Graph
	_ = step("gen", func() error { g = generate(seed, spec.shrink); return nil })
	err := step("ntriples", func() error {
		var buf bytes.Buffer
		err := rdf.WriteNTriples(&buf, g)
		in.nt = buf.Bytes()
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	err = step("ntriples_parse", func() error {
		in.store = ra.NewStore(spec.options(dataDir))
		return in.store.LoadNTriples(bytes.NewReader(in.nt))
	})
	if err != nil {
		return nil, 0, err
	}
	err = step("prepare", func() error {
		for _, sys := range spec.systems {
			for _, q := range spec.queries() {
				pq, err := in.store.Prepare(sys, q.SPARQL)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", q.ID, sys, err)
				}
				in.cells = append(in.cells, cell{query: q, sys: sys, pq: pq})
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	err = step("load", func() error {
		_, _, err := in.cells[0].pq.Execute(context.Background())
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return in, time.Since(start), nil
}

// setUpRepeatedly sets up setupRepeats times and keeps the last instance.
// Earlier instances are dropped (and their disk directories removed)
// before the next starts, so memory and disk hold one at a time.
func setUpRepeatedly(spec *workloadSpec, seed int64, dataRoot string, tr *tracer) (*instance, []float64, error) {
	var (
		in      *instance
		samples []float64
	)
	dirOf := func(i int) string { return filepath.Join(dataRoot, fmt.Sprintf("setup-%d", i)) }
	for i := 0; i < setupRepeats; i++ {
		in = nil
		dir := ""
		if spec.disk {
			dir = dirOf(i)
			if err := os.RemoveAll(dirOf(i - 1)); err != nil {
				return nil, nil, err
			}
		}
		// Collect the previous set-up now, not in the middle of this one.
		runtime.GC()
		// Only the kept set-up is traced: its spans feed the per-layer
		// metrics, the others only their wall time.
		var t *tracer
		if i == setupRepeats-1 {
			t = tr
		}
		next, d, err := setUp(spec, seed, dir, t)
		if err != nil {
			return nil, nil, err
		}
		in = next
		samples = append(samples, d.Seconds())
	}
	return in, samples, nil
}

// computeOracle evaluates every query of the workload on ra.Reference and
// keeps each canonical row hash. The reference evaluator is sequential and
// takes ~0.2 s a query, so queries are spread over the cores.
func (in *instance) computeOracle(tr *tracer) error {
	id := tr.start(-1, "oracle")
	defer tr.end(id)
	queries := in.spec.queries()
	hashes := make([]uint64, len(queries))
	errs := make([]error, len(queries))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				hashes[i], errs[i] = referenceHash(in.store, queries[i].SPARQL)
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
	in.want = make(map[string]uint64, len(queries))
	for i, q := range queries {
		if errs[i] != nil {
			return fmt.Errorf("oracle %s: %w", q.ID, errs[i])
		}
		in.want[q.ID] = hashes[i]
	}
	return nil
}

func referenceHash(store *ra.Store, sparql string) (uint64, error) {
	pq, err := store.Prepare(ra.Reference, sparql)
	if err != nil {
		return 0, err
	}
	res, _, err := pq.Execute(context.Background())
	if err != nil {
		return 0, err
	}
	return hashRows(res.Rows()), nil
}

// hashRows is the canonical row hash: the same for any order of the same
// rows, so "rows sorted" needs no sort. Each row is FNV-1a hashed over its
// cells, mixed, and the row hashes are added. It allocates nothing, which
// keeps the check out of allocs_per_pass.
func hashRows(rows [][]string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	total := uint64(len(rows)) * 0x9e3779b97f4a7c15
	for _, row := range rows {
		h := uint64(offset)
		for _, c := range row {
			for i := 0; i < len(c); i++ {
				h = (h ^ uint64(c[i])) * prime
			}
			h = (h ^ 0xff) * prime // cell separator: no byte of valid UTF-8
		}
		// splitmix64 finaliser, so that the sum is not linear in FNV's state.
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		total += h
	}
	return total
}
