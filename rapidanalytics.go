// Package rapidanalytics is a Go implementation of RAPIDAnalytics, the
// SPARQL analytical query optimizer of "Optimization of Complex SPARQL
// Analytical Queries" (EDBT 2016), together with everything it runs on: a
// simulated MapReduce cluster with an exact cost model, vertically
// partitioned and triplegroup RDF storage, and the three baseline engines
// the paper evaluates against (Hive Naive, Hive MQO, RAPID+).
//
// The central idea: an analytical query's related groupings range over
// overlapping graph patterns. RAPIDAnalytics detects the overlap, rewrites
// the patterns into one composite graph pattern evaluated once (sharing
// scans and star joins), and computes all grouping-aggregations in a single
// parallel Agg-Join cycle — e.g. 3 MapReduce cycles instead of Hive's 9 for
// the paper's MG1.
//
// Quick start:
//
//	store := rapidanalytics.NewStore(rapidanalytics.DefaultOptions())
//	store.Add("http://e/p1", "http://e/price", rapidanalytics.Literal("42"))
//	...
//	res, stats, err := store.Query(rapidanalytics.RAPIDAnalytics, sparqlText)
//	fmt.Print(res)                 // result table
//	fmt.Println(stats.MRCycles)    // how many MapReduce cycles it took
package rapidanalytics

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/core"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/hive"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/plancache"
	"rapidanalytics/internal/rapid"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/share"
	"rapidanalytics/internal/sparql"
	"rapidanalytics/internal/tgops"
)

// System identifies one of the four evaluated engines, plus the in-memory
// reference evaluator.
type System string

// The available systems.
const (
	// RAPIDAnalytics is the paper's contribution: composite graph pattern
	// rewriting with parallel triplegroup Agg-Joins.
	RAPIDAnalytics System = "rapidanalytics"
	// RAPIDPlus is the naive NTGA baseline (sequential pattern
	// evaluation).
	RAPIDPlus System = "rapid+"
	// HiveNaive is the relational SPARQL→HiveQL-style baseline.
	HiveNaive System = "hive-naive"
	// HiveMQO is the multi-query-optimization rewriting baseline.
	HiveMQO System = "hive-mqo"
	// Reference evaluates the query directly in memory (no MapReduce); its
	// Stats are zero. Used as the correctness oracle.
	Reference System = "reference"
)

// Systems lists the MapReduce-backed systems in the paper's presentation
// order.
func Systems() []System {
	return []System{HiveNaive, HiveMQO, RAPIDPlus, RAPIDAnalytics}
}

// Options configures the simulated cluster a store's queries run on.
type Options struct {
	// Nodes is the simulated cluster size (paper: 10, 50 or 60).
	Nodes int
	// DataScale extrapolates measured data volumes before cost modelling,
	// so simulated seconds are comparable to a dataset DataScale times
	// larger than the loaded one. 1 means no extrapolation.
	DataScale float64
	// PlanCacheSize bounds the store's LRU plan cache: a budget in which
	// every plan counts 1. 0 means the default of 128; negative disables
	// plan caching entirely.
	PlanCacheSize int
	// Storage selects the simulated DFS backend: StorageMem (the default)
	// keeps every record in memory; StorageDisk materialises files as
	// sharded blockstore segments under DataDir. Output bytes are identical
	// on both. Empty honors the RAPID_STORAGE environment variable,
	// defaulting to memory.
	Storage string
	// DataDir roots disk-backed storage. Empty uses a fresh directory under
	// the OS temp dir. Each (re)materialisation of the store's layouts
	// writes under a new load-numbered subdirectory; a mutation removes
	// the superseded one, which no query can still be reading.
	DataDir string
	// SpillThresholdBytes bounds each map task's buffered shuffle output:
	// past the threshold, partition buffers are sorted and spilled to the
	// DFS and merged back during the shuffle. 0 disables spilling. Query
	// results and output bytes are identical for every setting.
	SpillThresholdBytes int64
	// SharedScans batches concurrent in-flight queries' scans of identical
	// base-layout file ranges into one shared pass per cycle window
	// (internal/share) — serving-time MQO across query boundaries. Results
	// are identical either way. Disabled by DefaultOptions; the serving
	// layer (cmd/rapidserver) enables it.
	SharedScans bool
	// SharedScanWindow is how long the first scanner of a range waits for
	// concurrent queries to join its cycle. 0 selects share.DefaultWindow;
	// negative shares only exactly-simultaneous arrivals.
	SharedScanWindow time.Duration
	// ResultCacheBytes bounds a byte-budget LRU caching final query results
	// and reusable composite sub-relations, keyed by (system, canonical
	// query form, data version) so no entry survives a data mutation. 0
	// disables result caching (the default).
	ResultCacheBytes int64
}

// Storage backends selectable through Options.Storage and the -storage
// flag of cmd/rapidanalytics and cmd/rapidserver.
const (
	// StorageMem keeps the simulated DFS in memory (the default).
	StorageMem = "mem"
	// StorageDisk persists DFS files as sharded blockstore segment files.
	StorageDisk = "disk"
)

// DefaultOptions returns a 10-node cluster with no data-scale
// extrapolation.
func DefaultOptions() Options {
	return Options{
		Nodes:     10,
		DataScale: 1,
	}
}

// Term is an RDF term accepted by Store.Add.
type Term struct {
	value     string
	isLiteral bool
}

// IRI makes an IRI term.
func IRI(v string) Term { return Term{value: v} }

// Literal makes a literal term.
func Literal(v string) Term { return Term{value: v, isLiteral: true} }

// Store holds an RDF graph and lazily materialises it into the simulated
// cluster's storage layouts (vertical partitioning for the Hive engines, a
// subject-triplegroup store for the NTGA engines) on first query.
//
// A Store is safe for concurrent use. Concurrency model: readers/writers on
// the graph are serialised by an RWMutex — every query holds the read lock
// for its whole execution, and mutations (Add, LoadNTriples) take the write
// lock, so a mutation waits for in-flight queries to drain and queries never
// observe a half-applied batch. This favours the serving workload (many
// concurrent read-only queries, rare bulk loads) over mutation latency;
// snapshot semantics were rejected because the reference evaluator and the
// lazy materialisation both walk the live graph.
type Store struct {
	opts Options

	// mu guards graph contents against in-flight queries (see above).
	mu    sync.RWMutex
	graph *rdf.Graph

	// loadMu guards the lazily materialised cluster state. It is always
	// acquired after mu (never the reverse), so the order is deadlock-free.
	loadMu  sync.Mutex
	cluster *mapred.Cluster
	ds      *engine.Dataset
	loads   int
	// reclaimErr is a failure to remove a superseded disk load, reported
	// by the next materialisation (Add has no error to return it in).
	reclaimErr error
	// dataVersion counts mutation-triggered layout invalidations. It is
	// folded into every plan, result and sub-relation cache key, so an
	// entry cached before a reload — against the previous data and
	// statistics catalog — can never be served after one (guarded by
	// loadMu, like the state it versions).
	dataVersion uint64

	// plans caches compiled plans; nil when disabled. Compilation itself is
	// data-independent (parse + overlap detection + composite rewrite), but
	// keys include dataVersion so entries from before a mutation cannot
	// outlive the statistics they were cached alongside.
	plans *plancache.Cache

	// results caches final result tables and composite sub-relations under
	// one byte budget; nil when disabled. Keys embed dataVersion, so entries
	// from before a mutation stop being addressable and age out of the LRU.
	results *plancache.Cache

	// scans is the current load's shared-scan scheduler (nil unless
	// Options.SharedScans); scanStatsBase accumulates counters from
	// superseded loads so SharedScanStats stays monotonic across reloads.
	// Both are guarded by loadMu.
	scans         *share.Scheduler
	scanStatsBase share.Stats
}

// NewStore returns an empty store.
func NewStore(opts Options) *Store {
	if opts.Nodes <= 0 {
		opts.Nodes = 10
	}
	if opts.Storage == "" {
		opts.Storage = os.Getenv("RAPID_STORAGE")
	}
	if opts.Storage == "" {
		opts.Storage = StorageMem
	}
	if opts.DataScale <= 0 {
		opts.DataScale = 1
	}
	var plans *plancache.Cache
	if opts.PlanCacheSize >= 0 {
		size := opts.PlanCacheSize
		if size == 0 {
			size = 128
		}
		plans = plancache.New(int64(size))
	}
	var results *plancache.Cache
	if opts.ResultCacheBytes > 0 {
		results = plancache.New(opts.ResultCacheBytes)
	}
	return &Store{opts: opts, graph: &rdf.Graph{}, plans: plans, results: results}
}

// Add appends one triple. The subject and property are IRIs. Add blocks
// until in-flight queries finish.
func (s *Store) Add(subject, property string, object Term) {
	obj := rdf.NewIRI(object.value)
	if object.isLiteral {
		obj = rdf.NewLiteral(object.value)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graph.Add(rdf.T(rdf.NewIRI(subject), rdf.NewIRI(property), obj))
	s.invalidateLayouts()
}

// AddGraph appends a whole internal graph (used by the generators).
func (s *Store) addGraph(g *rdf.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graph.Add(g.Triples...)
	s.invalidateLayouts()
}

// invalidateLayouts drops the materialised storage layouts after a
// mutation and bumps the data version cache keys are scoped by. Callers
// hold s.mu for writing, so no query holds a snapshot of the superseded
// load: on disk its directory is removed, once its FS confirms that every
// handle it handed out was closed.
func (s *Store) invalidateLayouts() {
	s.loadMu.Lock()
	if s.ds != nil && s.opts.Storage == StorageDisk {
		dir := s.loadDir()
		if n := s.cluster.FS.OpenHandles(); n != 0 {
			s.reclaimErr = fmt.Errorf("reclaiming %s: %d handles still open", dir, n)
		} else if err := os.RemoveAll(dir); err != nil {
			s.reclaimErr = fmt.Errorf("reclaiming %s: %w", dir, err)
		}
	}
	s.cluster, s.ds = nil, nil
	s.dataVersion++
	if s.scans != nil {
		s.scanStatsBase = s.scanStatsBase.Add(s.scans.Stats())
		s.scans = nil
	}
	s.loadMu.Unlock()
}

// currentDataVersion reads the mutation counter under loadMu.
func (s *Store) currentDataVersion() uint64 {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	return s.dataVersion
}

// LoadNTriples reads an N-Triples document into the store.
func (s *Store) LoadNTriples(r io.Reader) error {
	g, err := rdf.ReadNTriples(r)
	if err != nil {
		return err
	}
	s.addGraph(g)
	return nil
}

// WriteNTriples serialises the store's graph.
func (s *Store) WriteNTriples(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return rdf.WriteNTriples(w, s.graph)
}

// NumTriples returns the number of statements added, repeats included.
// Queries read the graph as a set: a repeated statement counts once.
func (s *Store) NumTriples() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.graph.Len()
}

// ensureLoaded materialises the storage layouts (once) and returns the
// cluster and dataset to execute on. Callers hold s.mu.RLock, so the graph
// cannot change underneath the materialisation. Every failure to set up or
// write the layouts, and an earlier failure to reclaim a superseded load,
// matches ErrStorage.
func (s *Store) ensureLoaded() (*mapred.Cluster, *engine.Dataset, error) {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if s.ds == nil {
		if err := s.load(); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrStorage, err)
		}
	}
	return s.cluster, s.ds, nil
}

// load materialises the storage layouts into s.cluster and s.ds. Callers
// hold s.loadMu.
func (s *Store) load() error {
	if err := s.reclaimErr; err != nil {
		s.reclaimErr = nil
		return err
	}
	cfg := mapred.VCL10(s.opts.DataScale)
	cfg.Nodes = s.opts.Nodes
	cfg.SpillThresholdBytes = s.opts.SpillThresholdBytes
	s.loads++
	fs, err := s.newFS()
	if err != nil {
		return err
	}
	cluster := mapred.NewClusterFS(cfg, fs)
	if s.opts.SharedScans {
		// Share only base-layout scans: per-query tmp/ intermediates
		// have unique names and would pay the window for nothing.
		s.scans = share.New(fs, share.Options{
			Window: s.opts.SharedScanWindow,
			Prefix: "store/",
		})
		cluster.Scans = s.scans
	}
	ds, err := engine.Load(cluster, fmt.Sprintf("store/%d", s.loads), s.graph)
	if err != nil {
		return err
	}
	s.cluster, s.ds = cluster, ds
	return nil
}

// newFS builds the DFS for one materialisation of the store's layouts.
// Each disk-backed load gets its own load-numbered directory (loadDir),
// removed when a mutation supersedes it.
func (s *Store) newFS() (*dfs.FS, error) {
	switch s.opts.Storage {
	case StorageMem:
		return dfs.New(), nil
	case StorageDisk:
		if s.opts.DataDir == "" {
			d, err := os.MkdirTemp("", "rapidanalytics-")
			if err != nil {
				return nil, err
			}
			s.opts.DataDir = d
		}
		return dfs.NewDisk(s.loadDir(), 0)
	default:
		return nil, fmt.Errorf("unknown storage backend %q (want %q or %q)", s.opts.Storage, StorageMem, StorageDisk)
	}
}

// loadDir is the directory of the current disk-backed load.
func (s *Store) loadDir() string {
	return filepath.Join(s.opts.DataDir, fmt.Sprintf("load-%d", s.loads))
}

// Stats summarises one query execution.
type Stats struct {
	// System that executed the query.
	System System
	// MRCycles is the number of MapReduce cycles in the workflow.
	MRCycles int
	// MapOnlyCycles counts cycles without a reduce phase.
	MapOnlyCycles int
	// SimulatedSeconds is the cost model's cluster-time estimate.
	SimulatedSeconds float64
	// ShuffleBytes and MaterializedBytes are measured volumes.
	ShuffleBytes      int64
	MaterializedBytes int64
	// MapWall, ShuffleSortWall and ReduceWall are the measured wall-clock
	// times the in-process engine spent in each execution phase. Unlike the
	// deterministic volume fields, they describe this machine and this run.
	MapWall         time.Duration
	ShuffleSortWall time.Duration
	ReduceWall      time.Duration
	// ResultCacheHit reports that the whole result table was served from
	// the store's versioned result cache: no MapReduce cycles ran and the
	// volume fields above are zero.
	ResultCacheHit bool
	// Jobs traces each MapReduce cycle in execution order.
	Jobs []JobStats
	// Span is the execution's hierarchical span tree (query → planner →
	// cycle → phase → operator → task), captured only when the query ran
	// under a WithTracing context; nil otherwise.
	Span *TraceSpan
}

// TraceSpan is one node of a captured span tree. See Stats.Span.
type TraceSpan = obs.Snapshot

// WithTracing marks the context so query executions under it capture a
// hierarchical span tree into Stats.Span. Tracing adds per-task span
// bookkeeping; untraced executions pay nothing.
func WithTracing(ctx context.Context) context.Context {
	return obs.Enable(ctx)
}

// JobStats traces one MapReduce cycle.
type JobStats struct {
	// Name identifies the cycle in the engine's plan.
	Name string
	// MapOnly reports whether the cycle had no reduce phase.
	MapOnly bool
	// SimulatedSeconds is the cycle's cost-model estimate.
	SimulatedSeconds float64
	// InputRecords, ShuffleBytes and OutputBytes are measured volumes.
	InputRecords int64
	ShuffleBytes int64
	OutputBytes  int64
	// MapTasks and ReduceTasks are the simulated task counts.
	MapTasks    int
	ReduceTasks int
	// MapWall, ShuffleSortWall and ReduceWall are the cycle's measured
	// in-process phase times on this machine.
	MapWall         time.Duration
	ShuffleSortWall time.Duration
	ReduceWall      time.Duration
}

// Trace renders the per-cycle execution trace as an aligned table. The
// cycle column widens to the longest label, so long MQO plan names (e.g.
// gp3-distinct with a map-only suffix) keep the numeric columns aligned.
func (s *Stats) Trace() string {
	names := make([]string, len(s.Jobs))
	width := len("cycle")
	for i, j := range s.Jobs {
		names[i] = j.Name
		if j.MapOnly {
			names[i] += " (map-only)"
		}
		if len(names[i]) > width {
			width = len(names[i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %8s %10s %12s %12s %6s %6s %8s %8s %8s\n",
		width, "cycle", "sim-s", "records", "shuffle B", "output B", "maps", "reds",
		"map-ms", "sort-ms", "red-ms")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for i, j := range s.Jobs {
		fmt.Fprintf(&b, "%-*s %8.0f %10d %12d %12d %6d %6d %8.2f %8.2f %8.2f\n",
			width, names[i], j.SimulatedSeconds, j.InputRecords, j.ShuffleBytes, j.OutputBytes,
			j.MapTasks, j.ReduceTasks, ms(j.MapWall), ms(j.ShuffleSortWall), ms(j.ReduceWall))
	}
	return b.String()
}

// TraceTree renders the captured span tree as an indented tree with wall,
// record and byte columns. Empty when the query did not run under a
// WithTracing context.
func (s *Stats) TraceTree() string { return s.Span.Tree() }

// TraceJSON serialises the captured span tree as indented JSON, or nil when
// no trace was captured.
func (s *Stats) TraceJSON() ([]byte, error) {
	if s.Span == nil {
		return nil, nil
	}
	return s.Span.JSON()
}

// Result is a query result table. Values are display forms: IRIs and
// literal lexical forms for grouping columns, numbers for aggregates.
type Result struct {
	Columns []string
	rows    [][]string
	raw     *engine.Result
}

// Rows returns the result rows.
func (r *Result) Rows() [][]string { return r.rows }

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.rows) }

// String renders an aligned table.
func (r *Result) String() string { return r.raw.Pretty() }

func (s *Store) engineFor(sys System) (engine.Engine, error) {
	switch sys {
	case RAPIDAnalytics:
		e := core.New()
		if s.results != nil {
			e.SubResults = subResultCache{c: s.results, version: s.currentDataVersion()}
		}
		return e, nil
	case RAPIDPlus:
		return rapid.New(), nil
	case HiveNaive:
		return hive.NewNaive(), nil
	case HiveMQO:
		return hive.NewMQO(), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownSystem, sys)
	}
}

// validSystem reports whether sys names an executable system (including the
// in-memory Reference oracle).
func validSystem(sys System) bool {
	switch sys {
	case RAPIDAnalytics, RAPIDPlus, HiveNaive, HiveMQO, Reference:
		return true
	}
	return false
}

// Query parses and runs a SPARQL analytical query on the chosen system.
// Compilation goes through the store's plan cache; repeated query texts skip
// the parse → overlap-detection → composite-rewrite pipeline.
func (s *Store) Query(sys System, query string) (*Result, *Stats, error) {
	return s.QueryContext(context.Background(), sys, query)
}

// QueryContext is Query bound to a context: execution aborts between
// MapReduce records/groups/cycles once ctx is done, returning an error
// matching ErrTimeout or ErrCanceled.
func (s *Store) QueryContext(ctx context.Context, sys System, query string) (*Result, *Stats, error) {
	pq, err := s.Prepare(sys, query)
	if err != nil {
		return nil, nil, err
	}
	return pq.Execute(ctx)
}

// PreparedQuery is a compiled plan bound to a store and system, ready for
// repeated (and concurrent) execution. Obtain one with Store.Prepare.
type PreparedQuery struct {
	store    *Store
	sys      System
	q        *Compiled
	cacheHit bool
}

// Prepare parses, validates and plans a query for the chosen system,
// consulting the store's LRU plan cache first. The cache is keyed by
// (system, data version, query text) and additionally by (system, data
// version, canonicalized text), so differently-formatted spellings of one
// query share a plan but no entry survives a mutation of the store: a
// reload after Add rebuilds the statistics catalog, and plans cached
// against the previous version simply stop being addressable. Errors match
// ErrParse, ErrUnsupported or ErrUnknownSystem.
func (s *Store) Prepare(sys System, query string) (*PreparedQuery, error) {
	if !validSystem(sys) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSystem, sys)
	}
	if s.plans == nil {
		c, err := Compile(query)
		if err != nil {
			return nil, err
		}
		return &PreparedQuery{store: s, sys: sys, q: c}, nil
	}
	version := s.currentDataVersion()
	rawKey := plancache.VersionedKey(string(sys), version, query)
	if v, ok := s.plans.Get(rawKey); ok {
		return &PreparedQuery{store: s, sys: sys, q: v.(*Compiled), cacheHit: true}, nil
	}
	c, err := Compile(query)
	if err != nil {
		return nil, err
	}
	canonKey := plancache.VersionedKey(string(sys), version, c.Normalized())
	if canonKey != rawKey {
		if v, ok := s.plans.Get(canonKey); ok {
			// Another spelling of the same query is already planned; alias
			// this spelling to the shared plan.
			c = v.(*Compiled)
			s.plans.Put(rawKey, c, 1)
			return &PreparedQuery{store: s, sys: sys, q: c, cacheHit: true}, nil
		}
		s.plans.Put(rawKey, c, 1)
	}
	s.plans.Put(canonKey, c, 1)
	return &PreparedQuery{store: s, sys: sys, q: c}, nil
}

// Execute runs the prepared plan. It is safe to call concurrently from many
// goroutines; each call executes independently under ctx.
func (p *PreparedQuery) Execute(ctx context.Context) (*Result, *Stats, error) {
	return p.store.run(ctx, p.sys, p.q)
}

// System returns the system the plan was prepared for.
func (p *PreparedQuery) System() System { return p.sys }

// Normalized renders the prepared query in canonical SPARQL form.
func (p *PreparedQuery) Normalized() string { return p.q.Normalized() }

// CacheHit reports whether Prepare served this plan from the cache.
func (p *PreparedQuery) CacheHit() bool { return p.cacheHit }

// PlanCacheStats returns a snapshot of the plan cache counters (zero when
// caching is disabled).
func (s *Store) PlanCacheStats() plancache.Stats {
	if s.plans == nil {
		return plancache.Stats{}
	}
	return s.plans.Stats()
}

// ResultCacheStats returns a snapshot of the result/sub-relation cache
// counters (zero when Options.ResultCacheBytes is 0).
func (s *Store) ResultCacheStats() plancache.Stats {
	if s.results == nil {
		return plancache.Stats{}
	}
	return s.results.Stats()
}

// SharedScanStats returns the shared-scan scheduler counters, accumulated
// across dataset rematerialisations (zero when Options.SharedScans is
// off).
func (s *Store) SharedScanStats() share.Stats {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if s.scans == nil {
		return s.scanStatsBase
	}
	return s.scanStatsBase.Add(s.scans.Stats())
}

// Compiled is a parsed and validated analytical query, reusable across
// stores and systems.
type Compiled struct {
	aq     *algebra.AnalyticalQuery
	parsed *sparql.Query
	src    string

	normOnce sync.Once
	norm     string
}

// Compile parses and validates a SPARQL analytical query. Syntax failures
// match ErrParse; valid SPARQL outside the analytical fragment matches
// ErrUnsupported.
func Compile(query string) (*Compiled, error) {
	parsed, err := sparql.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	aq, err := algebra.Build(parsed)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnsupported, err)
	}
	return &Compiled{aq: aq, parsed: parsed, src: query}, nil
}

// Normalized renders the query in canonical SPARQL form (sorted prologue,
// compacted IRIs, grouped predicate lists). The rendering is memoised: the
// serving layer calls this on every execution to key the result cache.
func (c *Compiled) Normalized() string {
	c.normOnce.Do(func() { c.norm = sparql.Format(c.parsed) })
	return c.norm
}

// QueryCompiled runs a pre-compiled query, bypassing the plan cache.
func (s *Store) QueryCompiled(sys System, q *Compiled) (*Result, *Stats, error) {
	return s.run(context.Background(), sys, q)
}

func (s *Store) run(ctx context.Context, sys System, q *Compiled) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, wrapContextErr(ctx, err)
	}
	// Hold the read lock for the whole execution: mutations wait, queries
	// proceed in parallel (see the Store doc comment).
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sys == Reference {
		res, err := refimpl.Execute(s.graph, q.aq)
		if err != nil {
			return nil, nil, err
		}
		return wrapResult(res), &Stats{System: sys}, nil
	}
	eng, err := s.engineFor(sys)
	if err != nil {
		return nil, nil, err
	}
	// A WithTracing context gets a root span; engines and the MR cluster
	// attach planner/cycle spans to it through the same context.
	var root *obs.Span
	if obs.Enabled(ctx) {
		root = obs.New(obs.KindQuery, string(sys))
		ctx = obs.NewContext(ctx, root)
	}
	cluster, ds, err := s.ensureLoaded()
	if err != nil {
		return nil, nil, err
	}
	// Result cache: the key folds in the data version, so a mutation makes
	// every prior entry unaddressable — stale results cannot be served.
	var resultKey plancache.Key
	if s.results != nil {
		resultKey = plancache.VersionedKey("res:"+string(sys), s.currentDataVersion(), q.Normalized())
		if v, ok := s.results.Get(resultKey); ok {
			hit := v.(*Result)
			sp := root.StartChild(obs.KindPlanner, "cache-hit")
			sp.End()
			root.End()
			stats := &Stats{System: sys, ResultCacheHit: true}
			stats.Span = root.Snapshot()
			return hit, stats, nil
		}
	}
	res, wm, err := eng.Execute(cluster.WithContext(ctx), ds, q.aq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, wrapContextErr(ctx, err)
		}
		if errors.Is(err, mapred.ErrTaskPanic) {
			return nil, nil, fmt.Errorf("%w: %w", ErrInternal, err)
		}
		return nil, nil, err
	}
	root.End()
	mapNs, shuffleSortNs, reduceNs := wm.PhaseWalls()
	stats := &Stats{
		System:            sys,
		MRCycles:          wm.Cycles(),
		MapOnlyCycles:     wm.MapOnlyCycles(),
		SimulatedSeconds:  wm.SimSeconds(),
		ShuffleBytes:      wm.ShuffleBytes(),
		MaterializedBytes: wm.MaterializedBytes(),
		MapWall:           time.Duration(mapNs),
		ShuffleSortWall:   time.Duration(shuffleSortNs),
		ReduceWall:        time.Duration(reduceNs),
	}
	for _, j := range wm.Jobs {
		shuffle := j.MapOutputBytes
		if j.MapOnly {
			shuffle = 0
		}
		stats.Jobs = append(stats.Jobs, JobStats{
			Name:             j.Job,
			MapOnly:          j.MapOnly,
			SimulatedSeconds: j.SimSeconds,
			InputRecords:     j.MapInputRecords,
			ShuffleBytes:     shuffle,
			OutputBytes:      j.OutputBytes,
			MapTasks:         j.SimulatedMapTasks,
			ReduceTasks:      j.SimulatedRedTasks,
			MapWall:          time.Duration(j.MapWallNs),
			ShuffleSortWall:  time.Duration(j.ShuffleSortWallNs),
			ReduceWall:       time.Duration(j.ReduceWallNs),
		})
	}
	stats.Span = root.Snapshot()
	result := wrapResult(res)
	if s.results != nil {
		// Cached results are shared read-only across future executions;
		// Result exposes no mutators, so sharing is safe.
		s.results.Put(resultKey, result, resultBytes(result))
	}
	return result, stats, nil
}

// resultBytes accounts a cached result table: cell and column bytes plus
// slice/string header overhead per row and cell.
func resultBytes(r *Result) int64 {
	const headerOverhead = 24
	var n int64
	for _, col := range r.Columns {
		n += int64(len(col)) + headerOverhead
	}
	for _, row := range r.rows {
		n += headerOverhead
		for _, cell := range row {
			n += int64(len(cell)) + headerOverhead
		}
	}
	return n
}

// subResultCache adapts the store's byte-budget cache to the core engine's
// composite sub-relation seam. Keys fold in the data version current when
// the engine was built (the engine is per-execution, under the store read
// lock), so a relation cached under an earlier load — whose files the new
// load's DFS does not hold — is never served, however the core names its
// datasets. The "comp" namespace separates the seam from final results
// (the "res:<system>" namespaces).
type subResultCache struct {
	c       *plancache.Cache
	version uint64
}

// Get implements core.SubResultCache.
func (a subResultCache) Get(key string) (tgops.Source, bool) {
	v, ok := a.c.Get(plancache.VersionedKey("comp", a.version, key))
	if !ok {
		return tgops.Source{}, false
	}
	return v.(tgops.Source), true
}

// Put implements core.SubResultCache.
func (a subResultCache) Put(key string, src tgops.Source, bytes int64) {
	a.c.Put(plancache.VersionedKey("comp", a.version, key), src, bytes)
}

// wrapResult renders an engine result for display: every cell lands in one
// flat slice, and each row is a capped sub-slice of it.
func wrapResult(res *engine.Result) *Result {
	n := 0
	for _, r := range res.Rows {
		n += len(r)
	}
	cells := make([]string, 0, n)
	rows := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		start := len(cells)
		for _, v := range r {
			cells = append(cells, engine.Display(v))
		}
		rows[i] = cells[start:len(cells):len(cells)]
	}
	return &Result{Columns: res.Columns, rows: rows, raw: res}
}

// Explain describes how RAPIDAnalytics would evaluate the query: the
// detected pattern overlap, the composite graph pattern with its primary
// and secondary properties, the per-pattern α conditions, and the predicted
// MapReduce cycle counts for every system.
func Explain(query string) (string, error) {
	q, err := Compile(query)
	if err != nil {
		return "", err
	}
	aq := q.aq
	var b strings.Builder
	fmt.Fprintf(&b, "analytical query: %d grouping(s)\n", len(aq.Subqueries))
	for _, sq := range aq.Subqueries {
		group := "ALL"
		if !sq.GroupByAll() {
			group = "?" + strings.Join(sq.GroupBy, ", ?")
		}
		fmt.Fprintf(&b, "  GP%d: %s\n       GROUP BY %s, %d aggregate(s)\n", sq.ID+1, abbreviate(sq.Pattern.String()), group, len(sq.Aggs))
	}
	if len(aq.Subqueries) >= 2 {
		cp, err := algebra.BuildComposite(aq.Subqueries)
		if err != nil {
			fmt.Fprintf(&b, "patterns do NOT overlap (%v); engines fall back to sequential evaluation\n", err)
		} else {
			fmt.Fprintf(&b, "patterns overlap; composite pattern GP' = %s  (secondary properties marked '?')\n", abbreviate(cp.String()))
			for k := 0; k < cp.NumPatterns; k++ {
				var conds []string
				for _, cs := range cp.Stars {
					for _, ref := range cs.RequiredSecondaryFor(k) {
						conds = append(conds, shortProp(ref.Key())+" != {}")
					}
				}
				if len(conds) == 0 {
					conds = []string{"true"}
				}
				fmt.Fprintf(&b, "  α(GP%d): %s\n", k+1, strings.Join(conds, " ∧ "))
			}
		}
	}
	b.WriteString("predicted MapReduce cycles:\n")
	for _, sys := range Systems() {
		fmt.Fprintf(&b, "  %-14s %d\n", string(sys), PredictCycles(q, sys))
	}
	return b.String(), nil
}

func shortProp(key string) string {
	if i := strings.Index(key, "="); i >= 0 {
		return shortProp(key[:i]) + "=" + shortProp(strings.TrimPrefix(key[i+1:], "I"))
	}
	if i := strings.LastIndexAny(key, "/#"); i >= 0 && i+1 < len(key) {
		return key[i+1:]
	}
	return key
}

// abbreviate shortens every IRI inside a pattern rendering to its local
// name, keeping the structural punctuation.
func abbreviate(pattern string) string {
	var b strings.Builder
	token := strings.Builder{}
	flush := func() {
		if token.Len() > 0 {
			b.WriteString(shortProp(token.String()))
			token.Reset()
		}
	}
	for _, r := range pattern {
		switch r {
		case '{', '}', ',', ' ', '⋈', '?':
			flush()
			b.WriteRune(r)
		default:
			token.WriteRune(r)
		}
	}
	flush()
	return b.String()
}

// PredictCycles returns the number of MapReduce cycles a system's plan for
// the query has. It runs the system's engine on an empty in-memory store:
// an engine's workflow follows from the query, not the data (map-join
// decisions change which cycles are map-only but never how many run). The
// Reference evaluator and unknown systems run no cycles and return 0.
func PredictCycles(q *Compiled, sys System) int {
	s := NewStore(Options{Storage: StorageMem, PlanCacheSize: -1})
	_, stats, err := s.QueryCompiled(sys, q)
	if err != nil {
		return 0
	}
	return stats.MRCycles
}
