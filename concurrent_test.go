package rapidanalytics_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	ra "rapidanalytics"
)

// secondQuery is a single-grouping variant over the shop graph, used to mix
// distinct plans in the stress test.
const secondQuery = `PREFIX e: <http://example.org/>
SELECT ?feature (COUNT(?pr) AS ?cnt)
{ ?p a e:Phone ; e:feature ?feature .
  ?o e:product ?p ; e:price ?pr . } GROUP BY ?feature ORDER BY ?feature`

// checkStoreClean fails t unless every query the store ran cleaned up
// after itself: no DFS handle open, no stream live, no intermediate left
// under tmp/.
func checkStoreClean(t *testing.T, store *ra.Store) {
	t.Helper()
	fs, err := ra.StoreFS(store)
	if err != nil {
		t.Fatal(err)
	}
	if n := fs.OpenHandles(); n != 0 {
		t.Errorf("%d DFS handles left open", n)
	}
	if n := fs.LiveStreams(); n != 0 {
		t.Errorf("%d streams left live", n)
	}
	if left := fs.List("tmp/"); len(left) != 0 {
		t.Errorf("%d intermediates left behind, first %s", len(left), left[0])
	}
}

// TestRepeatedQueriesLeaveNoIntermediates: a store serving the same
// queries over and over holds only its base layouts, whichever system
// ran them.
func TestRepeatedQueriesLeaveNoIntermediates(t *testing.T) {
	store := buildShop()
	for round := 0; round < 3; round++ {
		for _, q := range []string{exampleQuery, secondQuery} {
			for _, sys := range ra.Systems() {
				if _, _, err := store.Query(sys, q); err != nil {
					t.Fatalf("round %d %s: %v", round, sys, err)
				}
			}
		}
	}
	checkStoreClean(t, store)
}

func canonRows(res *ra.Result) string {
	rows := make([]string, res.Len())
	for i, r := range res.Rows() {
		rows[i] = strings.Join(r, "|")
	}
	return strings.Join(rows, "\n")
}

// TestConcurrentMixedQueries hammers one store with N goroutines issuing a
// mix of systems, query texts, and prepared/unprepared paths — the serving
// workload in miniature. Every result must match the single-threaded
// answer, and concurrent Add calls of pattern-irrelevant triples must not
// disturb in-flight queries.
func TestConcurrentMixedQueries(t *testing.T) {
	store := buildShop()

	queries := []string{exampleQuery, secondQuery}
	systems := []ra.System{ra.RAPIDAnalytics, ra.RAPIDPlus, ra.HiveNaive, ra.HiveMQO, ra.Reference}

	// Single-threaded ground truth per (query, system).
	want := map[string]string{}
	for qi, q := range queries {
		for _, sys := range systems {
			res, _, err := store.Query(sys, q)
			if err != nil {
				t.Fatalf("baseline %s q%d: %v", sys, qi, err)
			}
			key := fmt.Sprintf("%d/%s", qi, sys)
			want[key] = canonRows(res)
			if want[key] == "" {
				t.Fatalf("baseline %s q%d returned no rows", sys, qi)
			}
		}
	}

	const goroutines = 16
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				sys := systems[(g*iters+i)%len(systems)]
				key := fmt.Sprintf("%d/%s", qi, sys)
				var res *ra.Result
				var err error
				if i%2 == 0 {
					res, _, err = store.Query(sys, queries[qi])
				} else {
					var pq *ra.PreparedQuery
					pq, err = store.Prepare(sys, queries[qi])
					if err == nil {
						res, _, err = pq.Execute(context.Background())
					}
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d %s: %w", g, i, key, err)
					return
				}
				if got := canonRows(res); got != want[key] {
					errs <- fmt.Errorf("goroutine %d iter %d %s: rows diverged:\n%s\nwant:\n%s", g, i, key, got, want[key])
					return
				}
			}
		}(g)
	}
	// Concurrent mutations: triples in a foreign namespace match no query
	// pattern, so results must stay stable while Add interleaves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			store.Add(fmt.Sprintf("http://other.org/s%d", i), "http://other.org/p", ra.Literal("x"))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if stats := store.PlanCacheStats(); stats.Hits == 0 {
		t.Errorf("stress run recorded no plan cache hits: %+v", stats)
	}
	checkStoreClean(t, store)
}

func TestPrepareCacheHitAndCanonicalAlias(t *testing.T) {
	store := buildShop()
	pq1, err := store.Prepare(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if pq1.CacheHit() {
		t.Fatal("first Prepare must miss")
	}
	pq2, err := store.Prepare(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !pq2.CacheHit() {
		t.Fatal("repeated Prepare must hit")
	}
	// A different spelling (extra whitespace) shares the canonicalized
	// plan.
	respaced := strings.ReplaceAll(exampleQuery, "SELECT", "SELECT  ")
	pq3, err := store.Prepare(ra.RAPIDAnalytics, respaced)
	if err != nil {
		t.Fatal(err)
	}
	if pq3.Normalized() != pq1.Normalized() {
		t.Fatal("respaced query must normalize identically")
	}
	// Same text under a different system plans separately (cache is keyed
	// by system).
	pq4, err := store.Prepare(ra.HiveNaive, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if pq4.CacheHit() {
		t.Fatal("different system must not share the rapidanalytics entry")
	}
	if pq4.System() != ra.HiveNaive {
		t.Fatalf("System() = %s", pq4.System())
	}
}

func TestPlanCacheEviction(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.PlanCacheSize = 2
	store := ra.NewStore(opts)
	tmpl := `PREFIX e: <http://example.org/>
SELECT ?s (COUNT(?o%d) AS ?c) { ?s e:p%d ?o%d . } GROUP BY ?s`
	for i := 0; i < 4; i++ {
		q := fmt.Sprintf(tmpl, i, i, i)
		if _, err := store.Prepare(ra.Reference, q); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
	}
	stats := store.PlanCacheStats()
	if stats.Evictions == 0 {
		t.Fatalf("expected evictions with budget 2: %+v", stats)
	}
	if int64(stats.Entries) > stats.BudgetBytes || stats.BudgetBytes != 2 {
		t.Fatalf("entries exceed budget 2: %+v", stats)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.PlanCacheSize = -1
	store := ra.NewStore(opts)
	if _, err := store.Prepare(ra.Reference, secondQuery); err == nil {
		// No graph loaded; Prepare still compiles fine.
		if stats := store.PlanCacheStats(); stats.Hits != 0 || stats.Misses != 0 || stats.BudgetBytes != 0 {
			t.Fatalf("disabled cache recorded activity: %+v", stats)
		}
	} else {
		t.Fatal(err)
	}
}

func TestTypedErrors(t *testing.T) {
	store := buildShop()

	_, err := store.Prepare(ra.RAPIDAnalytics, "SELECT garbage {{{")
	if !errors.Is(err, ra.ErrParse) {
		t.Fatalf("syntax error = %v; want ErrParse", err)
	}
	_, _, err = store.Query(ra.System("spark"), exampleQuery)
	if !errors.Is(err, ra.ErrUnknownSystem) {
		t.Fatalf("bad system = %v; want ErrUnknownSystem", err)
	}
	compiled, err := ra.Compile(exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	// QueryCompiled skips Prepare, so execution checks the system too.
	if _, _, err = store.QueryCompiled(ra.System("spark"), compiled); !errors.Is(err, ra.ErrUnknownSystem) {
		t.Fatalf("bad system, compiled = %v; want ErrUnknownSystem", err)
	}
	_, err = ra.Compile("ASK { ?s ?p ?o }")
	if !errors.Is(err, ra.ErrParse) && !errors.Is(err, ra.ErrUnsupported) {
		t.Fatalf("non-analytical query = %v; want ErrParse or ErrUnsupported", err)
	}
	// SPARQL counts 3 here: the block matches px twice and py once, and
	// leaves pz's ?l unbound. The engines extend one pattern at a time and
	// would count 4, so a block of several patterns is rejected.
	_, err = ra.Compile(`PREFIX e: <http://example.org/>
SELECT (COUNT(?l) AS ?n) { ?p a e:Phone . OPTIONAL { ?p e:label ?l . ?p e:feature ?f } }`)
	if !errors.Is(err, ra.ErrUnsupported) {
		t.Fatalf("multi-pattern OPTIONAL block = %v; want ErrUnsupported", err)
	}
	for name, spec := range map[string]ra.RollupSpec{
		"no dims":    {Pattern: "?s ?p ?o .", Agg: "SUM", Var: "o"},
		"no pattern": {Agg: "SUM", Var: "o", Dims: []string{"d"}},
		"no var":     {Pattern: "?s ?p ?o .", Agg: "SUM", Dims: []string{"d"}},
		"bad agg":    {Pattern: "?s ?p ?o .", Agg: "MEDIAN", Var: "o", Dims: []string{"d"}},
		"dim is var": {Pattern: "?s ?p ?o .", Agg: "SUM", Var: "o", Dims: []string{"o"}},
	} {
		if _, err := ra.BuildRollup(spec); !errors.Is(err, ra.ErrUnsupported) {
			t.Errorf("BuildRollup(%s) = %v; want ErrUnsupported", name, err)
		}
	}

	pq, err := store.Prepare(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = pq.Execute(cancelled)
	if !errors.Is(err, ra.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execute = %v; want ErrCanceled wrapping context.Canceled", err)
	}

	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond) // let the deadline pass
	_, _, err = pq.Execute(expired)
	if !errors.Is(err, ra.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired execute = %v; want ErrTimeout wrapping DeadlineExceeded", err)
	}

	restore, err := ra.SetScans(store, panickingScans{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = store.Query(ra.HiveNaive, exampleQuery)
	restore()
	if !errors.Is(err, ra.ErrInternal) {
		t.Fatalf("panicking map task = %v; want ErrInternal", err)
	}

	// A DataDir that is a file cannot hold the load directories.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o666); err != nil {
		t.Fatal(err)
	}
	disk := ra.NewStore(ra.Options{Storage: ra.StorageDisk, DataDir: file})
	disk.Add("http://example.org/px", "http://example.org/label", ra.Literal("px"))
	if _, _, err := disk.Query(ra.HiveNaive, exampleQuery); !errors.Is(err, ra.ErrStorage) {
		t.Fatalf("unusable DataDir = %v; want ErrStorage", err)
	}
}

// TestConcurrentParallelReduceStableStats runs MapReduce-backed queries from
// many goroutines at once — each execution's reduce phase itself runs on the
// engine's parallel worker pool — and asserts that every run reports exactly
// the baseline's deterministic volume statistics while still recording
// per-phase wall times.
func TestConcurrentParallelReduceStableStats(t *testing.T) {
	store := buildShop()
	systems := []ra.System{ra.RAPIDAnalytics, ra.HiveNaive}

	type volumes struct {
		cycles, mapOnly int
		simSeconds      float64
		shuffle, mat    int64
	}
	baseline := map[ra.System]volumes{}
	baseRows := map[ra.System]string{}
	for _, sys := range systems {
		res, stats, err := store.Query(sys, exampleQuery)
		if err != nil {
			t.Fatalf("baseline %s: %v", sys, err)
		}
		baseline[sys] = volumes{stats.MRCycles, stats.MapOnlyCycles,
			stats.SimulatedSeconds, stats.ShuffleBytes, stats.MaterializedBytes}
		baseRows[sys] = canonRows(res)
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sys := systems[g%len(systems)]
			res, stats, err := store.Query(sys, exampleQuery)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d %s: %w", g, sys, err)
				return
			}
			got := volumes{stats.MRCycles, stats.MapOnlyCycles,
				stats.SimulatedSeconds, stats.ShuffleBytes, stats.MaterializedBytes}
			if got != baseline[sys] {
				errs <- fmt.Errorf("goroutine %d %s: volume stats diverged under concurrency: %+v != %+v",
					g, sys, got, baseline[sys])
				return
			}
			if canonRows(res) != baseRows[sys] {
				errs <- fmt.Errorf("goroutine %d %s: rows diverged under concurrency", g, sys)
				return
			}
			if stats.MapWall <= 0 {
				errs <- fmt.Errorf("goroutine %d %s: MapWall not recorded: %+v", g, sys, stats)
				return
			}
			for _, j := range stats.Jobs {
				if !j.MapOnly && j.ReduceTasks > 0 && j.ReduceWall < 0 {
					errs <- fmt.Errorf("goroutine %d %s: negative ReduceWall in cycle %s", g, sys, j.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkStoreClean(t, store)
}

// TestPrepareInvalidatedByMutation: plan-cache keys fold in the store's
// data version, so a Prepare after any mutation can never serve a plan
// built against the pre-mutation layouts and statistics — the old entry
// simply stops being addressable.
func TestPrepareInvalidatedByMutation(t *testing.T) {
	store := buildShop()
	if _, err := store.Prepare(ra.RAPIDAnalytics, exampleQuery); err != nil {
		t.Fatal(err)
	}
	pq, err := store.Prepare(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !pq.CacheHit() {
		t.Fatal("repeated Prepare must hit before the mutation")
	}
	store.Add("http://example.org/pq", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
		ra.IRI("http://example.org/Phone"))
	pq2, err := store.Prepare(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if pq2.CacheHit() {
		t.Fatal("Prepare after Add must not reuse the stale plan")
	}
	pq3, err := store.Prepare(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !pq3.CacheHit() {
		t.Fatal("Prepare must hit again once a plan exists for the new version")
	}
}

// TestStoreLockOrder runs every Store path that takes mu or loadMu from
// concurrent goroutines: Add takes mu and then loadMu, Query holds mu while
// it takes loadMu, and Prepare and SharedScanStats take loadMu alone. A
// path that took mu while holding loadMu would deadlock this mix; the
// watchdog turns that hang into a failure with every goroutine's stack.
func TestStoreLockOrder(t *testing.T) {
	store := buildShop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 40 {
					switch (g + i) % 4 {
					case 0:
						store.Add("http://example.org/px", "http://example.org/label", ra.Literal(fmt.Sprint(g, i)))
					case 1:
						if _, _, err := store.Query(ra.RAPIDAnalytics, exampleQuery); err != nil {
							t.Error(err)
						}
					case 2:
						if _, err := store.Prepare(ra.HiveNaive, exampleQuery); err != nil {
							t.Error(err)
						}
					case 3:
						store.SharedScanStats()
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Store locks deadlocked:\n%s", buf[:runtime.Stack(buf, true)])
	}
}
