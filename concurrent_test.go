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

// A repeated Prepare hits the plan cache, on any system: a compilation
// holds no data and no engine writes to it, so every system shares it.
func TestPrepareCacheHitAcrossSystems(t *testing.T) {
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
	// The cache is keyed by the text: a different spelling (extra
	// whitespace) compiles separately and answers the same rows.
	respaced := strings.ReplaceAll(exampleQuery, "SELECT", "SELECT  ")
	pq3, err := store.Prepare(ra.RAPIDAnalytics, respaced)
	if err != nil {
		t.Fatal(err)
	}
	if pq3.CacheHit() {
		t.Fatal("a respaced text must compile separately")
	}
	res1, _, err := pq1.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res3, _, err := pq3.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res3.Rows()) != fmt.Sprint(res1.Rows()) {
		t.Fatalf("a respaced text must answer the same rows: %v vs %v", res3.Rows(), res1.Rows())
	}
	pq4, err := store.Prepare(ra.HiveNaive, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !pq4.CacheHit() {
		t.Fatal("the same text on another system must reuse the compilation")
	}
	if pq4.System() != ra.HiveNaive {
		t.Fatalf("System() = %s", pq4.System())
	}
}

// TestPlanCacheEviction fills the plan cache's fixed budget and one plan
// more: the oldest plan is evicted and the entries never exceed the budget.
func TestPlanCacheEviction(t *testing.T) {
	store := ra.NewStore(ra.DefaultOptions())
	budget := store.PlanCacheStats().BudgetBytes
	if budget <= 0 {
		t.Fatalf("plan cache budget = %d, want positive", budget)
	}
	tmpl := `PREFIX e: <http://example.org/>
SELECT ?s (COUNT(?o%d) AS ?c) { ?s e:p%d ?o%d . } GROUP BY ?s`
	for i := int64(0); i <= budget; i++ {
		q := fmt.Sprintf(tmpl, i, i, i)
		if _, err := store.Prepare(ra.Reference, q); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
	}
	stats := store.PlanCacheStats()
	if stats.Evictions == 0 {
		t.Fatalf("expected evictions past budget %d: %+v", budget, stats)
	}
	if int64(stats.Entries) > budget {
		t.Fatalf("entries exceed budget %d: %+v", budget, stats)
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
	// SPARQL reads this as Join(LeftJoin(P1, O), P2): only the pattern
	// after the block binds its subject, which is not well-designed.
	_, err = ra.Compile(`PREFIX e: <http://example.org/>
SELECT ?p (COUNT(?o) AS ?n) { ?p a e:Phone . OPTIONAL { ?o e:delivery ?d } ?o e:product ?p } GROUP BY ?p`)
	if !errors.Is(err, ra.ErrUnsupported) {
		t.Fatalf("OPTIONAL block before its subject's binder = %v; want ErrUnsupported", err)
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

	restore := ra.SetPanickingMaps(store)
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

// A query prepared before Add sees the new triple when it executes, on
// every system: planning against the store's layouts and statistics
// happens at execution, not at Prepare.
func TestPreparedQuerySeesLaterAdd(t *testing.T) {
	for _, sys := range []ra.System{ra.RAPIDAnalytics, ra.RAPIDPlus, ra.HiveNaive, ra.HiveMQO, ra.Reference} {
		store := buildShop()
		pq, err := store.Prepare(sys, exampleQuery)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pq.Execute(context.Background()); err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		// A fifth offer, for the phone with both features.
		store.Add("http://example.org/o5", "http://example.org/product", ra.IRI("http://example.org/px"))
		store.Add("http://example.org/o5", "http://example.org/price", ra.Literal("700"))
		res, _, err := pq.Execute(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if got, want := fmt.Sprint(res.Rows()), "[[http://example.org/5G 4 5] [http://example.org/OLED 3 5]]"; got != want {
			t.Errorf("%s after Add: rows %s, want %s", sys, got, want)
		}
	}
}

// TestStoreLockOrder runs Store paths that take mu or loadMu from
// concurrent goroutines: Add takes mu and then loadMu, Query holds mu while
// it takes loadMu, Prepare takes neither, and DataVersion takes loadMu
// alone. A path that took mu while holding loadMu would deadlock this mix;
// the watchdog turns that hang into a failure with every goroutine's stack.
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
						ra.DataVersion(store)
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
