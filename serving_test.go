package rapidanalytics_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	ra "rapidanalytics"
	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/leaktest"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/server"
)

// buildShopWith rebuilds the shop fixture under custom options.
func buildShopWith(t *testing.T, opts ra.Options) *ra.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := buildShop().WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	s := ra.NewStore(opts)
	if err := s.LoadNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResultCacheServesIdenticalResult(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 1 << 20
	store := buildShopWith(t, opts)

	first, st1, err := store.Query(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ResultCacheHit {
		t.Fatal("first execution reported a result-cache hit")
	}
	second, st2, err := store.Query(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ResultCacheHit {
		t.Fatal("second execution missed the result cache")
	}
	if st2.MRCycles != 0 {
		t.Errorf("cache hit ran %d MR cycles, want 0", st2.MRCycles)
	}
	if canonRows(first) != canonRows(second) {
		t.Fatalf("cached result diverged:\n%s\nvs\n%s", canonRows(first), canonRows(second))
	}
	cs := store.ResultCacheStats()
	if cs.Hits < 1 || cs.Entries < 1 || cs.Bytes <= 0 {
		t.Errorf("result cache stats look wrong: %+v", cs)
	}

	// A different system must not be served the rapidanalytics entry.
	other, st3, err := store.Query(ra.HiveNaive, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ResultCacheHit {
		t.Error("hive-naive hit a cache entry written by rapidanalytics")
	}
	if canonRows(other) != canonRows(first) {
		t.Fatalf("engines disagree: %s vs %s", canonRows(other), canonRows(first))
	}
}

// TestResultCacheKeyedByText checks both sides of the result-cache key:
// the same text hits, and a respaced text, which the key does not
// canonicalise, misses and answers the same rows.
func TestResultCacheKeyedByText(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 1 << 20
	store := buildShopWith(t, opts)

	first, _, err := store.Query(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := store.Query(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ResultCacheHit {
		t.Fatal("the same text missed the result cache")
	}
	respaced := strings.ReplaceAll(exampleQuery, "SELECT", "SELECT  ")
	other, st, err := store.Query(ra.RAPIDAnalytics, respaced)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHit {
		t.Fatal("a respaced text hit the result cache")
	}
	if st.MRCycles == 0 {
		t.Error("a result-cache miss ran no MR cycles")
	}
	if canonRows(other) != canonRows(first) {
		t.Fatalf("a respaced text answered differently:\n%s\nvs\n%s", canonRows(other), canonRows(first))
	}
}

// TestResultCacheHitTraced checks a WithTracing execution served from the
// cache still captures a span tree, tagged with the cache-hit span.
func TestResultCacheHitTraced(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 1 << 20
	store := buildShopWith(t, opts)
	if _, _, err := store.Query(ra.RAPIDAnalytics, exampleQuery); err != nil {
		t.Fatal(err)
	}
	_, st, err := store.QueryContext(ra.WithTracing(t.Context()), ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ResultCacheHit {
		t.Fatal("expected a result-cache hit")
	}
	if st.Span == nil {
		t.Fatal("traced cache hit captured no span tree")
	}
	found := false
	for _, c := range st.Span.Children {
		if c.Name == "cache-hit" {
			found = true
		}
	}
	if !found {
		t.Errorf("span tree lacks a cache-hit child: %s", st.Span.Tree())
	}
}

// TestResultCacheInvalidatedByMutation is the store-level half of the
// regression: Add bumps the data version (and rebuilds the statistics
// catalog), so a cached result keyed under the old catalog version must
// not be served.
func TestResultCacheInvalidatedByMutation(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 1 << 20
	store := buildShopWith(t, opts)

	before, _, err := store.Query(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	// A new offer for px changes both groupings' counts.
	ns := "http://example.org/"
	store.Add(ns+"o9", ns+"product", ra.IRI(ns+"px"))
	store.Add(ns+"o9", ns+"price", ra.Literal("777"))

	after, st, err := store.Query(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHit {
		t.Fatal("stale cached result served after mutation")
	}
	if canonRows(after) == canonRows(before) {
		t.Fatal("result did not change after mutation (fixture broken?)")
	}
	oracle, _, err := store.Query(ra.Reference, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if canonRows(after) != canonRows(oracle) {
		t.Fatalf("post-mutation result diverged from oracle:\n%s\nvs\n%s", canonRows(after), canonRows(oracle))
	}
}

// TestSubResultCacheReusesComposite runs two distinct query texts sharing
// one composite pattern: the second must reuse the cached composite
// matches (fewer MR cycles) and still agree with the oracle.
func TestSubResultCacheReusesComposite(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 1 << 20
	store := buildShopWith(t, opts)

	_, st1, err := store.Query(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, st2, err := store.Query(ra.RAPIDAnalytics, variantQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ResultCacheHit {
		t.Fatal("variant text unexpectedly hit the final-result cache")
	}
	if st2.MRCycles >= st1.MRCycles {
		t.Errorf("composite reuse did not shrink the workflow: %d cycles vs %d on first run",
			st2.MRCycles, st1.MRCycles)
	}
	oracle, _, err := store.Query(ra.Reference, variantQuery)
	if err != nil {
		t.Fatal(err)
	}
	if canonRows(res) != canonRows(oracle) {
		t.Fatalf("composite-reusing result diverged from oracle:\n%s\nvs\n%s", canonRows(res), canonRows(oracle))
	}
	// The cache holds the composite's content, not a file: neither query
	// leaves a stream, an intermediate or a handle behind.
	checkStoreClean(t, store)
}

// TestSubResultCacheInvalidatedByMutation pins the composite half of the
// staleness regression: a composite cached before Add must not be reused
// after it. Two things keep it out today: the data version in the cache key
// and the load number in the dataset name the core keys by; the test fails
// when both are removed.
func TestSubResultCacheInvalidatedByMutation(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 1 << 20
	store := buildShopWith(t, opts)

	if _, _, err := store.Query(ra.RAPIDAnalytics, exampleQuery); err != nil {
		t.Fatal(err)
	}
	ns := "http://example.org/"
	store.Add(ns+"o9", ns+"product", ra.IRI(ns+"px"))
	store.Add(ns+"o9", ns+"price", ra.Literal("777"))

	res, st, err := store.Query(ra.RAPIDAnalytics, variantQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHit {
		t.Fatal("variant text unexpectedly hit the final-result cache")
	}
	oracle, _, err := store.Query(ra.Reference, variantQuery)
	if err != nil {
		t.Fatal(err)
	}
	if canonRows(res) != canonRows(oracle) {
		t.Fatalf("post-mutation result reused a stale composite:\n%s\nvs oracle\n%s", canonRows(res), canonRows(oracle))
	}
}

// variantQuery has exampleQuery's composite patterns under a different
// final ordering: a final-result miss but a sub-result hit.
const variantQuery = `PREFIX e: <http://example.org/>
SELECT ?feature ?cntF ?cntT {
  { SELECT ?feature (COUNT(?pr2) AS ?cntF)
    { ?p2 a e:Phone ; e:label ?l2 ; e:feature ?feature .
      ?o2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?feature }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:Phone ; e:label ?l1 .
      ?o1 e:product ?p1 ; e:price ?pr . } }
}`

// TestConcurrentColdQueriesAgree fires a burst of identical queries at a
// cold store built with cmd/rapidserver's options: whether a query runs or
// finds what a sibling cached, it returns the rows of a store without
// caches.
func TestConcurrentColdQueriesAgree(t *testing.T) {
	want, _, err := buildShop().Query(ra.RAPIDAnalytics, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}

	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 64 << 20
	store := buildShopWith(t, opts)

	const concurrent = 6
	var wg sync.WaitGroup
	results := make([]*ra.Result, concurrent)
	errs := make([]error, concurrent)
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _, errs[i] = store.Query(ra.RAPIDAnalytics, exampleQuery)
		}()
	}
	wg.Wait()

	for i := range concurrent {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if canonRows(results[i]) != canonRows(want) {
			t.Fatalf("query %d diverged in the burst:\n%s\nvs\n%s",
				i, canonRows(results[i]), canonRows(want))
		}
	}
	// Each query that built the composite offered it to the cache, and
	// each deleted its own files: none outlives the burst.
	checkStoreClean(t, store)
}

// A panic inside a map task is contained to its query: the store returns
// ErrInternal, the server answers 500, and the next query is served.
func TestTaskPanicIsInternalError(t *testing.T) {
	leaktest.Check(t)
	store := buildShopWith(t, ra.DefaultOptions())
	srv := server.New(store, server.Config{})
	query := func() (int, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(exampleQuery), nil))
		return rec.Code, rec.Body.String()
	}
	restore := ra.SetPanickingMaps(store)
	if _, _, err := store.Query(ra.HiveNaive, exampleQuery); !errors.Is(err, ra.ErrInternal) || !errors.Is(err, mapred.ErrTaskPanic) {
		t.Fatalf("Query error = %v, want ErrInternal wrapping mapred.ErrTaskPanic", err)
	}
	if code, body := query(); code != http.StatusInternalServerError || !strings.Contains(body, "injected map-task panic") {
		t.Fatalf("status %d, body %s; want 500 naming the panic", code, body)
	}
	restore()
	if code, body := query(); code != http.StatusOK {
		t.Fatalf("query after the panic: status %d, body %s", code, body)
	}
}

// rewriteFile replaces the stored file name with recs, at its compression
// ratio.
func rewriteFile(t *testing.T, fs *dfs.FS, name string, ratio float64, recs [][]byte) {
	t.Helper()
	w, err := fs.Create(name, ratio)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		w.Write(rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// One corrupt record in a stored layout either fails a Hive query or
// leaves its answer unchanged: a broadcast side never drops the record
// silently, and its failure names the file. Each file in turn gets its first record replaced by
// one of the same length whose arity exceeds its bytes, so the map-join
// budget sees the same sizes.
func TestCorruptSideRecordFailsQuery(t *testing.T) {
	store := buildShopWith(t, ra.DefaultOptions())
	fs, err := ra.StoreFS(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []ra.System{ra.HiveNaive, ra.HiveMQO} {
		clean, _, err := store.Query(sys, exampleQuery)
		if err != nil {
			t.Fatal(err)
		}
		sides := 0
		for _, name := range fs.List("store/") {
			f, err := fs.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := f.AllRecords()
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 || len(recs[0]) >= 0x7f {
				continue
			}
			corrupt := slices.Clone(recs)
			corrupt[0] = bytes.Clone(recs[0])
			corrupt[0][0] = 0x7f
			rewriteFile(t, fs, name, f.CompressionRatio(), corrupt)
			res, _, err := store.Query(sys, exampleQuery)
			rewriteFile(t, fs, name, f.CompressionRatio(), recs)
			switch {
			case err == nil:
				if !reflect.DeepEqual(res.Rows(), clean.Rows()) {
					t.Errorf("%s with %s corrupt: rows %v, want %v or an error", sys, name, res.Rows(), clean.Rows())
				}
			case strings.Contains(err.Error(), "broadcast side"):
				if !strings.Contains(err.Error(), name) {
					t.Errorf("%s with %s corrupt: error %q does not name the file", sys, name, err)
				}
				sides++
			}
		}
		if sides == 0 {
			t.Errorf("%s: no corrupt broadcast side failed the query", sys)
		}
	}
}

// runMGRounds runs 20 rounds of the catalog's multi-grouping queries on
// rapidanalytics over NewWorkloadStore(0.2) with a result cache of
// cacheBytes, calling check after each round.
func runMGRounds(t *testing.T, cacheBytes int64, check func(round int, store *ra.Store)) {
	t.Helper()
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = cacheBytes
	store := ra.NewWorkloadStore(0.2, opts)
	var mg []string
	for _, q := range bench.Catalog {
		if strings.HasPrefix(q.ID, "MG") {
			mg = append(mg, q.SPARQL)
		}
	}
	for round := range 20 {
		for _, q := range mg {
			if _, _, err := store.Query(ra.RAPIDAnalytics, q); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		check(round, store)
	}
}

// TestRefusedSubResultLeavesNoStream: a composite relation the sub-result
// cache refuses is deleted with the other intermediates. With a 1-byte
// result cache no Put is accepted, so after 20 rounds of the MG queries on
// rapidanalytics no stream outlives its query.
func TestRefusedSubResultLeavesNoStream(t *testing.T) {
	runMGRounds(t, 1, func(round int, store *ra.Store) {
		if round == 19 {
			checkStoreClean(t, store)
		}
	})
}

// TestEvictedSubResultLeavesNoStream: under a 300,000-byte result cache,
// smaller than the MG queries' composites and results together, the LRU
// evicts and replaces composite entries every round; no execution leaves
// a stream behind, whichever entries the cache holds.
func TestEvictedSubResultLeavesNoStream(t *testing.T) {
	runMGRounds(t, 300_000, func(round int, store *ra.Store) {
		fs, err := ra.StoreFS(store)
		if err != nil {
			t.Fatal(err)
		}
		if n := fs.LiveStreams(); n != 0 {
			t.Fatalf("round %d: %d streams live", round, n)
		}
		if round == 19 {
			checkStoreClean(t, store)
		}
	})
}

// TestResultRowsOutliveTheirFiles: a result's cells are views of its output
// file's records, not copies. On every system, the rows of a first
// execution equal the oracle's after the execution deleted that file and
// after 20 further executions under a result cache smaller than the
// working set, which evicts.
func TestResultRowsOutliveTheirFiles(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 16 << 10
	store := ra.NewWorkloadStore(0.2, opts)
	var mg []string
	for _, q := range bench.Catalog {
		if strings.HasPrefix(q.ID, "MG") {
			mg = append(mg, q.SPARQL)
		}
	}
	oracle, _, err := store.Query(ra.Reference, mg[0])
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Len() == 0 {
		t.Fatalf("%s returns no rows", mg[0])
	}
	// sorted is canonRows in row order: MG1 has no ORDER BY.
	sorted := func(res *ra.Result) string {
		rows := strings.Split(canonRows(res), "\n")
		slices.Sort(rows)
		return strings.Join(rows, "\n")
	}
	want := sorted(oracle)
	systems := ra.Systems()
	firsts := make([]*ra.Result, len(systems))
	texts := make([]string, len(systems))
	for i, sys := range systems {
		if firsts[i], _, err = store.Query(sys, mg[0]); err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		texts[i] = strings.Clone(firsts[i].String())
	}
	for i := range 20 {
		sys, q := systems[i%len(systems)], mg[1+i%(len(mg)-1)]
		if _, _, err := store.Query(sys, q); err != nil {
			t.Fatalf("execution %d (%s): %v", i, sys, err)
		}
	}
	if cs := store.ResultCacheStats(); cs.Evictions == 0 {
		t.Fatalf("the result cache never evicted: %+v", cs)
	}
	for i, res := range firsts {
		if got := sorted(res); got != want {
			t.Errorf("%s: rows after their file was deleted:\n%s\nwant\n%s", systems[i], got, want)
		}
		if s := res.String(); s != texts[i] {
			t.Errorf("%s: result text changed:\n%s\nwas\n%s", systems[i], s, texts[i])
		}
	}
}
