package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	ra "rapidanalytics"
	"rapidanalytics/internal/leaktest"
)

// testQuery is a two-grouping analytical query over the tiny shop graph;
// RAPIDAnalytics answers it in 4 MapReduce cycles.
const testQuery = `PREFIX e: <http://example.org/>
SELECT ?feature ?cntF ?cntT {
  { SELECT ?feature (COUNT(?pr2) AS ?cntF)
    { ?p2 a e:Phone ; e:label ?l2 ; e:feature ?feature .
      ?o2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?feature }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:Phone ; e:label ?l1 .
      ?o1 e:product ?p1 ; e:price ?pr . } }
} ORDER BY ?feature`

// wantRows are testQuery's rows on the shop graph, in ORDER BY order.
var wantRows = [][]string{
	{"http://example.org/5G", "3", "4"},
	{"http://example.org/OLED", "2", "4"},
}

func shopStore() *ra.Store { return shopStoreWith(ra.DefaultOptions()) }

func shopStoreWith(opts ra.Options) *ra.Store {
	store := ra.NewStore(opts)
	ns := "http://example.org/"
	typ := ns + "Phone"
	add := func(s, p string, o ra.Term) { store.Add(ns+s, ns+p, o) }
	for _, p := range []struct {
		id       string
		features []string
	}{
		{"px", []string{"5G", "OLED"}},
		{"py", []string{"5G"}},
		{"pz", nil},
	} {
		store.Add(ns+p.id, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", ra.IRI(typ))
		add(p.id, "label", ra.Literal(p.id))
		for _, f := range p.features {
			add(p.id, "feature", ra.IRI(ns+f))
		}
	}
	for _, o := range [][3]string{
		{"o1", "px", "900"}, {"o2", "px", "850"}, {"o3", "py", "500"}, {"o4", "pz", "200"},
	} {
		add(o[0], "product", ra.IRI(ns+o[1]))
		add(o[0], "price", ra.Literal(o[2]))
	}
	return store
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(shopStore(), cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, string(body)
}

func decodeResult(t *testing.T, body string) resultBody {
	t.Helper()
	var rb resultBody
	if err := json.Unmarshal([]byte(body), &rb); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return rb
}

func checkRows(t *testing.T, rb resultBody) {
	t.Helper()
	if len(rb.Rows) != len(wantRows) {
		t.Fatalf("got %d rows %v; want %d", len(rb.Rows), rb.Rows, len(wantRows))
	}
	for i := range wantRows {
		if strings.Join(rb.Rows[i], "|") != strings.Join(wantRows[i], "|") {
			t.Fatalf("row %d = %v; want %v", i, rb.Rows[i], wantRows[i])
		}
	}
}

func TestHappyPathGETJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/sparql?query="+url.QueryEscape(testQuery))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s; want 200", status, body)
	}
	rb := decodeResult(t, body)
	if len(rb.Columns) != 3 {
		t.Fatalf("columns = %v; want 3", rb.Columns)
	}
	checkRows(t, rb)
	if rb.Stats.System != string(ra.RAPIDAnalytics) || rb.Stats.MRCycles == 0 {
		t.Fatalf("stats = %+v; want rapidanalytics with >0 cycles", rb.Stats)
	}
}

func TestHappyPathPOSTFormAndRawBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"query": {testQuery}, "system": {string(ra.Reference)}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST form: status %d, body %s", resp.StatusCode, body)
	}
	rb := decodeResult(t, string(body))
	checkRows(t, rb)
	if rb.Stats.System != string(ra.Reference) {
		t.Fatalf("system = %s; want reference", rb.Stats.System)
	}

	resp, err = http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST raw: status %d, body %s", resp.StatusCode, body)
	}
	checkRows(t, decodeResult(t, string(body)))
}

func TestTSVFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/sparql?format=tsv&query="+url.QueryEscape(testQuery))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) != 1+len(wantRows) {
		t.Fatalf("tsv lines = %d (%q); want %d", len(lines), body, 1+len(wantRows))
	}
	if got := strings.Split(lines[1], "\t"); strings.Join(got, "|") != strings.Join(wantRows[0], "|") {
		t.Fatalf("tsv row 1 = %v; want %v", got, wantRows[0])
	}
}

func TestParseErrorReturns400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/sparql?query="+url.QueryEscape("SELECT WHERE garbage {{{"))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s; want 400", status, body)
	}
	if !strings.Contains(body, "parse error") {
		t.Fatalf("body %q does not name the parse error", body)
	}
}

func TestUnknownSystemReturns400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/sparql?system=spark&query="+url.QueryEscape(testQuery))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s; want 400", status, body)
	}
	if !strings.Contains(body, "unknown system") {
		t.Fatalf("body %q does not name the unknown system", body)
	}
}

func TestMissingQueryReturns400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, _ := get(t, ts.URL+"/sparql"); status != http.StatusBadRequest {
		t.Fatalf("status = %d; want 400", status)
	}
}

func TestQueryTimeoutReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{QueryTimeout: time.Nanosecond})
	status, body := get(t, ts.URL+"/sparql?query="+url.QueryEscape(testQuery))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s; want 504", status, body)
	}
	if !strings.Contains(body, "timed out") {
		t.Fatalf("body %q does not name the timeout", body)
	}
}

func TestAdmissionOverflowReturns503(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueTimeout: 20 * time.Millisecond})
	s.sem <- struct{}{} // occupy the only execution slot
	defer func() { <-s.sem }()
	status, body := get(t, ts.URL+"/sparql?query="+url.QueryEscape(testQuery))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body %s; want 503", status, body)
	}
	if s.metrics.TotalServed() != 0 {
		t.Fatal("rejected request must not count as served")
	}
	metricsStatus, metricsBody := get(t, ts.URL+"/metrics")
	if metricsStatus != http.StatusOK || !strings.Contains(metricsBody, "rapidserver_rejected_total 1") {
		t.Fatalf("metrics missing admission reject: %s", metricsBody)
	}
}

// TestEightParallelInFlightQueries proves true concurrency: 8 requests all
// reach the pre-execution barrier simultaneously (so 8 are in flight at
// once), then every one completes with the correct result. The requests are
// driven through ServeHTTP in-process — on a single-CPU machine, real TCP
// clients can queue behind each other in the transport, which would
// deadlock the barrier without testing anything about the server.
func TestEightParallelInFlightQueries(t *testing.T) {
	leaktest.Check(t)
	const n = 8
	s := New(shopStore(), Config{MaxConcurrent: n, QueryTimeout: time.Minute})
	var barrier sync.WaitGroup
	barrier.Add(n)
	s.beforeExecute = func() {
		barrier.Done()
		barrier.Wait() // release only when all n queries are in flight
	}

	systems := []ra.System{ra.RAPIDAnalytics, ra.RAPIDPlus, ra.HiveNaive, ra.HiveMQO}
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys := systems[i%len(systems)]
			req := httptest.NewRequest(http.MethodGet,
				"/sparql?system="+url.QueryEscape(string(sys))+"&query="+url.QueryEscape(testQuery), nil)
			recs[i] = httptest.NewRecorder()
			s.ServeHTTP(recs[i], req)
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
		checkRows(t, decodeResult(t, rec.Body.String()))
	}
	if served := s.metrics.TotalServed(); served != n {
		t.Fatalf("served = %d; want %d", served, n)
	}
}

// TestCancelledRequestAborts verifies a client disconnect cancels the
// query's context before any MapReduce cycle runs, and is recorded as a
// client-closed request rather than a success.
func TestCancelledRequestAborts(t *testing.T) {
	leaktest.Check(t)
	s := New(shopStore(), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.beforeExecute = cancel // client vanishes just as execution starts

	req := httptest.NewRequest(http.MethodGet,
		"/sparql?query="+url.QueryEscape(testQuery), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	var metrics strings.Builder
	s.metrics.WriteTo(&metrics, s.store.PlanCacheStats(), s.store.ResultCacheStats(), s.store.SharedScanStats())
	body := metrics.String()
	if !strings.Contains(body, fmt.Sprintf("code=\"%d\"", statusClientClosedRequest)) {
		t.Fatalf("cancelled query not recorded as client-closed:\n%s", body)
	}
	if !strings.Contains(body, `rapidserver_mr_cycles_total{system="rapidanalytics"} 0`) {
		t.Fatalf("cancelled query still ran MapReduce cycles:\n%s", body)
	}
	if strings.Contains(body, `code="200"`) {
		t.Fatalf("cancelled query recorded as success:\n%s", body)
	}
}

func TestPlanCacheHitVisibleInMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	u := ts.URL + "/sparql?query=" + url.QueryEscape(testQuery)
	status, body := get(t, u)
	if status != http.StatusOK {
		t.Fatalf("first run: %d %s", status, body)
	}
	if rb := decodeResult(t, body); rb.Stats.PlanCacheHit {
		t.Fatal("first execution must be a plan-cache miss")
	}
	status, body = get(t, u)
	if status != http.StatusOK {
		t.Fatalf("second run: %d %s", status, body)
	}
	if rb := decodeResult(t, body); !rb.Stats.PlanCacheHit {
		t.Fatal("repeated query must hit the plan cache")
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "rapidserver_plan_cache_hits_total 1") {
		t.Fatalf("metrics missing plan cache hit:\n%s", metrics)
	}
	if !strings.Contains(metrics, `rapidserver_queries_total{system="rapidanalytics",code="200"} 2`) {
		t.Fatalf("metrics missing served counter:\n%s", metrics)
	}
}

// TestResultCacheInvalidatedOverHTTP is the end-to-end half of the
// mutation-invalidation regression (the store-level half lives in the root
// package): a result served from the versioned cache through the HTTP path
// must stop being addressable once Store.Add bumps the data version, and
// the fresh rows must reflect the mutation.
func TestResultCacheInvalidatedOverHTTP(t *testing.T) {
	opts := ra.DefaultOptions()
	opts.ResultCacheBytes = 1 << 20
	store := shopStoreWith(opts)
	s := New(store, Config{SlowQueryThreshold: time.Nanosecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	u := ts.URL + "/sparql?query=" + url.QueryEscape(testQuery)
	status, body := get(t, u)
	if status != http.StatusOK {
		t.Fatalf("first run: %d %s", status, body)
	}
	if rb := decodeResult(t, body); rb.Stats.ResultCacheHit {
		t.Fatal("first execution must miss the result cache")
	}
	status, body = get(t, u)
	if status != http.StatusOK {
		t.Fatalf("second run: %d %s", status, body)
	}
	rb := decodeResult(t, body)
	if !rb.Stats.ResultCacheHit || rb.Stats.MRCycles != 0 {
		t.Fatalf("second run not served from cache: %+v", rb.Stats)
	}
	checkRows(t, rb)
	if rb.Stats.ResultCache.Hits < 1 || rb.Stats.ResultCache.Entries < 1 || rb.Stats.ResultCache.Bytes <= 0 {
		t.Fatalf("stats block missing result-cache counters: %+v", rb.Stats.ResultCache)
	}

	// Mutate: a new offer on px changes every grouping's count and bumps
	// the data version, stranding the cached entry under the old key.
	ns := "http://example.org/"
	store.Add(ns+"o9", ns+"product", ra.IRI(ns+"px"))
	store.Add(ns+"o9", ns+"price", ra.Literal("777"))

	status, body = get(t, u)
	if status != http.StatusOK {
		t.Fatalf("post-mutation run: %d %s", status, body)
	}
	rb = decodeResult(t, body)
	if rb.Stats.ResultCacheHit {
		t.Fatal("stale cached result served after mutation")
	}
	want := [][]string{
		{"http://example.org/5G", "4", "5"},
		{"http://example.org/OLED", "3", "5"},
	}
	if len(rb.Rows) != len(want) {
		t.Fatalf("post-mutation rows = %v; want %v", rb.Rows, want)
	}
	for i := range want {
		if strings.Join(rb.Rows[i], "|") != strings.Join(want[i], "|") {
			t.Fatalf("post-mutation row %d = %v; want %v", i, rb.Rows[i], want[i])
		}
	}

	// The hit shows up on /metrics and as cacheHit in the slow-query log.
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "rapidserver_result_cache_hits_total 1") {
		t.Fatalf("metrics missing result cache hit:\n%s", metrics)
	}
	var dbg struct {
		Queries []SlowQuery `json:"queries"`
	}
	_, body = get(t, ts.URL+"/debug/queries")
	if err := json.Unmarshal([]byte(body), &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Queries) != 3 { // newest first: miss, hit, miss
		t.Fatalf("slow-query entries = %d; want 3", len(dbg.Queries))
	}
	if dbg.Queries[0].CacheHit || !dbg.Queries[1].CacheHit || dbg.Queries[2].CacheHit {
		t.Fatalf("cacheHit flags = %v %v %v; want false true false",
			dbg.Queries[0].CacheHit, dbg.Queries[1].CacheHit, dbg.Queries[2].CacheHit)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status = %d", status)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if h["status"] != "ok" || h["triples"].(float64) <= 0 {
		t.Fatalf("healthz = %v", h)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sparql", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status = %d; want 405", resp.StatusCode)
	}
}

// A successful MapReduce-backed query must surface per-phase engine wall
// times in its JSON stats and per-operator histograms on /metrics, fed from
// the query's span tree.
func TestOperatorMetricsExported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/sparql?query="+url.QueryEscape(testQuery))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	rb := decodeResult(t, body)
	if rb.Stats.MapWallMillis <= 0 {
		t.Errorf("mapWallMillis = %v; want > 0 for a MapReduce-backed query", rb.Stats.MapWallMillis)
	}
	if rb.Stats.ReduceWallMillis <= 0 {
		t.Errorf("reduceWallMillis = %v; want > 0", rb.Stats.ReduceWallMillis)
	}
	if rb.Stats.MaterializedBytes <= 0 {
		t.Errorf("materializedBytes = %v; want > 0", rb.Stats.MaterializedBytes)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	// RAPIDAnalytics evaluates testQuery through the NTGA operators; each
	// must appear as a {system, operator} histogram plus a record counter.
	for _, op := range []string{"TG_OptGrpFilter", "TG_AlphaJoin", "TG_AgJ.map", "TG_AgJ.reduce", "final-join"} {
		count := fmt.Sprintf("rapidserver_operator_seconds_count{system=%q,operator=%q}", "rapidanalytics", op)
		if !strings.Contains(metrics, count) {
			t.Errorf("metrics missing %s:\n%s", count, metrics)
		}
		records := fmt.Sprintf("rapidserver_operator_records_total{system=%q,operator=%q}", "rapidanalytics", op)
		if !strings.Contains(metrics, records) {
			t.Errorf("metrics missing %s:\n%s", records, metrics)
		}
	}
	if !strings.Contains(metrics, `rapidserver_operator_seconds_bucket{system="rapidanalytics",operator="TG_AlphaJoin",le="+Inf"} 1`) {
		t.Errorf("metrics missing TG_AlphaJoin +Inf bucket:\n%s", metrics)
	}
}

// A query at or above SlowQueryThreshold must land in /debug/queries with
// its span tree attached; fast queries must not.
func TestSlowQueryLogCapture(t *testing.T) {
	// Threshold 1ns: every query is slow.
	_, ts := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	status, body := get(t, ts.URL+"/sparql?query="+url.QueryEscape(testQuery))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	status, body = get(t, ts.URL+"/debug/queries")
	if status != http.StatusOK {
		t.Fatalf("/debug/queries status = %d", status)
	}
	var dbg struct {
		ThresholdMillis float64     `json:"thresholdMillis"`
		Capacity        int         `json:"capacity"`
		Queries         []SlowQuery `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &dbg); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if dbg.Capacity != 128 {
		t.Errorf("capacity = %d; want default 128", dbg.Capacity)
	}
	if len(dbg.Queries) != 1 {
		t.Fatalf("slow-query entries = %d; want 1", len(dbg.Queries))
	}
	q := dbg.Queries[0]
	if q.System != string(ra.RAPIDAnalytics) || q.Status != http.StatusOK || q.Query != testQuery {
		t.Errorf("entry = %+v", q)
	}
	if q.MRCycles == 0 || q.WallMillis <= 0 {
		t.Errorf("entry missing execution stats: %+v", q)
	}
	if q.Trace == nil {
		t.Fatal("slow query entry has no span tree")
	}
	if q.Trace.Find("operator", "TG_AlphaJoin") == nil {
		t.Errorf("trace missing TG_AlphaJoin operator:\n%s", q.Trace.Tree())
	}

	// Default threshold (250ms): the tiny query is fast and stays out.
	_, ts2 := newTestServer(t, Config{})
	if status, _ := get(t, ts2.URL+"/sparql?query="+url.QueryEscape(testQuery)); status != http.StatusOK {
		t.Fatal("query failed")
	}
	_, body = get(t, ts2.URL+"/debug/queries")
	if err := json.Unmarshal([]byte(body), &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Queries) != 0 {
		t.Errorf("fast query recorded as slow: %+v", dbg.Queries)
	}
}

// TestSlowQueryLogEvictionOrder fills the ring past capacity and checks the
// oldest entries are evicted and the rest come back newest first.
func TestSlowQueryLogEvictionOrder(t *testing.T) {
	l := newSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Record(SlowQuery{Query: fmt.Sprintf("q%d", i)})
	}
	got := l.Entries()
	want := []string{"q4", "q3", "q2"} // q0, q1 evicted; newest first
	if len(got) != len(want) {
		t.Fatalf("entries = %d; want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Query != w {
			t.Errorf("entry %d = %s; want %s", i, got[i].Query, w)
		}
	}
}

// TestPprofEndpointsWired checks the profiling handlers respond on the
// server's own mux.
func TestPprofEndpointsWired(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if status, body := get(t, ts.URL+path); status != http.StatusOK {
			t.Errorf("%s status = %d, body %.80s", path, status, body)
		}
	}
}
