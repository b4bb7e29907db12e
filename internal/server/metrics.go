package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rapidanalytics/internal/plancache"
)

// latencyBuckets are the upper bounds (seconds) of the query latency
// histogram, chosen to resolve both cache-hit microqueries and multi-cycle
// analytical runs.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}

// operatorBuckets are the upper bounds (seconds) of the per-operator wall
// histogram. Operators run well below whole-query latency, so the buckets
// start finer.
var operatorBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2}

// operatorStats is one {system, operator} histogram series plus its record
// counter.
type operatorStats struct {
	bucketCounts []int64 // raw per-bucket; rendered cumulatively
	count        int64
	sum          float64
	records      int64
}

// Metrics aggregates the serving layer's counters. All methods are safe for
// concurrent use. Rendered in Prometheus text exposition format by WriteTo.
type Metrics struct {
	inFlight atomic.Int64

	mu               sync.Mutex
	queries          map[string]map[int]int64             // system → HTTP status → count
	mrCycles         map[string]int64                     // system → total MapReduce cycles
	operators        map[string]map[string]*operatorStats // system → operator → stats
	admissionRejects int64
	bucketCounts     []int64 // cumulative at render time; raw per-bucket here
	latencyCount     int64
	latencySum       float64
}

// NewMetrics returns zeroed metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		queries:      map[string]map[int]int64{},
		mrCycles:     map[string]int64{},
		operators:    map[string]map[string]*operatorStats{},
		bucketCounts: make([]int64, len(latencyBuckets)+1),
	}
}

// QueryStarted marks a query admitted for execution. The return value
// decrements the in-flight gauge.
func (m *Metrics) QueryStarted() (done func()) {
	m.inFlight.Add(1)
	return func() { m.inFlight.Add(-1) }
}

// ObserveQuery records one finished request: the executing system, the HTTP
// status it mapped to, the MapReduce cycles it ran, and its latency.
func (m *Metrics) ObserveQuery(system string, status int, mrCycles int, d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && secs > latencyBuckets[i] {
		i++
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus, ok := m.queries[system]
	if !ok {
		byStatus = map[int]int64{}
		m.queries[system] = byStatus
	}
	byStatus[status]++
	m.mrCycles[system] += int64(mrCycles)
	m.bucketCounts[i]++
	m.latencyCount++
	m.latencySum += secs
}

// ObserveOperator records one operator execution from a query's span tree:
// its wall time lands in the {system, operator} histogram and its record
// count in the matching counter.
func (m *Metrics) ObserveOperator(system, operator string, d time.Duration, records int64) {
	secs := d.Seconds()
	i := 0
	for i < len(operatorBuckets) && secs > operatorBuckets[i] {
		i++
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	byOp, ok := m.operators[system]
	if !ok {
		byOp = map[string]*operatorStats{}
		m.operators[system] = byOp
	}
	st, ok := byOp[operator]
	if !ok {
		st = &operatorStats{bucketCounts: make([]int64, len(operatorBuckets)+1)}
		byOp[operator] = st
	}
	st.bucketCounts[i]++
	st.count++
	st.sum += secs
	st.records += records
}

// AdmissionRejected records one request turned away by the admission
// controller.
func (m *Metrics) AdmissionRejected() {
	m.mu.Lock()
	m.admissionRejects++
	m.mu.Unlock()
}

// TotalServed returns the number of observed queries across systems and
// statuses.
func (m *Metrics) TotalServed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latencyCount
}

// WriteTo renders the metrics (and the store's plan-cache and result-cache
// counters) in Prometheus text exposition format. Series are emitted in
// sorted label order so scrapes are deterministic.
func (m *Metrics) WriteTo(w io.Writer, plan, result plancache.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP rapidserver_in_flight_queries Queries currently executing.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_in_flight_queries gauge\n")
	fmt.Fprintf(w, "rapidserver_in_flight_queries %d\n", m.inFlight.Load())

	fmt.Fprintf(w, "# HELP rapidserver_queries_total Queries served, by system and HTTP status.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_queries_total counter\n")
	for _, sys := range sortedKeys(m.queries) {
		byStatus := m.queries[sys]
		statuses := make([]int, 0, len(byStatus))
		for st := range byStatus {
			statuses = append(statuses, st)
		}
		sort.Ints(statuses)
		for _, st := range statuses {
			fmt.Fprintf(w, "rapidserver_queries_total{system=%q,code=\"%d\"} %d\n", sys, st, byStatus[st])
		}
	}

	fmt.Fprintf(w, "# HELP rapidserver_rejected_total Requests rejected by admission control.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_rejected_total counter\n")
	fmt.Fprintf(w, "rapidserver_rejected_total %d\n", m.admissionRejects)

	fmt.Fprintf(w, "# HELP rapidserver_mr_cycles_total MapReduce cycles executed, by system.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_mr_cycles_total counter\n")
	for _, sys := range sortedKeys(m.mrCycles) {
		fmt.Fprintf(w, "rapidserver_mr_cycles_total{system=%q} %d\n", sys, m.mrCycles[sys])
	}

	fmt.Fprintf(w, "# HELP rapidserver_operator_seconds Operator wall time from query span trees, by system and operator.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_operator_seconds histogram\n")
	for _, sys := range sortedKeys(m.operators) {
		byOp := m.operators[sys]
		for _, op := range sortedKeys(byOp) {
			st := byOp[op]
			var cum int64
			for i, le := range operatorBuckets {
				cum += st.bucketCounts[i]
				fmt.Fprintf(w, "rapidserver_operator_seconds_bucket{system=%q,operator=%q,le=\"%g\"} %d\n", sys, op, le, cum)
			}
			cum += st.bucketCounts[len(operatorBuckets)]
			fmt.Fprintf(w, "rapidserver_operator_seconds_bucket{system=%q,operator=%q,le=\"+Inf\"} %d\n", sys, op, cum)
			fmt.Fprintf(w, "rapidserver_operator_seconds_sum{system=%q,operator=%q} %g\n", sys, op, st.sum)
			fmt.Fprintf(w, "rapidserver_operator_seconds_count{system=%q,operator=%q} %d\n", sys, op, st.count)
		}
	}

	fmt.Fprintf(w, "# HELP rapidserver_operator_records_total Records processed per operator, by system and operator.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_operator_records_total counter\n")
	for _, sys := range sortedKeys(m.operators) {
		byOp := m.operators[sys]
		for _, op := range sortedKeys(byOp) {
			fmt.Fprintf(w, "rapidserver_operator_records_total{system=%q,operator=%q} %d\n", sys, op, byOp[op].records)
		}
	}

	writeCacheSeries(w, "plan_cache", "Plan", plan)
	writeCacheSeries(w, "result_cache", "Result", result)
	fmt.Fprintf(w, "# HELP rapidserver_result_cache_bytes Result cache bytes held.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_result_cache_bytes gauge\n")
	fmt.Fprintf(w, "rapidserver_result_cache_bytes %d\n", result.Bytes)
	fmt.Fprintf(w, "# HELP rapidserver_result_cache_budget_bytes Result cache byte budget.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_result_cache_budget_bytes gauge\n")
	fmt.Fprintf(w, "rapidserver_result_cache_budget_bytes %d\n", result.BudgetBytes)

	fmt.Fprintf(w, "# HELP rapidserver_query_seconds Query latency histogram.\n")
	fmt.Fprintf(w, "# TYPE rapidserver_query_seconds histogram\n")
	var cum int64
	for i, le := range latencyBuckets {
		cum += m.bucketCounts[i]
		fmt.Fprintf(w, "rapidserver_query_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.bucketCounts[len(latencyBuckets)]
	fmt.Fprintf(w, "rapidserver_query_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "rapidserver_query_seconds_sum %g\n", m.latencySum)
	fmt.Fprintf(w, "rapidserver_query_seconds_count %d\n", m.latencyCount)
}

// writeCacheSeries emits one cache's hit/miss/eviction counters and entry
// gauge under rapidserver_<name>_*.
func writeCacheSeries(w io.Writer, name, human string, st plancache.Stats) {
	fmt.Fprintf(w, "# HELP rapidserver_%s_hits_total %s cache probe hits.\n", name, human)
	fmt.Fprintf(w, "# TYPE rapidserver_%s_hits_total counter\n", name)
	fmt.Fprintf(w, "rapidserver_%s_hits_total %d\n", name, st.Hits)
	fmt.Fprintf(w, "# HELP rapidserver_%s_misses_total %s cache probe misses.\n", name, human)
	fmt.Fprintf(w, "# TYPE rapidserver_%s_misses_total counter\n", name)
	fmt.Fprintf(w, "rapidserver_%s_misses_total %d\n", name, st.Misses)
	fmt.Fprintf(w, "# HELP rapidserver_%s_evictions_total %s cache entries evicted by the LRU policy.\n", name, human)
	fmt.Fprintf(w, "# TYPE rapidserver_%s_evictions_total counter\n", name)
	fmt.Fprintf(w, "rapidserver_%s_evictions_total %d\n", name, st.Evictions)
	fmt.Fprintf(w, "# HELP rapidserver_%s_entries %s cache entries currently held.\n", name, human)
	fmt.Fprintf(w, "# TYPE rapidserver_%s_entries gauge\n", name)
	fmt.Fprintf(w, "rapidserver_%s_entries %d\n", name, st.Entries)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
