// Package server is the query-serving subsystem: a concurrent HTTP SPARQL
// endpoint over a rapidanalytics.Store. It exposes
//
//	GET/POST /sparql         — execute a query (params: query, system, format)
//	GET      /healthz        — liveness and store size
//	GET      /metrics        — Prometheus text metrics
//	GET      /debug/queries  — slow-query log (JSON, newest first)
//	GET      /debug/pprof/*  — runtime profiling endpoints
//
// Every request runs under a context deadline that is threaded through the
// store into MapReduce job execution, so a timeout or client disconnect
// aborts the run between records/cycles instead of burning the cluster. A
// bounded-concurrency admission controller (semaphore with a queue timeout)
// sheds load with 503 once MaxConcurrent queries are in flight and the
// queue wait exceeds QueueTimeout. Prepared plans are served from the
// store's LRU plan cache, so repeated query templates skip planning.
//
// Each query executes with span tracing enabled: the resulting span tree
// feeds the per-operator Prometheus histograms
// (rapidserver_operator_seconds, rapidserver_operator_records_total) and is
// attached to slow-query log entries, so a slow request can be explained
// operator by operator after the fact.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"rapidanalytics/internal/obs"

	ra "rapidanalytics"
)

// Config tunes the serving layer. The zero value gets sensible defaults.
type Config struct {
	// DefaultSystem executes queries that name no system parameter
	// (default: RAPIDAnalytics).
	DefaultSystem ra.System
	// MaxConcurrent caps in-flight query executions (default: 2×GOMAXPROCS,
	// at least 8).
	MaxConcurrent int
	// QueueTimeout is how long an arriving request may wait for an
	// execution slot before being shed with 503 (default: 2s).
	QueueTimeout time.Duration
	// QueryTimeout is the per-query execution deadline; expiry returns 504
	// (default: 60s).
	QueryTimeout time.Duration
	// SlowQueryThreshold is the request wall time at or above which a query
	// is recorded in the slow-query log served at /debug/queries
	// (default: 250ms).
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize is the slow-query ring buffer's capacity; when full,
	// the oldest entry is evicted (default: 128).
	SlowQueryLogSize int
}

// maxQueryBytes caps a POSTed request body.
const maxQueryBytes = 1 << 20

func (c Config) withDefaults() Config {
	if c.DefaultSystem == "" {
		c.DefaultSystem = ra.RAPIDAnalytics
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = max(8, 2*runtime.GOMAXPROCS(0))
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.SlowQueryThreshold <= 0 {
		c.SlowQueryThreshold = 250 * time.Millisecond
	}
	if c.SlowQueryLogSize <= 0 {
		c.SlowQueryLogSize = 128
	}
	return c
}

// Server serves SPARQL queries over HTTP. Create with New; it implements
// http.Handler.
type Server struct {
	store   *ra.Store
	cfg     Config
	sem     chan struct{}
	metrics *Metrics
	slow    *slowLog
	mux     *http.ServeMux

	// beforeExecute, when set (tests only), runs after admission and
	// before query execution — a barrier point proving true concurrency.
	beforeExecute func()
}

// New returns a server over the store.
func New(store *ra.Store, cfg Config) *Server {
	s := &Server{
		store:   store,
		cfg:     cfg.withDefaults(),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
	}
	s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	s.slow = newSlowLog(s.cfg.SlowQueryLogSize)
	s.mux.HandleFunc("/sparql", s.handleSparql)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the server's counters (shared, live).
func (s *Server) Metrics() *Metrics { return s.metrics }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// statusFor maps a Store error to an HTTP status via the typed sentinels.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ra.ErrParse),
		errors.Is(err, ra.ErrUnsupported),
		errors.Is(err, ra.ErrUnknownSystem):
		return http.StatusBadRequest
	case errors.Is(err, ra.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, ra.ErrCanceled):
		// Client is gone; the status is recorded in metrics only.
		return statusClientClosedRequest
	default:
		// ErrInternal (a contained engine panic), storage failures and
		// anything unclassified.
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest is nginx's conventional code for a request whose
// client disconnected before the response.
const statusClientClosedRequest = 499

// sparqlRequest is one parsed /sparql request.
type sparqlRequest struct {
	query  string
	system ra.System
	format string // "json" or "tsv"
}

func (s *Server) parseRequest(r *http.Request) (sparqlRequest, error) {
	req := sparqlRequest{system: s.cfg.DefaultSystem, format: "json"}
	switch r.Method {
	case http.MethodGet:
		req.query = r.URL.Query().Get("query")
	case http.MethodPost:
		r.Body = http.MaxBytesReader(nil, r.Body, maxQueryBytes)
		ct := r.Header.Get("Content-Type")
		if strings.HasPrefix(ct, "application/sparql-query") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return req, fmt.Errorf("reading body: %w", err)
			}
			req.query = string(body)
		} else {
			if err := r.ParseForm(); err != nil {
				return req, fmt.Errorf("parsing form: %w", err)
			}
			req.query = r.PostForm.Get("query")
			if req.query == "" {
				req.query = r.URL.Query().Get("query")
			}
		}
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	if v := r.URL.Query().Get("system"); v != "" {
		req.system = ra.System(v)
	} else if v := r.PostForm.Get("system"); v != "" {
		req.system = ra.System(v)
	}
	if v := r.URL.Query().Get("format"); v != "" {
		req.format = v
	} else if v := r.PostForm.Get("format"); v != "" {
		req.format = v
	} else if strings.Contains(r.Header.Get("Accept"), "text/tab-separated-values") {
		req.format = "tsv"
	}
	if req.format != "json" && req.format != "tsv" {
		return req, fmt.Errorf("unknown format %q (want json or tsv)", req.format)
	}
	if strings.TrimSpace(req.query) == "" {
		return req, fmt.Errorf("missing query parameter")
	}
	return req, nil
}

func (s *Server) handleSparql(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	req, err := s.parseRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}

	// Admission control: wait for an execution slot, but never longer than
	// the queue timeout (or the client's patience).
	queueTimer := time.NewTimer(s.cfg.QueueTimeout)
	defer queueTimer.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-queueTimer.C:
		s.metrics.AdmissionRejected()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server saturated: %d queries in flight", s.cfg.MaxConcurrent)
		return
	case <-r.Context().Done():
		s.metrics.AdmissionRejected()
		writeError(w, statusClientClosedRequest, "client closed request while queued")
		return
	}
	defer func() { <-s.sem }()
	done := s.metrics.QueryStarted()
	defer done()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	// Every request traces: the span tree feeds the operator metrics and
	// explains slow-query log entries.
	ctx = ra.WithTracing(ctx)

	start := time.Now()
	pq, err := s.store.Prepare(req.system, req.query)
	if err != nil {
		status := statusFor(err)
		s.metrics.ObserveQuery(string(req.system), status, 0, time.Since(start))
		writeError(w, status, "%v", err)
		return
	}
	if s.beforeExecute != nil {
		s.beforeExecute()
	}
	res, stats, err := pq.Execute(ctx)
	elapsed := time.Since(start)
	if err != nil {
		status := statusFor(err)
		s.metrics.ObserveQuery(string(req.system), status, 0, elapsed)
		s.recordSlow(req, status, elapsed, nil)
		if status != statusClientClosedRequest {
			writeError(w, status, "%v", err)
		}
		return
	}
	s.metrics.ObserveQuery(string(req.system), http.StatusOK, stats.MRCycles, elapsed)
	s.observeOperators(string(req.system), stats.Span)
	s.recordSlow(req, http.StatusOK, elapsed, stats)
	writeResult(w, req.format, res, stats, pq.CacheHit(), elapsed,
		s.store.PlanCacheStats(), s.store.ResultCacheStats())
}

// observeOperators folds a query's operator spans into the per-operator
// histogram and record counters.
func (s *Server) observeOperators(system string, span *ra.TraceSpan) {
	if span == nil {
		return
	}
	span.Walk(func(n *ra.TraceSpan) {
		if n.Kind == obs.KindOperator {
			s.metrics.ObserveOperator(system, n.Name, time.Duration(n.WallNs), n.Records)
		}
	})
}

// recordSlow appends the request to the slow-query log when its wall time
// met the threshold. stats is nil when the query failed.
func (s *Server) recordSlow(req sparqlRequest, status int, elapsed time.Duration, stats *ra.Stats) {
	if elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	entry := SlowQuery{
		Time:       time.Now(),
		System:     string(req.system),
		Query:      req.query,
		Status:     status,
		WallMillis: millis(elapsed),
	}
	if stats != nil {
		entry.MRCycles = stats.MRCycles
		entry.CacheHit = stats.ResultCacheHit
		entry.Trace = stats.Span
	}
	s.slow.Record(entry)
}

// handleDebugQueries serves the slow-query log as JSON, newest entry first.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"thresholdMillis": millis(s.cfg.SlowQueryThreshold),
		"capacity":        s.cfg.SlowQueryLogSize,
		"queries":         s.slow.Entries(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":  "ok",
		"triples": s.store.NumTriples(),
		"served":  s.metrics.TotalServed(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w, s.store.PlanCacheStats(), s.store.ResultCacheStats())
}
