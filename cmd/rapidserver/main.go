// Command rapidserver serves SPARQL analytical queries over HTTP from one
// in-memory store, with a plan cache, per-request timeouts/cancellation,
// and bounded-concurrency admission control.
//
// Usage:
//
//	rapidserver -gen bsbm -addr :8085
//	rapidserver -data graph.nt -system rapidanalytics -max-concurrent 16
//
// Endpoints:
//
//	GET  /sparql?query=...&system=...&format=json|tsv
//	POST /sparql            (form-encoded query= or application/sparql-query body)
//	GET  /healthz
//	GET  /metrics           (Prometheus text format)
//	GET  /debug/queries     (slow-query log with span traces, newest first)
//	GET  /debug/pprof/      (runtime profiling)
//
// SIGINT/SIGTERM drain in-flight queries before exiting (graceful
// shutdown).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rapidanalytics/internal/server"

	ra "rapidanalytics"
)

func main() {
	var (
		addr          = flag.String("addr", ":8085", "listen address")
		data          = flag.String("data", "", "N-Triples file to serve")
		gen           = flag.String("gen", "", "built-in generator to serve: bsbm, chem, pubmed")
		size          = flag.Int("size", 0, "generator size (products/compounds/publications; 0 = default)")
		system        = flag.String("system", string(ra.RAPIDAnalytics), "default engine when requests name none")
		maxConcurrent = flag.Int("max-concurrent", 0, "in-flight query cap (0 = 2x GOMAXPROCS)")
		queueTimeout  = flag.Duration("queue-timeout", 2*time.Second, "max admission queue wait before 503")
		queryTimeout  = flag.Duration("query-timeout", 60*time.Second, "per-query execution deadline")
		cacheSize     = flag.Int("plan-cache", 0, "LRU plan cache entries (0 = default 128, negative disables)")
		nodes         = flag.Int("nodes", 0, "simulated cluster size (0 = default 10)")
		slowThreshold = flag.Duration("slow-query-threshold", 250*time.Millisecond, "wall time at which a query enters the slow-query log")
		slowLogSize   = flag.Int("slow-query-log", 128, "slow-query ring buffer capacity")
		storage       = flag.String("storage", "", "DFS backend: mem or disk (empty honors $RAPID_STORAGE, default mem)")
		dataDir       = flag.String("data-dir", "", "root directory for -storage disk (empty = fresh temp dir)")
		spill         = flag.Int64("spill-threshold", 0, "map-side spill threshold in bytes (0 disables spilling)")
		sharedScans   = flag.Bool("shared-scans", true, "batch concurrent queries scanning the same file range into one shared pass")
		scanWindow    = flag.Duration("shared-scan-window", 0, "shared-scan cycle collection window (0 = default 2ms)")
		resultCache   = flag.Int64("result-cache-bytes", 64<<20, "versioned result/sub-result cache byte budget (0 disables)")
	)
	flag.Parse()

	opts := ra.DefaultOptions()
	opts.PlanCacheSize = *cacheSize
	if *nodes > 0 {
		opts.Nodes = *nodes
	}
	opts.Storage = *storage
	opts.DataDir = *dataDir
	opts.SpillThresholdBytes = *spill
	opts.SharedScans = *sharedScans
	opts.SharedScanWindow = *scanWindow
	opts.ResultCacheBytes = *resultCache

	store, err := buildStore(*data, *gen, *size, opts)
	if err != nil {
		log.Fatalf("rapidserver: %v", err)
	}
	log.Printf("serving %d triples", store.NumTriples())

	srv := server.New(store, server.Config{
		DefaultSystem:      ra.System(*system),
		MaxConcurrent:      *maxConcurrent,
		QueueTimeout:       *queueTimeout,
		QueryTimeout:       *queryTimeout,
		SlowQueryThreshold: *slowThreshold,
		SlowQueryLogSize:   *slowLogSize,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("rapidserver: %v", err)
		}
	case <-ctx.Done():
		log.Printf("shutting down, draining in-flight queries...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("rapidserver: shutdown: %v", err)
		}
		log.Printf("served %d queries total", srv.Metrics().TotalServed())
	}
}

// buildStore loads the graph the server will serve.
func buildStore(data, gen string, size int, opts ra.Options) (*ra.Store, error) {
	switch {
	case data != "" && gen != "":
		return nil, fmt.Errorf("-data and -gen are mutually exclusive")
	case data != "":
		f, err := os.Open(data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		store := ra.NewStore(opts)
		if err := store.LoadNTriples(f); err != nil {
			return nil, fmt.Errorf("loading %s: %w", data, err)
		}
		return store, nil
	case gen == "bsbm":
		return ra.NewBSBMStore(size, opts), nil
	case gen == "chem":
		return ra.NewChemStore(size, opts), nil
	case gen == "pubmed":
		return ra.NewPubMedStore(size, opts), nil
	case gen != "":
		return nil, fmt.Errorf("unknown generator %q (want bsbm, chem or pubmed)", gen)
	default:
		return nil, fmt.Errorf("one of -data or -gen is required")
	}
}
