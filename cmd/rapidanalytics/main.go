// Command rapidanalytics runs a single SPARQL analytical query from the
// paper's catalog (or from a file) through one or all of the four engines,
// printing the result table and execution statistics.
//
// Usage:
//
//	rapidanalytics -query MG1 -dataset bsbm-500k -system rapidanalytics
//	rapidanalytics -query MG3 -dataset bsbm-500k -all -verify
//	rapidanalytics -file q.rq -data graph.nt -system hive-naive
//	rapidanalytics -query MG1 -explain
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/engine"

	ra "rapidanalytics"
)

func main() {
	var (
		queryID  = flag.String("query", "", "catalog query id (G1..G9, MG1..MG18)")
		file     = flag.String("file", "", "file containing a SPARQL query (alternative to -query)")
		dataset  = flag.String("dataset", "bsbm-500k", "catalog dataset (bsbm-500k, bsbm-2m, chem, pubmed)")
		data     = flag.String("data", "", "N-Triples file to query instead of a catalog dataset")
		system   = flag.String("system", "rapidanalytics", "engine: rapidanalytics, rapid+, hive-naive, hive-mqo")
		all      = flag.Bool("all", false, "run all four engines and compare")
		verify   = flag.Bool("verify", false, "cross-check results against the in-memory oracle")
		explain  = flag.Bool("explain", false, "print the optimizer's plan explanation and exit")
		rows     = flag.Int("rows", 10, "result rows to print (0 = all)")
		trace    = flag.String("trace", "", "execution trace: table (per-cycle stats) or spans (hierarchical span tree)")
		traceOut = flag.String("trace-out", "", "write the captured span trees as JSON to this file")
		format   = flag.String("format", "table", "result format: table or csv")
		storage  = flag.String("storage", "", "DFS backend: mem or disk (empty honors $RAPID_STORAGE, default mem)")
		dataDir  = flag.String("data-dir", "", "root directory for -storage disk (empty = fresh temp dir)")
		spill    = flag.Int64("spill-threshold", 0, "map-side spill threshold in bytes (0 disables spilling)")
	)
	flag.Parse()
	st := storageOpts{storage: *storage, dataDir: *dataDir, spill: *spill}
	if *trace != "" && *trace != "table" && *trace != "spans" {
		fatal(fmt.Errorf("-trace must be empty, %q or %q", "table", "spans"))
	}

	query, err := resolveQuery(*queryID, *file)
	if err != nil {
		fatal(err)
	}
	if *explain {
		out, err := ra.Explain(query)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	if *data != "" {
		runOnFile(query, *data, *system, *all, *verify, *rows, *trace, *traceOut, *format, st)
		return
	}
	runOnCatalogDataset(query, *queryID, *dataset, *system, *all, *verify, *rows, *trace, *traceOut, st)
}

// storageOpts carries the storage-backend flags into both run paths.
type storageOpts struct {
	storage string
	dataDir string
	spill   int64
}

func resolveQuery(queryID, file string) (string, error) {
	switch {
	case queryID != "":
		q, ok := bench.Get(queryID)
		if !ok {
			return "", fmt.Errorf("unknown catalog query %q (have %v)", queryID, bench.IDs())
		}
		return q.SPARQL, nil
	case file != "":
		b, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		return string(b), nil
	default:
		return "", fmt.Errorf("one of -query or -file is required")
	}
}

func runOnFile(query, dataFile, system string, all, verify bool, rows int, trace, traceOut, format string, st storageOpts) {
	f, err := os.Open(dataFile)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	opts := ra.DefaultOptions()
	opts.Storage = st.storage
	opts.DataDir = st.dataDir
	opts.SpillThresholdBytes = st.spill
	store := ra.NewStore(opts)
	if err := store.LoadNTriples(f); err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d triples from %s\n\n", store.NumTriples(), dataFile)
	systems := []ra.System{ra.System(system)}
	if all {
		systems = ra.Systems()
	}
	var oracle *ra.Result
	if verify {
		oracle, _, err = store.Query(ra.Reference, query)
		if err != nil {
			fatal(err)
		}
	}
	ctx := context.Background()
	if trace == "spans" || traceOut != "" {
		ctx = ra.WithTracing(ctx)
	}
	var spans []*ra.TraceSpan
	for _, sys := range systems {
		res, stats, err := store.QueryContext(ctx, sys, query)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sys, err))
		}
		if format == "csv" {
			printCSV(res)
		} else {
			printRun(string(sys), res, stats, rows)
		}
		switch trace {
		case "table":
			fmt.Println(stats.Trace())
		case "spans":
			fmt.Println(stats.TraceTree())
		}
		if stats.Span != nil {
			spans = append(spans, stats.Span)
		}
		if verify && res.Len() != oracle.Len() {
			fatal(fmt.Errorf("%s: %d rows, oracle has %d", sys, res.Len(), oracle.Len()))
		}
	}
	writeTraceFile(traceOut, spans)
	if verify {
		fmt.Println("verified: all runs match the oracle row count")
	}
}

func runOnCatalogDataset(query, queryID, dataset, system string, all, verify bool, rows int, trace, traceOut string, st storageOpts) {
	if queryID == "" {
		fatal(fmt.Errorf("-dataset requires a catalog -query; use -data for ad-hoc queries"))
	}
	h := bench.NewHarness(verify)
	h.Loader.Storage = st.storage
	h.Loader.DataDir = st.dataDir
	h.Loader.SpillThresholdBytes = st.spill
	engines := bench.Engines()
	if !all {
		var filtered []engine.Engine
		for _, e := range engines {
			if systemName(e.Name()) == system {
				filtered = append(filtered, e)
			}
		}
		if len(filtered) == 0 {
			fatal(fmt.Errorf("unknown system %q", system))
		}
		engines = filtered
	}
	run := h.Run
	if trace == "spans" || traceOut != "" {
		run = h.RunTraced
	}
	rs, err := run(queryID, dataset, engines)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s on %s\n\n", queryID, dataset)
	var spans []*ra.TraceSpan
	for _, r := range rs {
		fmt.Printf("%-16s cycles=%d (map-only %d)  simulated=%.0fs  shuffled=%s  materialized=%s  rows=%d",
			r.Engine, r.Cycles, r.MapOnlyCycles, r.SimSeconds, human(r.ShuffleBytes), human(r.MaterializedBytes), r.Rows)
		if r.Verified {
			fmt.Print("  [verified]")
		}
		fmt.Println()
		if trace == "table" {
			fmt.Printf("    phase walls: map=%s shuffle-sort=%s reduce=%s\n",
				r.MapWall.Round(time.Microsecond),
				r.ShuffleSortWall.Round(time.Microsecond),
				r.ReduceWall.Round(time.Microsecond))
		}
		if trace == "spans" && r.Span != nil {
			fmt.Println(r.Span.Tree())
		}
		if r.Span != nil {
			spans = append(spans, r.Span)
		}
	}
	writeTraceFile(traceOut, spans)
	_ = rows
	_ = query
}

// writeTraceFile writes the captured span trees as a JSON array, one element
// per traced run. No-op when path is empty.
func writeTraceFile(path string, spans []*ra.TraceSpan) {
	if path == "" {
		return
	}
	raw, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d span tree(s) to %s\n", len(spans), path)
}

func systemName(display string) string {
	switch display {
	case "Hive (Naive)":
		return "hive-naive"
	case "Hive (MQO)":
		return "hive-mqo"
	case "RAPID+ (Naive)":
		return "rapid+"
	case "RAPIDAnalytics":
		return "rapidanalytics"
	}
	return display
}

func printRun(system string, res *ra.Result, stats *ra.Stats, maxRows int) {
	fmt.Printf("== %s: %d rows, %d MR cycles (%d map-only), simulated %.0fs ==\n",
		system, res.Len(), stats.MRCycles, stats.MapOnlyCycles, stats.SimulatedSeconds)
	rows := res.Rows()
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	for _, c := range res.Columns {
		fmt.Printf("%s\t", c)
	}
	fmt.Println()
	for _, r := range rows {
		for _, v := range r {
			fmt.Printf("%s\t", v)
		}
		fmt.Println()
	}
	if maxRows > 0 && res.Len() > maxRows {
		fmt.Printf("... (%d more rows)\n", res.Len()-maxRows)
	}
	fmt.Println()
}

// printCSV writes the result as RFC-4180-ish CSV to stdout.
func printCSV(res *ra.Result) {
	w := csv.NewWriter(os.Stdout)
	_ = w.Write(res.Columns)
	for _, row := range res.Rows() {
		_ = w.Write(row)
	}
	w.Flush()
}

func human(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapidanalytics:", err)
	os.Exit(1)
}
