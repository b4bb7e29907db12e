// Command benchrunner regenerates every table and figure of the paper's
// evaluation section (§5): Table 3 (single-grouping queries, BSBM and
// Chem2Bio2RDF), Figure 8(a–c) (multi-grouping queries on BSBM-500K,
// BSBM-2M and Chem2Bio2RDF), Table 4 (PubMed), the MR-cycle-count
// verification, and the RAPIDAnalytics ablations.
//
// Usage:
//
//	benchrunner                 # everything
//	benchrunner -exp table3     # one experiment
//	benchrunner -verify         # also cross-check every result vs oracle
//
// Experiments: table3, fig8a, fig8b, fig8c, table4, cycles, ablation,
// prepared (plan-cache speedup, writes BENCH_prepared.json), parallel
// (sequential vs parallel reduce, writes BENCH_parallel.json), disk
// (in-memory vs disk-backed DFS over the full MG catalog, writes
// BENCH_disk.json), stream (streaming vs materialised intermediates over
// the full MG catalog, writes BENCH_stream.json), planner (heuristic vs
// statistics-driven cost-based planner over the BSBM MG queries and the
// adversarially skewed SK stressors, writes BENCH_planner.json), serve (log-realistic concurrent
// HTTP workload against the serving layer: baseline vs cross-query shared
// scans + versioned result cache, writes BENCH_serve.json), all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rapidanalytics/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table3, fig8a, fig8b, fig8c, table4, cycles, ablation, prepared, parallel, disk, stream, planner, serve, all")
		verify   = flag.Bool("verify", false, "cross-check every engine result against the in-memory oracle")
		scale    = flag.Float64("scale", 1, "dataset size multiplier (1 = default laptop scale)")
		traceOut = flag.String("trace-out", "", "write span trees of a traced MG1 run (all engines, bsbm-500k) as JSON to this file")
	)
	flag.Parse()

	h := bench.NewHarness(*verify)
	h.Loader.SizeMult = *scale
	run := func(name string, f func(*bench.Harness) (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		out, err := f(h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	run("table3", Table3)
	run("fig8a", Fig8a)
	run("fig8b", Fig8b)
	run("fig8c", Fig8c)
	run("table4", Table4)
	run("cycles", Cycles)
	run("ablation", Ablation)
	run("prepared", Prepared)
	run("parallel", Parallel)
	run("disk", Disk)
	run("stream", Stream)
	run("planner", Planner)
	run("serve", Serve)

	if *traceOut != "" {
		if err := writeTraceArtifact(h, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: trace-out: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTraceArtifact runs MG1 on BSBM-500K with span tracing across all four
// engines and writes the span trees as a JSON array — the observability
// artifact the CI smoke job uploads.
func writeTraceArtifact(h *bench.Harness, path string) error {
	rs, err := h.RunTraced("MG1", "bsbm-500k", bench.Engines())
	if err != nil {
		return err
	}
	type tracedRun struct {
		Query   string          `json:"query"`
		Dataset string          `json:"dataset"`
		Engine  string          `json:"engine"`
		Span    json.RawMessage `json:"span"`
	}
	out := make([]tracedRun, 0, len(rs))
	for _, r := range rs {
		raw, err := json.Marshal(r.Span)
		if err != nil {
			return err
		}
		out = append(out, tracedRun{Query: r.Query, Dataset: r.Dataset, Engine: r.Engine, Span: raw})
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d traced MG1 span tree(s) to %s\n", len(out), path)
	return nil
}

var gQueries = []string{"G1", "G2", "G3", "G4"}
var mgBSBM = []string{"MG1", "MG2", "MG3", "MG4"}
var mgChem = []string{"MG6", "MG7", "MG8", "MG9", "MG10"}
var mgPubMed = []string{"MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18"}

// Table3 regenerates both halves of Table 3.
func Table3(h *bench.Harness) (string, error) {
	res500k, err := h.RunAll(gQueries, "bsbm-500k", bench.Engines())
	if err != nil {
		return "", err
	}
	res2m, err := h.RunAll(gQueries, "bsbm-2m", bench.Engines())
	if err != nil {
		return "", err
	}
	chem, err := h.RunAll([]string{"G5", "G6", "G7", "G8", "G9"}, "chem", bench.Engines())
	if err != nil {
		return "", err
	}
	return bench.RenderTable3BSBM(res500k, res2m) + "\n" + bench.RenderTable3Chem(chem), nil
}

// Fig8a regenerates Figure 8(a): MG1–MG4 on BSBM-500K.
func Fig8a(h *bench.Harness) (string, error) {
	res, err := h.RunAll(mgBSBM, "bsbm-500k", bench.Engines())
	if err != nil {
		return "", err
	}
	return bench.RenderFigure("Figure 8(a): MG1-MG4 on BSBM-500K (10 nodes)", mgBSBM, res), nil
}

// Fig8b regenerates Figure 8(b): MG1–MG4 on BSBM-2M.
func Fig8b(h *bench.Harness) (string, error) {
	res, err := h.RunAll(mgBSBM, "bsbm-2m", bench.Engines())
	if err != nil {
		return "", err
	}
	return bench.RenderFigure("Figure 8(b): MG1-MG4 on BSBM-2M (50 nodes)", mgBSBM, res), nil
}

// Fig8c regenerates Figure 8(c): MG6–MG10 on Chem2Bio2RDF.
func Fig8c(h *bench.Harness) (string, error) {
	res, err := h.RunAll(mgChem, "chem", bench.Engines())
	if err != nil {
		return "", err
	}
	return bench.RenderFigure("Figure 8(c): MG6-MG10 on Chem2Bio2RDF (10 nodes)", mgChem, res), nil
}

// Table4 regenerates Table 4: MG11–MG18 on PubMed.
func Table4(h *bench.Harness) (string, error) {
	res, err := h.RunAll(mgPubMed, "pubmed", bench.Engines())
	if err != nil {
		return "", err
	}
	return bench.RenderTable4(res), nil
}

// Cycles verifies the MR-cycle counts across the whole catalog.
func Cycles(h *bench.Harness) (string, error) {
	var all []bench.RunResult
	groups := []struct {
		ids []string
		ds  string
	}{
		{gQueries, "bsbm-500k"},
		{[]string{"G5", "G6", "G7", "G8", "G9"}, "chem"},
		{mgBSBM, "bsbm-500k"},
		{mgChem, "chem"},
		{mgPubMed, "pubmed"},
	}
	for _, g := range groups {
		rs, err := h.RunAll(g.ids, g.ds, bench.Engines())
		if err != nil {
			return "", err
		}
		all = append(all, rs...)
	}
	return bench.RenderCycles(all), nil
}

// Ablation runs the RAPIDAnalytics design-choice ablations on the BSBM
// multi-grouping queries.
func Ablation(h *bench.Harness) (string, error) {
	var all []bench.RunResult
	for _, q := range append(append([]string{}, mgBSBM...), "MGA") {
		rs, err := h.RunAblation(q, "bsbm-500k")
		if err != nil {
			return "", err
		}
		all = append(all, rs...)
	}
	var b strings.Builder
	b.WriteString(bench.RenderAblation(all))
	return b.String(), nil
}
