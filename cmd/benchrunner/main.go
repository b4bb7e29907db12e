// Command benchrunner regenerates every table and figure of the paper's
// evaluation section (§5): Table 3 (single-grouping queries, BSBM and
// Chem2Bio2RDF), Figure 8(a–c) (multi-grouping queries on BSBM-500K,
// BSBM-2M and Chem2Bio2RDF), Table 4 (PubMed), the MR-cycle-count
// verification, and the RAPIDAnalytics ablations. It prints simulated
// cluster seconds and measured volumes; real wall time, allocations and
// per-layer attribution are the benchmark's job (BENCHMARK.json,
// benchmark/).
//
// Usage:
//
//	benchrunner                 # everything
//	benchrunner -exp table3     # one experiment
//	benchrunner -verify         # also cross-check every result vs oracle
//
// Experiments: table3, fig8a, fig8b, fig8c, table4, cycles, ablation, all.
// Any other -exp value prints the usage and exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"rapidanalytics/internal/bench"
)

// experiments lists the -exp legs in the order "all" runs them.
var experiments = []struct {
	name string
	run  func(*bench.Harness) (string, error)
}{
	{"table3", Table3},
	{"fig8a", Fig8a},
	{"fig8b", Fig8b},
	{"fig8c", Fig8c},
	{"table4", Table4},
	{"cycles", Cycles},
	{"ablation", Ablation},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// process exit code: 0 on success, 1 when an experiment fails, 2 on a
// command line it cannot accept.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all")

	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment: "+strings.Join(names, ", "))
		verify = fs.Bool("verify", false, "cross-check every engine result against the in-memory oracle")
		scale  = fs.Float64("scale", 1, "dataset size multiplier (1 = default laptop scale)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(names, *exp) {
		fmt.Fprintf(stderr, "benchrunner: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}

	h := bench.NewHarness(*verify)
	h.Loader.SizeMult = *scale
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		out, err := e.run(h)
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout, out)
	}
	return 0
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
