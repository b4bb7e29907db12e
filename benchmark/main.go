// Command benchmark is the repository's one benchmark: four workloads,
// end-to-end metrics every workload reports, and per-layer metrics that
// attribute them — all measured from outside the program, through the root
// package's public API, the HTTP server behind a loopback listener, and
// timed calls into each layer's exported functions. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: ntga-mem, hive-mem, disk-spill, serve-zipf, or all (each in its own process)")
		seed      = flag.Int64("seed", 1, "seed for the graph and the cell order (the serving schedule is the same for every seed)")
		seconds   = flag.Int("seconds", 0, "run length: converted to a fixed number of timed passes per workload (0 = run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		selfcheck = flag.Bool("selfcheck", false, "run every workload 3 times at one seed and check the spreads against the bounds")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, trace int, selfcheck bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	bspec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = bspec.RunSeconds
	}
	switch {
	case selfcheck:
		return selfCheck(bspec, seed, seconds)
	case workload == "all":
		return runAll(bspec, seed, seconds)
	}
	res, err := run(runConfig{workload: workload, seed: seed, seconds: seconds, traced: trace == 1}, bspec, os.Stdout)
	if err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or the workload was invalid (see INVALID lines)", workload, res.Failed, res.Attempted)
	}
	return nil
}
