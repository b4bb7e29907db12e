package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// selfCheckRuns is how many times -selfcheck runs each workload.
const selfCheckRuns = 3

// runChild runs one workload in a process of its own, so that memory and
// GC state belong to that workload alone, and returns its result line.
// The child's report goes to out.
func runChild(workload string, seed int64, seconds, trace int, out io.Writer) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

// runAll is the one command: every workload, untraced and then traced,
// every metric printed by name with its unit.
func runAll(bspec *benchSpec, seed int64, seconds int) error {
	var bad []string
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			fmt.Printf("\n=== %s (trace %d)\n", w.name, trace)
			res, err := runChild(w.name, seed, seconds, trace, os.Stdout)
			if err != nil {
				return err
			}
			if !res.Correct {
				bad = append(bad, fmt.Sprintf("%s (trace %d)", w.name, trace))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("incorrect or invalid runs: %s", strings.Join(bad, ", "))
	}
	return nil
}

// selfCheck runs every workload selfCheckRuns times at one seed on this
// build and prints, for every end-to-end metric, the spread of its values:
// (max − min) / median. It fails when a spread exceeds the metric's bound,
// when an exact count differs between two runs, or when a run is incorrect.
func selfCheck(bspec *benchSpec, seed int64, seconds int) error {
	var failures []string
	fmt.Printf("%-12s %-30s %14s %10s %8s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < selfCheckRuns; i++ {
			res, err := runChild(w.name, seed, seconds, 0, io.Discard)
			if err != nil {
				return err
			}
			if !res.Correct {
				failures = append(failures, fmt.Sprintf("%s run %d: incorrect (%d of %d failed)", w.name, i, res.Failed, res.Attempted))
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, s := range bspec.EndToEnd {
			vs := sortedCopy(values[s.Name])
			med := median(vs)
			spread := (vs[len(vs)-1] - vs[0]) / med
			fmt.Printf("%-12s %-30s %14.6g %9.3f%% %7g%%\n", w.name, s.Name, med, 100*spread, 100*s.Bound)
			if spread > s.Bound {
				failures = append(failures, fmt.Sprintf("%s %s: spread %.3f%% exceeds the bound %g%%", w.name, s.Name, 100*spread, 100*s.Bound))
			}
			if slices.Contains(exactCounts, s.Name) && vs[0] != vs[len(vs)-1] {
				failures = append(failures, fmt.Sprintf("%s %s: exact count differs between runs (%v)", w.name, s.Name, vs))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("selfcheck passed")
	return nil
}
