package rapidanalytics

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks benchmark/. It is a Go module of its
// own, so the root module's build and tests never compile it, yet its probes
// call internal functions directly (benchmark/README.md, "What the probes
// hold still"): without this test a changed signature of a probed symbol
// leaves tier-1 green and the benchmark broken.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
