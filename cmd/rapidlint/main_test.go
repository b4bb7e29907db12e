package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the rapidlint binary into a temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rapidlint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building rapidlint: %v\n%s", err, out)
	}
	return bin
}

// TestGHAOutput: -gha emits one ::error workflow command per finding, with
// escaped properties, so GitHub annotates the offending lines.
func TestGHAOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and loads packages; skipped in -short")
	}
	bin := buildTool(t)
	cmd := exec.Command(bin, "-gha", "rapidanalytics/internal/lint/hotalloc/testdata/src/hotalloc_fx")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit status 1 on findings, got %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 {
		t.Fatal("-gha emitted nothing on a violating fixture")
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "::error file=") {
			t.Fatalf("not a workflow command: %q", line)
		}
		if !strings.Contains(line, ",line=") || !strings.Contains(line, "title=rapidlint(") {
			t.Fatalf("annotation missing position or title: %q", line)
		}
	}
}

// TestStandaloneFindsViolations covers the multichecker mode's exit-status
// contract: findings print to stdout and yield exit status 1.
func TestStandaloneFindsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and loads packages; skipped in -short")
	}
	bin := buildTool(t)
	cmd := exec.Command(bin, "rapidanalytics/internal/lint/hotalloc/testdata/src/hotalloc_fx")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit status 1 on findings, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "hotalloc") {
		t.Fatalf("output carries no hotalloc diagnostic:\n%s", out)
	}
}
