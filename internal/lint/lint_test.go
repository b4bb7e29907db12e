package lint_test

import (
	"testing"

	"rapidanalytics/internal/lint"
	"rapidanalytics/internal/lint/driver"
)

// TestRepoIsClean runs the full rapidlint suite over every package in the
// module (wildcards skip testdata, so the deliberately-violating fixtures
// stay out of scope), with the test variants loaded too so the lifecycle
// analyzers police _test.go files. This is the same gate CI runs via
// `go run ./cmd/rapidlint -tests ./...`: any diagnostic here is a
// regression against a machine-checked invariant.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := driver.Run("", driver.Options{Tests: true},
		lint.Analyzers(), lint.TestAnalyzers(), "rapidanalytics/...")
	if err != nil {
		t.Fatalf("running rapidlint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
