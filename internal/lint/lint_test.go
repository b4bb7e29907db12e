package lint_test

import (
	"testing"

	"rapidanalytics/internal/lint"
	"rapidanalytics/internal/lint/driver"
)

// TestRepoIsClean runs the full rapidlint suite over every package in the
// module (wildcards skip testdata, so the deliberately-violating fixtures
// stay out of scope). This is the same gate CI runs via
// `go run ./cmd/rapidlint ./...`: any diagnostic here is a regression
// against a machine-checked invariant.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := driver.Run("", lint.Analyzers(), "rapidanalytics/...")
	if err != nil {
		t.Fatalf("running rapidlint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
