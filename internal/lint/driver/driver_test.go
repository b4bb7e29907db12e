package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rapidanalytics/internal/lint/analysis"
	"rapidanalytics/internal/lint/driver"
	"rapidanalytics/internal/lint/lockorder"
)

// writeTree materialises a file tree under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadAgainstExportData builds a throwaway one-package module that
// imports the standard library, so type-checking can only succeed by
// reading compiled export data through `go list -deps -export` — there is
// no source fallback. The same fixture proves the package-local summaries
// of lockorder: Get takes load inside mu only through fill's summary, so
// Refill's opposite order is the one cycle to report.
func TestLoadAgainstExportData(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short")
	}
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module lockmod\n\ngo 1.23\n",
		"reg/reg.go": `package reg

import (
	"strings"
	"sync"
)

type Reg struct {
	mu   sync.Mutex
	load sync.Mutex
	m    map[string]int
}

// fill takes the load lock; its summary carries that to callers.
func (r *Reg) fill() {
	r.load.Lock()
	defer r.load.Unlock()
}

// Get nests load inside mu through fill: mu before load.
func (r *Reg) Get(k string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fill()
	return r.m[strings.ToLower(k)]
}

// Refill takes the pair the other way round.
func (r *Reg) Refill() {
	r.load.Lock()
	defer r.load.Unlock()
	r.mu.Lock()
	r.mu.Unlock()
}
`,
	})

	pkgs, err := driver.Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "lockmod/reg" || pkgs[0].Pkg == nil || pkgs[0].Info == nil {
		t.Fatalf("loaded %v, want one type-checked lockmod/reg", pkgs)
	}

	diags, err := driver.RunAll(pkgs, []*analysis.Analyzer{lockorder.Analyzer})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the Refill finding", diags)
	}
	if d := diags[0]; d.Analyzer != "lockorder" || d.Position.Line != 32 {
		t.Errorf("diagnostic = %v, want lockorder at Refill's mu.Lock (reg.go:32)", d)
	}
}

// TestLoadReportsBrokenPackages: a package that does not compile must fail
// the load with an attributed error, not silently drop out of the set.
func TestLoadReportsBrokenPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short")
	}
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":     "module brokenmod\n\ngo 1.23\n",
		"bad/bad.go": "package bad\n\nfunc f() { undefined() }\n",
		"good/g.go":  "package good\n\nfunc G() int { return 1 }\n",
	})
	if _, err := driver.Load(dir, "./..."); err == nil {
		t.Fatal("Load of a broken module succeeded")
	} else if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q does not attribute the broken package", err)
	}
}
