package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rapidanalytics/internal/lint/analysis"
	"rapidanalytics/internal/lint/closecheck"
	"rapidanalytics/internal/lint/driver"
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
// no source fallback. The package path ends in /dfs, putting its closer
// type under closecheck's policed packages, which lets the same fixture
// prove the package-local summaries: Consume closes its argument, which
// discharges Clean, leaving exactly one genuine leak to report.
func TestLoadAgainstExportData(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short")
	}
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module leakmod\n\ngo 1.23\n",
		"dfs/dfs.go": `package dfs

import (
	"fmt"
	"strings"
)

type File struct{ open bool }

func Open(name string) (*File, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("empty name")
	}
	return &File{open: true}, nil
}

func (f *File) Read() int { return 0 }

func (f *File) Close() error { f.open = false; return nil }

// Consume takes ownership: callers that hand a File to Consume are done
// with it.
func Consume(f *File) { f.Close() }

// Clean transfers its file to Consume; with Consume's summary this path is
// silent.
func Clean(name string) int {
	f, err := Open(name)
	if err != nil {
		return 0
	}
	Consume(f)
	return 1
}

// Leaky drops the file on the floor.
func Leaky(name string) int {
	f, err := Open(name)
	if err != nil {
		return 0
	}
	return f.Read()
}
`,
	})

	pkgs, err := driver.Load(dir, driver.Options{}, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "leakmod/dfs" || pkgs[0].Pkg == nil || pkgs[0].Info == nil {
		t.Fatalf("loaded %v, want one type-checked leakmod/dfs", pkgs)
	}

	diags, err := driver.RunAll(pkgs, []*analysis.Analyzer{closecheck.Analyzer}, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the Leaky finding", diags)
	}
	if d := diags[0]; d.Analyzer != "closecheck" || d.Position.Line != 38 {
		t.Errorf("diagnostic = %v, want closecheck at Leaky's Open (dfs.go:38)", d)
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
	if _, err := driver.Load(dir, driver.Options{}, "./..."); err == nil {
		t.Fatal("Load of a broken module succeeded")
	} else if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q does not attribute the broken package", err)
	}
}
