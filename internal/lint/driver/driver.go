// Package driver loads and type-checks Go packages and runs rapidlint
// analyzers over them. Loading shells out to `go list -deps -export`, which
// yields compiled export data for every dependency; the standard library's
// gc importer then type-checks each matched package from source against
// that export data. This is the same strategy as x/tools' go/packages
// (NeedExportFile mode) but with zero dependencies outside the standard
// library and the go toolchain, so the linter runs in offline sandboxes.
//
// Only the packages the patterns match are parsed and analyzed, each on its
// own: everything they import, in the module or not, exists to the analysis
// only as export data. No analyzer result crosses a package boundary.
//
// By default only non-test files are analyzed: the invariants rapidlint
// enforces (hot-path allocation, error taxonomy, lock order) are
// production-code properties. Options.Tests additionally loads each
// package's test variant (`go list -test`) so the lifecycle analyzer
// (closecheck) can police _test.go files, where a leaked iterator hides
// until the -race suite hangs.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"rapidanalytics/internal/lint/analysis"
)

// Options configures a load.
type Options struct {
	// Tests loads each matched package's test variant too: _test.go files
	// are parsed and type-checked (internal and external test packages),
	// and analyzed by the test-safe analyzer subset, with diagnostics
	// reported only at positions inside _test.go files.
	Tests bool
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	ForTest    string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Error      *listError
}

type listError struct {
	Err string
}

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the package's import path as listed; test variants
	// carry go list's bracketed suffix ("pkg [pkg.test]").
	ImportPath string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed sources (test files included for test variants).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type information for Files.
	Info *types.Info
	// TestVariant marks internal/external test packages: they run the
	// test-safe analyzer subset and report only _test.go positions.
	TestVariant bool
}

// Diagnostic is one unsuppressed finding, located and attributed.
type Diagnostic struct {
	// Position is the finding's resolved file:line:column.
	Position token.Position
	// Analyzer names the checker that reported it.
	Analyzer string
	// Message is the finding text.
	Message string
}

// String renders the diagnostic as "file:line:col: analyzer: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Load lists, parses and type-checks the packages matching patterns,
// resolving them relative to dir ("" = current directory). Packages that
// fail to build are reported as errors; an empty match set is not. The
// result holds the matched packages (and, under opts.Tests, their test
// variants) in go list order.
func Load(dir string, opts Options, patterns ...string) ([]*Package, error) {
	args := []string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,ForTest,GoFiles,Export,DepOnly,Standard,ImportMap,Error",
	}
	if opts.Tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("driver: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("driver: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("driver: package %s does not build: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Dependencies exist to the analysis only as export data; ".test"
		// mains are generated harness code.
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 && !strings.HasSuffix(p.ImportPath, ".test") {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	// One shared importer serves every package without import renames; its
	// internal cache then loads each dependency's export data once.
	shared := newExportImporter(fset, exports, nil)

	var pkgs []*Package
	for _, t := range targets {
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(t.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("driver: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		imp := shared
		if len(t.ImportMap) > 0 {
			// External test packages import their tested package's test
			// variant under the plain path; a dedicated importer applies
			// the rename without poisoning the shared importer's cache.
			imp = newExportImporter(fset, exports, t.ImportMap)
		}
		conf := types.Config{Importer: imp}
		// A test variant is type-checked under its plain path
		// ("pkg [pkg.test]" → "pkg").
		path, _, _ := strings.Cut(t.ImportPath, " [")
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("driver: type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath:  t.ImportPath,
			Fset:        fset,
			Files:       files,
			Pkg:         pkg,
			Info:        info,
			TestVariant: t.ForTest != "",
		})
	}
	return pkgs, nil
}

// newExportImporter returns a gc importer resolving import paths through
// importMap (nil = identity) and then the export-data file map.
func newExportImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("driver: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// analyze runs every analyzer over the package and applies suppression
// directives. Malformed directives (no justification, or naming no
// analyzer in suite) are reported under the pseudo-analyzer "lint".
func analyze(p *Package, analyzers []*analysis.Analyzer, suite map[string]bool) ([]Diagnostic, error) {
	sup := analysis.NewSuppressor(p.Fset, p.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Pkg,
			TypesInfo: p.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			if sup.Suppressed(a.Name, d.Pos) {
				return
			}
			out = append(out, Diagnostic{
				Position: p.Fset.Position(d.Pos),
				Analyzer: a.Name,
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("driver: analyzer %s on %s: %w", a.Name, p.ImportPath, err)
		}
	}
	for _, d := range sup.Problems(suite) {
		out = append(out, Diagnostic{
			Position: p.Fset.Position(d.Pos),
			Analyzer: "lint",
			Message:  d.Message,
		})
	}
	return out, nil
}

// RunAll analyzes the loaded packages: the full suite over production
// packages, and testAnalyzers over test variants (reported only at
// _test.go positions). A suppression directive must name an analyzer of
// analyzers ∪ testAnalyzers. Diagnostics come back in deterministic
// (file, position) order.
func RunAll(pkgs []*Package, analyzers, testAnalyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	suite := map[string]bool{}
	for _, set := range [][]*analysis.Analyzer{analyzers, testAnalyzers} {
		for _, a := range set {
			suite[a.Name] = true
		}
	}
	var out []Diagnostic
	for _, p := range pkgs {
		as := analyzers
		if p.TestVariant {
			as = testAnalyzers
		}
		ds, err := analyze(p, as, suite)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			if p.TestVariant && !strings.HasSuffix(d.Position.Filename, "_test.go") {
				// The variant re-includes production files; their
				// findings are the plain package's to report.
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// Run loads the patterns and analyzes every matched package;
// testAnalyzers is the subset applied to _test.go files when opts.Tests is
// set, and its names stay valid in suppression directives either way.
func Run(dir string, opts Options, analyzers, testAnalyzers []*analysis.Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, opts, patterns...)
	if err != nil {
		return nil, err
	}
	return RunAll(pkgs, analyzers, testAnalyzers)
}
