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
// Only non-test files are analyzed: the invariants rapidlint enforces
// (hot-path allocation, error taxonomy, lock order) are production-code
// properties.
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

	"rapidanalytics/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *listError
}

type listError struct {
	Err string
}

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the package's import path as listed.
	ImportPath string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type information for Files.
	Info *types.Info
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
// result holds the matched packages in go list order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Error",
	}, patterns...)
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
		// Dependencies exist to the analysis only as export data.
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	// One shared importer serves every package; its internal cache then
	// loads each dependency's export data once.
	conf := types.Config{Importer: newExportImporter(fset, exports)}

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
		pkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("driver: type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			Info:       info,
		})
	}
	return pkgs, nil
}

// newExportImporter returns a gc importer resolving import paths through
// the export-data file map.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
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

// RunAll analyzes the loaded packages with analyzers; a suppression
// directive must name one of them. Diagnostics come back in deterministic
// (file, position) order.
func RunAll(pkgs []*Package, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	suite := map[string]bool{}
	for _, a := range analyzers {
		suite[a.Name] = true
	}
	var out []Diagnostic
	for _, p := range pkgs {
		ds, err := analyze(p, analyzers, suite)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
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

// Run loads the patterns and analyzes every matched package.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunAll(pkgs, analyzers)
}
