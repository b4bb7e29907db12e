// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: just enough Analyzer/Pass
// machinery for rapidlint's invariant checkers, built only on the standard
// library so the linter works in sandboxes with no module proxy. The shapes
// mirror x/tools deliberately — an analyzer written against this package
// ports to the real framework by changing one import. There are no facts:
// an analyzer sees one package at a time, and imported packages only
// through their types.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker: a name, what it enforces, and a
// Run function invoked once per type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// directives (lowercase, no spaces).
	Name string
	// Doc is the one-paragraph description printed by rapidlint -help.
	Doc string
	// Run analyzes one package via the pass and reports diagnostics.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer's Run.
type Pass struct {
	// Analyzer is the checker this pass runs.
	Analyzer *Analyzer
	// Fset maps token positions for every file of the pass.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression, definition and use
	// maps for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic (suppression is applied by the
	// driver, not here).
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states the violated invariant and the remedy.
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Preorder walks every file of the pass in depth-first order, invoking fn on
// each node. A false return from fn prunes that node's children.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// isNamed reports whether t (or the type it points to, through one pointer)
// is the named type pkgSuffix.name, where pkgSuffix is matched against the
// end of the defining package's import path. Matching by suffix lets test
// fixtures under testdata/ exercise analyzers against the real engine types
// they import.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return hasPathSuffix(obj.Pkg().Path(), pkgSuffix)
}

// hasPathSuffix reports whether path equals suffix or ends in "/"+suffix.
func hasPathSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// PkgPathSuffix reports whether the package's import path ends with suffix
// (at a path-segment boundary). Analyzers scoped to specific engine packages
// use it so their testdata fixtures, whose import paths end with the same
// segment, fall in scope too.
func PkgPathSuffix(pkg *types.Package, suffix string) bool {
	return pkg != nil && hasPathSuffix(pkg.Path(), suffix)
}
