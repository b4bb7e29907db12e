// Package doccheck holds the repository's source-level checks, plain tests
// that parse Go files so they run everywhere `go test ./...` does.
//
// Godoc coverage: every exported type, function, method, struct field and
// package-level var/const in internal/mapred, internal/ntga, internal/vec,
// internal/blockstore, internal/stats, internal/share, internal/loadgen,
// the record codecs (internal/codec), the Hive baselines (internal/hive),
// the engines' shared contract and finish path (internal/engine), the NTGA
// operators (internal/tgops), the load path (internal/rdf, internal/store),
// the oracle (internal/refimpl) and the goroutine-leak check
// (internal/leaktest) must carry a doc comment. Methods on unexported
// types (the Hive mappers' Map, say) are not flagged: they satisfy an
// interface documented elsewhere.
//
// Lock privacy (TestLocksArePackagePrivate): no exported or embedded
// mutex anywhere in the tree.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// checkedPackages are the directories held to full godoc coverage.
var checkedPackages = []string{
	"../mapred", "../ntga", "../vec", "../blockstore", "../stats",
	"../share", "../loadgen", "../codec", "../hive", "../engine", "../tgops",
	"../store", "../rdf", "../refimpl", "../leaktest",
}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range checkedPackages {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			for _, miss := range undocumented(t, dir) {
				t.Error(miss)
			}
		})
	}
}

// undocumented parses every non-test file in dir and returns one message
// per exported identifier lacking a doc comment.
func undocumented(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
						report(d.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a func decl is a plain function or a method
// on an exported receiver type; methods on unexported types are skipped.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
		typ = idx.X
	}
	id, ok := typ.(*ast.Ident)
	return !ok || id.IsExported()
}

// checkGenDecl reports undocumented exported types, struct fields, and
// package-level vars/consts within one declaration group.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if !sp.Name.IsExported() {
				continue
			}
			if d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
				report(sp.Pos(), "type", sp.Name.Name)
			}
			if st, ok := sp.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.IsExported() && f.Doc == nil && f.Comment == nil {
							report(name.Pos(), "field", sp.Name.Name+"."+name.Name)
						}
					}
				}
			}
		case *ast.ValueSpec:
			if d.Tok != token.VAR && d.Tok != token.CONST {
				continue
			}
			for _, name := range sp.Names {
				// A documented group (var/const block with a doc comment)
				// covers its members.
				if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
					report(name.Pos(), strings.ToLower(d.Tok.String()), name.Name)
				}
			}
		}
	}
}
