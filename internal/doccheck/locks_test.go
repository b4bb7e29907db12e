package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// Locks stay package-private: no exported or embedded sync.Mutex or
// sync.RWMutex, in a struct or at package level, anywhere in the module
// tree. Then only a lock's own package can take it, so holding a lock of
// package A while taking one of package B means A called into B: every
// cross-package lock edge follows the import graph, which Go keeps
// acyclic, and no lock-order cycle can span two packages.
func TestLocksArePackagePrivate(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		check := func(names []*ast.Ident, typ ast.Expr) {
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			sel, ok := typ.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
				return
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "sync" {
				return
			}
			if len(names) == 0 {
				t.Errorf("%s: embedded sync.%s lets other packages lock it", fset.Position(typ.Pos()), sel.Sel.Name)
			}
			for _, n := range names {
				if n.IsExported() {
					t.Errorf("%s: exported lock %s", fset.Position(n.Pos()), n.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					check(field.Names, field.Type)
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs := spec.(*ast.ValueSpec); vs.Type != nil {
						check(vs.Names, vs.Type)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
