package analysis

import (
	"go/ast"
	"go/types"
)

// IsPkgCall reports whether call invokes the package-level function
// pkgPath.name, where pkgPath matches the imported package's path exactly
// ("fmt") or by path suffix.
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && hasPathSuffix(pn.Imported().Path(), pkgPath)
}

// IsStringType reports whether t's underlying type is string.
func IsStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// IsByteSlice reports whether t's underlying type is []byte.
func IsByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
