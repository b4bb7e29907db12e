package analysis

import (
	"go/ast"
	"go/types"
)

// WithStack walks every file of the pass; fn receives each node together with
// its ancestors (outermost first, innermost last). Returning false prunes the
// node's children.
func (p *Pass) WithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

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

// IsEmitCall reports whether call invokes a value of the engine's emit
// function type (mapred.Emit) — the canonical record sink.
func IsEmitCall(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call.Fun)
	return t != nil && isNamed(t, "internal/mapred", "Emit")
}

// IsMethodOn reports whether call is a method call with one of the given
// names on the named type pkgSuffix.typeName (through one pointer, and
// through interfaces by the interface type's own name).
func IsMethodOn(info *types.Info, call *ast.CallExpr, pkgSuffix, typeName string, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	found := false
	for _, n := range names {
		if sel.Sel.Name == n {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	return isNamed(s.Recv(), pkgSuffix, typeName)
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
