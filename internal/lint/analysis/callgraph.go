package analysis

import (
	"go/ast"
	"go/types"
)

// Call-graph helpers for analyzers that summarize functions within one
// package (lockorder): enumerate the package's function bodies,
// resolve statically-known callees, and iterate summary computations to a
// fixpoint so recursion (direct or mutual) converges instead of depending
// on declaration order.

// FuncBody is one analyzable function body: a declared function or method
// (Decl non-nil) together with its types.Func object.
type FuncBody struct {
	// Obj is the function's type-checker object.
	Obj *types.Func
	// Decl is the syntax; Decl.Body may be nil for bodyless declarations.
	Decl *ast.FuncDecl
}

// Funcs returns every declared function and method of the pass's package
// that has a body, in source order.
func (p *Pass) Funcs() []FuncBody {
	var out []FuncBody
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, FuncBody{Obj: obj, Decl: fd})
		}
	}
	return out
}

// StaticCallee resolves the function a call invokes, when that is
// statically known: a package-level function (local or imported), or a
// method call on a concrete receiver. Interface method calls, function
// values, conversions and builtins return nil — they are the dynamic edges
// the summarizing analyzers treat conservatively.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			f, ok := sel.Obj().(*types.Func)
			if !ok || types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
			return f
		}
		// Qualified identifier: pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// Fixpoint re-runs step until it reports no change, bounding the iteration
// count (summaries grow monotonically, so convergence is certain; the
// bound is a safety net against a non-monotone step).
func Fixpoint(maxRounds int, step func() (changed bool)) {
	for i := 0; i < maxRounds; i++ {
		if !step() {
			return
		}
	}
}
