// Package hotalloc implements the rapidlint hot-path allocation analyzer.
//
// PR 4's dictionary-encoded data plane earned its allocation wins by moving
// every per-record emit onto pooled AppendEncode/Append* codec APIs. Those
// wins erode one convenience call at a time: a fmt.Sprintf key here, a
// string(buf) conversion there, and allocs/op (BenchmarkCatalogPass
// -benchmem) starts creeping. hotalloc makes the convention explicit:
// functions annotated
//
//	//rapid:hot
//
// are per-record paths, and inside them the analyzer flags fmt formatting
// calls, string([]byte) conversions, and non-constant string concatenation.
// Build keys and records with append into scratch buffers (see
// codec.AppendEncode, algebra AppendEncode, ntga plane helpers) instead.
// Where the allocation is forced by the language (e.g. materializing a
// string map key), suppress with
//
//	//lint:alloc <why this allocation is unavoidable or off the per-record path>
package hotalloc

import (
	"go/ast"
	"go/token"
	"strings"

	"rapidanalytics/internal/lint/analysis"
)

// Analyzer flags allocating conveniences inside //rapid:hot functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags fmt.Sprintf/Errorf, string([]byte) conversions and string " +
		"concatenation inside functions annotated //rapid:hot; per-record paths " +
		"must use the pooled Append*/AppendEncode codec APIs or justify with " +
		"//lint:alloc",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHot(fd) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

// isHot reports whether the function carries a //rapid:hot annotation in its
// doc comment group.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//rapid:hot") {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	// skip suppresses duplicate reports for the operand chain of an
	// already-reported string concatenation ("a"+b+c is two ADD nodes).
	skip := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			for _, name := range []string{"Sprintf", "Sprint", "Sprintln", "Errorf"} {
				if analysis.IsPkgCall(pass.TypesInfo, e, "fmt", name) {
					pass.Reportf(e.Pos(),
						"fmt.%s allocates on the //rapid:hot path %s; build the record with the pooled Append*/AppendEncode codec APIs, or suppress with //lint:alloc <why>",
						name, fd.Name.Name)
					return true
				}
			}
			if isByteToString(pass, e) {
				pass.Reportf(e.Pos(),
					"string([]byte) copies on the //rapid:hot path %s; keep the value as []byte through the codec APIs, or suppress with //lint:alloc <why>",
					fd.Name.Name)
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isAllocatingConcat(pass, e) && !skip[e] {
				pass.Reportf(e.Pos(),
					"string concatenation allocates on the //rapid:hot path %s; append onto a scratch buffer instead, or suppress with //lint:alloc <why>",
					fd.Name.Name)
				markOperands(e, skip)
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 &&
				analysis.IsStringType(pass.TypesInfo.TypeOf(e.Lhs[0])) {
				pass.Reportf(e.Pos(),
					"string += reallocates on the //rapid:hot path %s; append onto a scratch buffer instead, or suppress with //lint:alloc <why>",
					fd.Name.Name)
			}
		}
		return true
	})
}

// isByteToString reports whether call is a string(x) conversion of a []byte.
func isByteToString(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || !analysis.IsStringType(tv.Type) {
		return false
	}
	return analysis.IsByteSlice(pass.TypesInfo.TypeOf(call.Args[0]))
}

// isAllocatingConcat reports whether e is a string + that survives to
// runtime (constant folding makes "a"+"b" free).
func isAllocatingConcat(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && analysis.IsStringType(tv.Type) && tv.Value == nil
}

// markOperands records e's nested ADD operands so a+b+c reports once, at the
// outermost +.
func markOperands(e *ast.BinaryExpr, skip map[ast.Node]bool) {
	for _, op := range []ast.Expr{e.X, e.Y} {
		if be, ok := op.(*ast.BinaryExpr); ok && be.Op == token.ADD {
			skip[be] = true
			markOperands(be, skip)
		}
	}
}
