// Package closecheck defines the resource-leak analyzer: values carrying a
// Close or Release method obtained from the engine's resource packages
// (dfs, blockstore, share) must reach a close on every path out of the
// acquiring function, or have their ownership visibly transferred — by
// returning them, storing them into a longer-lived structure, or passing
// them to a function of the same package whose summary says it disposes
// of them.
//
// The analysis is path-sensitive per function body. Two per-function
// summaries, computed to a fixpoint over the package before any diagnostic,
// stitch the package's functions together:
//
//   - closes: which resource parameters the function disposes of on every
//     path (closes them, stores them, or hands them to another disposer).
//     Passing a tracked value to a resource-typed parameter without this
//     guarantee — including any function of another package — does NOT
//     discharge the caller.
//   - owns: which results carry a freshly acquired resource, so callers
//     track the value even when the declared result type is not from a
//     resource package.
//
// The error-return idiom is understood: after v, err := Open(...), paths
// guarded by err != nil (or v == nil) owe no close for v. A defer v.Close()
// discharges v on every path that follows it.
package closecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"rapidanalytics/internal/lint/analysis"
)

// Analyzer reports engine resources that do not reach Close on every path.
var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc:  "engine resources (dfs, blockstore, share) must be closed on every path or visibly change owner",
	Run:  run,
}

// summaries are one package's per-function disposal summaries, keyed by
// the declared function (callees resolve through Origin, so instantiated
// generic methods find their declaration's entry).
type summaries struct {
	closes map[*types.Func][]int // parameter indices disposed of on every path
	owns   map[*types.Func][]int // result indices carrying a fresh resource
}

// resourcePkgs are the import-path suffixes whose Close/Release-bearing
// types the analyzer tracks. plancache handles are value types with no
// lifecycle; server and store own resources through these three.
var resourcePkgs = []string{"dfs", "blockstore", "share"}

// isResourceType reports whether t (through one pointer) is a named type or
// interface from a resource package whose method set includes Close or
// Release.
func isResourceType(t types.Type) bool {
	if t == nil {
		return false
	}
	base := t
	if ptr, ok := base.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	named, ok := base.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	policed := false
	for _, suffix := range resourcePkgs {
		if analysis.PkgPathSuffix(pkg, suffix) {
			policed = true
			break
		}
	}
	if !policed {
		return false
	}
	return hasCloser(t)
}

// hasCloser reports whether t's method set (or its pointer's) has a Close
// or Release method.
func hasCloser(t types.Type) bool {
	for _, mt := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(mt)
		for i := 0; i < ms.Len(); i++ {
			name := ms.At(i).Obj().Name()
			if name == "Close" || name == "Release" {
				return true
			}
		}
		if _, ok := t.(*types.Pointer); ok {
			break // already the pointer type
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	// Phase 1: iterate per-function disposal summaries to a fixpoint so
	// intra-package call chains (a closes via b closes via Close) converge.
	sums := &summaries{closes: map[*types.Func][]int{}, owns: map[*types.Func][]int{}}
	funcs := pass.Funcs()
	analysis.Fixpoint(len(funcs)+2, func() bool {
		changed := false
		for _, fb := range funcs {
			if summarize(pass, sums, fb) {
				changed = true
			}
		}
		return changed
	})

	// Phase 2: diagnostics. Every function body — and every function
	// literal within, analyzed as its own unit — is checked for resources
	// that can exit scope open.
	for _, fb := range funcs {
		w := newWalker(pass, sums, false)
		w.trackBody(fb.Decl.Type, fb.Decl.Body)
		w.reportLeaks()
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			w := newWalker(pass, sums, false)
			w.trackFuncLit(lit)
			w.reportLeaks()
			return true
		})
	}
	return nil
}

// summarize recomputes one function's closes and owns summaries and
// reports whether either changed.
func summarize(pass *analysis.Pass, sums *summaries, fb analysis.FuncBody) bool {
	sig, ok := fb.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	w := newWalker(pass, sums, true)
	// Pre-track resource-typed parameters so the walk tells us whether
	// every path disposes of them.
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if isResourceType(p.Type()) {
			w.trackParam(p, i)
		}
	}
	w.trackBody(fb.Decl.Type, fb.Decl.Body)

	var closes []int
	for i := 0; i < params.Len(); i++ {
		if r, ok := w.res[params.At(i)]; ok && !r.leaked {
			closes = append(closes, i)
		}
	}
	var results []int
	for i := range w.ownedResults {
		results = append(results, i)
	}
	slices.Sort(results)
	changed := !slices.Equal(sums.closes[fb.Obj], closes) || !slices.Equal(sums.owns[fb.Obj], results)
	sums.closes[fb.Obj], sums.owns[fb.Obj] = closes, results
	return changed
}

// resource is one tracked value: where it was acquired and how it may be
// excused.
type resource struct {
	v      *types.Var
	pos    token.Pos
	name   string
	errVar types.Object // error assigned alongside, for err-guard paths
	param  int          // parameter index, or -1 for a local acquisition
	leaked bool         // open at some exit
}

// state is the per-path disposal state: the set of still-open resources.
// Copied at branches, intersected at merges.
type state struct {
	open map[*types.Var]bool
}

func (s state) clone() state {
	c := state{open: make(map[*types.Var]bool, len(s.open))}
	for k, v := range s.open {
		c.open[k] = v
	}
	return c
}

// merge keeps a resource open if it is open in either continuing branch.
func merge(a, b state) state {
	out := a.clone()
	for v := range b.open {
		out.open[v] = true
	}
	return out
}

// walker runs the path-sensitive disposal analysis over one function body.
type walker struct {
	pass    *analysis.Pass
	info    *types.Info
	sums    *summaries
	summary bool // computing summaries: collect, don't report

	res          map[*types.Var]*resource
	order        []*resource
	ownedResults map[int]bool // result indices returning a fresh resource
	// loops holds, per enclosing loop, the resources open when its body
	// was entered: anything else open at an unlabeled continue was
	// acquired in the iteration and dies with it.
	loops []map[*types.Var]bool
}

func newWalker(pass *analysis.Pass, sums *summaries, summary bool) *walker {
	return &walker{
		pass:         pass,
		info:         pass.TypesInfo,
		sums:         sums,
		summary:      summary,
		res:          map[*types.Var]*resource{},
		ownedResults: map[int]bool{},
	}
}

// trackParam pre-registers a resource-typed parameter before the walk.
func (w *walker) trackParam(p *types.Var, index int) {
	r := &resource{v: p, pos: p.Pos(), name: p.Name(), param: index}
	w.res[p] = r
	w.order = append(w.order, r)
}

// trackBody walks a function body, seeding the open set with any
// pre-tracked parameters.
func (w *walker) trackBody(ftype *ast.FuncType, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	st := state{open: map[*types.Var]bool{}}
	for v, r := range w.res {
		if r.param >= 0 {
			st.open[v] = true
		}
	}
	st, terminated := w.block(body, st)
	if !terminated {
		w.exit(st)
	}
}

// trackFuncLit analyzes a function literal as an independent unit: only
// resources acquired inside it are tracked (captures are handled as
// transfers in the enclosing walk).
func (w *walker) trackFuncLit(lit *ast.FuncLit) {
	w.trackBody(lit.Type, lit.Body)
}

// exit marks every resource still open at a function exit as leaked.
func (w *walker) exit(st state) {
	for v := range st.open {
		if r := w.res[v]; r != nil {
			r.leaked = true
		}
	}
}

// reportLeaks emits one diagnostic per leaked local acquisition, at the
// acquisition site.
func (w *walker) reportLeaks() {
	if w.summary {
		return
	}
	for _, r := range w.order {
		if r.leaked && r.param < 0 {
			w.pass.Reportf(r.pos,
				"%s is not closed on every path; defer %s.Close() after acquiring it, or transfer ownership (return it, store it, or pass it to a disposer)",
				r.name, r.name)
		}
	}
}

// block walks a statement list, threading state; a true second result means
// every path through the list terminated (returned, panicked, or jumped).
func (w *walker) block(b *ast.BlockStmt, st state) (state, bool) {
	return w.stmts(b.List, st)
}

func (w *walker) stmts(list []ast.Stmt, st state) (state, bool) {
	for _, s := range list {
		var terminated bool
		st, terminated = w.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *walker) stmt(s ast.Stmt, st state) (state, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s, &st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				w.valueSpec(vs, &st)
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X, false, &st)
	case *ast.SendStmt:
		w.expr(s.Chan, false, &st)
		w.expr(s.Value, true, &st)
	case *ast.IncDecStmt:
		w.expr(s.X, false, &st)
	case *ast.DeferStmt:
		w.deferStmt(s, &st)
	case *ast.GoStmt:
		w.expr(s.Call, false, &st)
	case *ast.ReturnStmt:
		w.returnStmt(s, &st)
		w.exit(st)
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto end this path; resources open here either
		// outlive the jump (outer acquisitions, still in the merged state)
		// or die with the loop iteration. An unlabeled continue ends the
		// iteration here, so it checks those as the end of the body does.
		if s.Tok == token.CONTINUE && s.Label == nil && len(w.loops) > 0 {
			w.leakIterationLocals(st, w.loops[len(w.loops)-1])
		}
		return st, true
	case *ast.BlockStmt:
		return w.block(s, st)
	case *ast.IfStmt:
		return w.ifStmt(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.expr(s.Cond, false, &st)
		}
		out := w.loopBody(s.Body, s.Post, st)
		// A for{} with no condition and no break never falls through.
		return out, s.Cond == nil && !hasLoopBreak(s.Body)
	case *ast.RangeStmt:
		w.expr(s.X, false, &st)
		return w.loopBody(s.Body, nil, st), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.expr(s.Tag, false, &st)
		}
		return w.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		// The assign clause (v := x.(type)) aliases x; treat x as escaping.
		if as, ok := s.Assign.(*ast.AssignStmt); ok {
			for _, rhs := range as.Rhs {
				w.expr(rhs, true, &st)
			}
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			w.expr(es.X, true, &st)
		}
		return w.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		return w.caseClauses(s.Body, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.EmptyStmt:
	default:
		// Unknown statement kind: scan conservatively.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, true, &st)
				return false
			}
			return true
		})
	}
	return st, false
}

// loopBody walks a loop body once; resources acquired inside the body must
// be disposed of by the end of the body (each iteration reacquires), while
// outer resources merge conservatively (the body may run zero times).
func (w *walker) loopBody(body *ast.BlockStmt, post ast.Stmt, st state) state {
	before := st.clone()
	inner := st.clone()
	outerVars := map[*types.Var]bool{}
	for v := range st.open {
		outerVars[v] = true
	}
	w.loops = append(w.loops, outerVars)
	inner, terminated := w.block(body, inner)
	w.loops = w.loops[:len(w.loops)-1]
	if post != nil && !terminated {
		inner, _ = w.stmt(post, inner)
	}
	if !terminated {
		// End of iteration: anything acquired inside and still open leaks.
		w.leakIterationLocals(inner, outerVars)
	}
	// After the loop, an outer resource is open unless it was open before
	// and closed by a body that is guaranteed... it is not (zero
	// iterations), so the pre-loop state stands.
	return before
}

// leakIterationLocals marks every resource open in st that was not open
// when the loop body was entered (outer) as leaked: the iteration ends and
// nothing refers to it any more.
func (w *walker) leakIterationLocals(st state, outer map[*types.Var]bool) {
	for v := range st.open {
		if !outer[v] {
			if r := w.res[v]; r != nil {
				r.leaked = true
			}
		}
	}
}

// hasLoopBreak reports whether body contains a break that exits the
// enclosing loop (an unqualified break not captured by a nested loop,
// switch or select; labeled breaks count conservatively).
func hasLoopBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // their breaks don't exit this loop
		}
		return !found
	}
	ast.Inspect(body, walk)
	return found
}

// caseClauses walks each case of a switch/select body from the same entry
// state and merges the continuing branches. A missing default keeps the
// entry state as one of the merged paths.
func (w *walker) caseClauses(body *ast.BlockStmt, st state) (state, bool) {
	var merged *state
	hasDefault := false
	allTerminated := true
	for _, c := range body.List {
		branch := st.clone()
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.expr(e, false, &st)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				branch, _ = w.stmt(c.Comm, branch)
			}
			list = c.Body
		}
		out, terminated := w.stmts(list, branch)
		if terminated {
			continue
		}
		allTerminated = false
		if merged == nil {
			m := out.clone()
			merged = &m
		} else {
			m := merge(*merged, out)
			merged = &m
		}
	}
	if !hasDefault {
		allTerminated = false
		if merged == nil {
			m := st.clone()
			merged = &m
		} else {
			m := merge(*merged, st)
			merged = &m
		}
	}
	if merged == nil {
		return st, allTerminated && len(body.List) > 0
	}
	return *merged, false
}

// ifStmt walks both branches with err-guard exemptions applied and merges
// the continuing paths.
func (w *walker) ifStmt(s *ast.IfStmt, st state) (state, bool) {
	if s.Init != nil {
		st, _ = w.stmt(s.Init, st)
	}
	w.expr(s.Cond, false, &st)

	thenSt := st.clone()
	elseSt := st.clone()
	w.applyGuard(s.Cond, &thenSt, &elseSt)

	thenOut, thenTerm := w.block(s.Body, thenSt)
	var elseOut state
	elseTerm := false
	if s.Else != nil {
		elseOut, elseTerm = w.stmt(s.Else, elseSt)
	} else {
		elseOut = elseSt
	}
	switch {
	case thenTerm && elseTerm:
		return st, true
	case thenTerm:
		return elseOut, false
	case elseTerm:
		return thenOut, false
	default:
		return merge(thenOut, elseOut), false
	}
}

// applyGuard interprets nil-guard conditions: on the branch where the
// paired error is non-nil (or the resource itself is nil), the resource was
// never acquired and owes no close.
func (w *walker) applyGuard(cond ast.Expr, thenSt, elseSt *state) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	if bin.Op != token.NEQ && bin.Op != token.EQL {
		return
	}
	var operand ast.Expr
	if isNil(w.info, bin.X) {
		operand = bin.Y
	} else if isNil(w.info, bin.Y) {
		operand = bin.X
	} else {
		return
	}
	id, ok := ast.Unparen(operand).(*ast.Ident)
	if !ok {
		return
	}
	obj := w.info.Uses[id]
	if obj == nil {
		return
	}
	// nilBranch is the state for the path where the operand is nil.
	nilBranch := thenSt
	if bin.Op == token.NEQ {
		nilBranch = elseSt
	}
	for v, r := range w.res {
		if obj == v {
			delete(nilBranch.open, v) // the resource itself is nil here
		}
		if r.errVar != nil && r.errVar == obj {
			// err == nil on nilBranch... no: operand is the error; the
			// branch where err is nil is where the resource IS valid. The
			// exemption applies where err != nil.
			errBranch := elseSt
			if bin.Op == token.NEQ {
				errBranch = thenSt
			}
			delete(errBranch.open, v)
		}
	}
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilConst := info.Uses[id].(*types.Nil)
	return isNilConst || id.Name == "nil"
}

// valueSpec handles var declarations with initializers as acquisitions.
func (w *walker) valueSpec(vs *ast.ValueSpec, st *state) {
	if len(vs.Values) == 0 {
		return
	}
	lhs := make([]ast.Expr, len(vs.Names))
	for i, n := range vs.Names {
		lhs[i] = n
	}
	w.assignLike(lhs, vs.Values, true, st)
}

// assign handles := and = statements: acquisitions on the left, escapes on
// the right.
func (w *walker) assign(s *ast.AssignStmt, st *state) {
	w.assignLike(s.Lhs, s.Rhs, s.Tok == token.DEFINE, st)
}

func (w *walker) assignLike(lhs, rhs []ast.Expr, define bool, st *state) {
	// Single call producing multiple values: v, err := open(...).
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			w.expr(call, false, st)
			w.acquireFromCall(lhs, call, st)
			return
		}
	}
	for i, r := range rhs {
		// A resource flowing to any destination other than a fresh local
		// is an ownership transfer (field, global, element, or alias).
		w.expr(r, true, st)
		if i < len(lhs) {
			w.overwrite(lhs[i], st)
		}
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		for _, l := range lhs {
			w.overwrite(l, st)
		}
	}
}

// acquireFromCall registers resources produced by a call assignment and
// pairs them with an error result for the err-guard idiom.
func (w *walker) acquireFromCall(lhs []ast.Expr, call *ast.CallExpr, st *state) {
	// Results of calls through plain function values (local closures, func
	// fields, func parameters) are not tracked: factories behind function
	// values commonly memoize and retain ownership. Static functions and
	// method calls — including interface methods — follow the Create/Open
	// convention: a returned resource belongs to the caller.
	if !w.ownershipConvention(call) {
		for _, l := range lhs {
			w.overwrite(l, st)
		}
		return
	}
	// Which result indices carry an owned resource? Judge by the call's
	// static result types so a resource discarded into _ is still seen.
	owned := map[int]bool{}
	for i, rt := range w.resultTypes(call) {
		if i < len(lhs) && isResourceType(rt) {
			owned[i] = true
		}
	}
	if callee := analysis.StaticCallee(w.info, call); callee != nil {
		for _, i := range w.sums.owns[callee.Origin()] {
			if i < len(lhs) {
				owned[i] = true
			}
		}
	}
	if len(owned) == 0 {
		for _, l := range lhs {
			w.overwrite(l, st)
		}
		return
	}
	// Find the paired error variable, if the call also returns one.
	var errObj types.Object
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
			if obj := w.lhsVar(id); obj != nil && isErrorType(obj.Type()) {
				errObj = obj
			}
		}
	}
	for i, l := range lhs {
		id, _ := l.(*ast.Ident)
		if id == nil {
			continue
		}
		obj := w.lhsVar(id)
		if obj == nil {
			if owned[i] && !w.summary {
				// A resource assigned to _ is dropped on the floor.
				w.reportDiscard(id.Pos(), call)
			}
			continue
		}
		w.overwrite(id, st)
		if !owned[i] {
			continue
		}
		r := &resource{v: obj, pos: id.Pos(), name: id.Name, errVar: errObj, param: -1}
		w.res[obj] = r
		w.order = append(w.order, r)
		st.open[obj] = true
	}
}

// ownershipConvention reports whether a call's resource-typed results
// belong to the caller: true for static callees and method calls (however
// dispatched), false for calls through bare function values.
func (w *walker) ownershipConvention(call *ast.CallExpr) bool {
	if analysis.StaticCallee(w.info, call) != nil {
		return true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return true
		}
	}
	return false
}

// reportDiscard flags `_, err := Acquire(...)`: the resource exists and can
// never be closed.
func (w *walker) reportDiscard(pos token.Pos, call *ast.CallExpr) {
	w.pass.Reportf(pos, "acquired resource is assigned to _ and can never be closed")
}

// resultTypes returns the static types of a call's results.
func (w *walker) resultTypes(call *ast.CallExpr) []types.Type {
	tv, ok := w.info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		out := make([]types.Type, tuple.Len())
		for i := 0; i < tuple.Len(); i++ {
			out[i] = tuple.At(i).Type()
		}
		return out
	}
	return []types.Type{tv.Type}
}

// lhsVar resolves an assignment target identifier to its variable object.
func (w *walker) lhsVar(id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	if obj, ok := w.info.Defs[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := w.info.Uses[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// overwrite handles a tracked variable being reassigned: the previous value
// leaks if still open.
func (w *walker) overwrite(l ast.Expr, st *state) {
	id, ok := l.(*ast.Ident)
	if !ok {
		w.expr(l, false, st)
		return
	}
	obj := w.lhsVar(id)
	if obj == nil {
		return
	}
	if st.open[obj] {
		if r := w.res[obj]; r != nil {
			r.leaked = true
		}
		delete(st.open, obj)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// deferStmt handles defers: a deferred Close discharges the resource on
// every subsequent path; a deferred closure is scanned for closes and
// captures.
func (w *walker) deferStmt(s *ast.DeferStmt, st *state) {
	if v := w.closeReceiver(s.Call); v != nil {
		delete(st.open, v)
		return
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		w.scanClosure(lit, st)
		return
	}
	w.expr(s.Call, false, st)
}

// scanClosure processes a deferred or spawned closure: closes inside it
// count (defers run at exit), and any other capture of an open resource is
// a conservative transfer.
func (w *walker) scanClosure(lit *ast.FuncLit, st *state) {
	closed := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v := w.closeReceiver(call); v != nil {
			closed[v] = true
			return false
		}
		return true
	})
	for v := range closed {
		delete(st.open, v)
	}
	// Remaining captures transfer ownership into the closure.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, ok := w.info.Uses[id].(*types.Var); ok && st.open[obj] {
			delete(st.open, obj)
		}
		return true
	})
}

// closeReceiver returns the tracked variable v when call is v.Close() or
// v.Release().
func (w *walker) closeReceiver(call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if sel.Sel.Name != "Close" && sel.Sel.Name != "Release" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, ok := w.info.Uses[id].(*types.Var)
	if !ok || w.res[obj] == nil {
		return nil
	}
	return obj
}

// returnStmt marks returned resources as transferred and, in summary mode,
// records which result indices carry fresh resources.
func (w *walker) returnStmt(s *ast.ReturnStmt, st *state) {
	for i, e := range s.Results {
		if w.summary {
			if v := w.containedOpen(e, *st); v != nil {
				if r := w.res[v]; r != nil && r.param < 0 {
					w.ownedResults[i] = true
				}
			}
		}
		w.expr(e, true, st)
	}
}

// containedOpen finds an open resource variable inside a result expression.
func (w *walker) containedOpen(e ast.Expr, st state) *types.Var {
	var found *types.Var
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := w.info.Uses[id].(*types.Var); ok && st.open[obj] {
				found = obj
				return false
			}
		}
		return true
	})
	return found
}

// expr scans an expression for disposal events. When escapes is true, a
// bare occurrence of an open resource transfers its ownership (composite
// literal, address-of, alias, send, return).
func (w *walker) expr(e ast.Expr, escapes bool, st *state) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if !escapes {
			return
		}
		if obj, ok := w.info.Uses[e].(*types.Var); ok && st.open[obj] {
			delete(st.open, obj)
		}
	case *ast.CallExpr:
		w.call(e, st)
	case *ast.FuncLit:
		// A non-deferred closure capturing an open resource takes it over.
		w.scanClosure(e, st)
	case *ast.ParenExpr:
		w.expr(e.X, escapes, st)
	case *ast.SelectorExpr:
		w.expr(e.X, false, st)
	case *ast.IndexExpr:
		w.expr(e.X, false, st)
		w.expr(e.Index, false, st)
	case *ast.SliceExpr:
		w.expr(e.X, false, st)
	case *ast.BinaryExpr:
		w.expr(e.X, false, st)
		w.expr(e.Y, false, st)
	case *ast.UnaryExpr:
		w.expr(e.X, escapes || e.Op == token.AND, st)
	case *ast.StarExpr:
		w.expr(e.X, false, st)
	case *ast.TypeAssertExpr:
		w.expr(e.X, true, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, true, st)
				continue
			}
			w.expr(el, true, st)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value, true, st)
	default:
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj, ok := w.info.Uses[id].(*types.Var); ok && st.open[obj] {
					delete(st.open, obj)
				}
			}
			return true
		})
	}
}

// call processes one call expression: a Close/Release on a tracked value
// discharges it; other calls dispose of arguments according to the
// callee's closes summary (or conservatively, when the callee is dynamic
// or the parameter is not resource-typed).
func (w *walker) call(call *ast.CallExpr, st *state) {
	if v := w.closeReceiver(call); v != nil {
		delete(st.open, v)
		return
	}
	// Method receiver use does not dispose; scan it non-escaping.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, false, st)
	} else {
		w.expr(call.Fun, false, st)
	}

	callee := analysis.StaticCallee(w.info, call)
	var closes []int
	var sig *types.Signature
	if callee != nil {
		closes = w.sums.closes[callee.Origin()]
		sig, _ = callee.Type().(*types.Signature)
	}
	for i, arg := range call.Args {
		id, isIdent := ast.Unparen(arg).(*ast.Ident)
		if !isIdent {
			w.expr(arg, true, st)
			continue
		}
		obj, ok := w.info.Uses[id].(*types.Var)
		if !ok || !st.open[obj] {
			w.expr(arg, true, st)
			continue
		}
		switch {
		case slices.Contains(closes, paramIndex(sig, i)):
			// The callee disposes of this parameter: obligation moves.
			delete(st.open, obj)
		case callee != nil && sig != nil && isResourceType(paramType(sig, i)):
			// Known callee that neither closes nor visibly sinks a
			// resource-typed parameter: the caller keeps the obligation.
		default:
			// Dynamic callee, or a parameter the callee sees opaquely:
			// assume ownership transfers.
			delete(st.open, obj)
		}
	}
}

// paramIndex maps an argument index to the callee's parameter index,
// folding variadic arguments onto the final parameter.
func paramIndex(sig *types.Signature, arg int) int {
	if sig == nil {
		return arg
	}
	n := sig.Params().Len()
	if sig.Variadic() && arg >= n-1 {
		return n - 1
	}
	if arg >= n {
		return n - 1
	}
	return arg
}

// paramType returns the callee's parameter type seen by argument arg.
func paramType(sig *types.Signature, arg int) types.Type {
	i := paramIndex(sig, arg)
	if i < 0 || i >= sig.Params().Len() {
		return nil
	}
	t := sig.Params().At(i).Type()
	if sig.Variadic() && i == sig.Params().Len()-1 {
		if sl, ok := t.(*types.Slice); ok {
			return sl.Elem()
		}
	}
	return t
}
