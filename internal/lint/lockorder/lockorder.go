// Package lockorder defines the lock-ordering analyzer. It enforces two
// rules which together rule out lock-order deadlocks between packages as
// well as within one:
//
//   - Locks are package-private: acquiring a mutex declared in another
//     package is reported. Then a lock is only ever taken by code of its
//     own package, so holding a lock of package A while acquiring one of
//     package B means A called into B — A imports B. Every cross-package
//     edge points down the import graph, which the go toolchain keeps
//     acyclic, so no cycle can pass through two packages.
//   - Within a package, pairs of locks are acquired in one order: the
//     analyzer builds the package's acquisition graph and reports the
//     acquisition that closes a cycle — two code paths taking the same
//     pair of locks in opposite orders, the classic deadlock recipe.
//
// Locks are tracked as classes, not instances: a class is the declaration
// site of the mutex — a struct field (store.Store.mu), a package-level
// variable, or, for externally-lockable types embedding sync.Mutex, the
// named type itself. Within a function the analyzer keeps the linear
// held-set; acquiring B while holding A records the edge A → B. A
// per-function summary of the classes each function may acquire, computed
// to a fixpoint over the package, adds edges for calls to functions of the
// same package made while holding a lock.
//
// The first edge between a pair of classes (in source order) establishes
// the order; a later reversed edge is reported at its acquisition site.
// Function literals are analyzed as separate units with an empty held-set:
// the analyzer does not guess where a callback runs, and likewise does not
// follow calls through interfaces or function values.
package lockorder

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"rapidanalytics/internal/lint/analysis"
)

// Analyzer reports foreign lock acquisitions and acquisitions that close
// an ordering cycle.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "locks stay package-private, and pairs of locks are acquired in one consistent order on every path",
	Run:  run,
}

// edge is one observed ordering: to was acquired while from was held, at
// site.
type edge struct {
	from, to string
	site     ast.Node
}

func run(pass *analysis.Pass) error {
	funcs := pass.Funcs()

	// Phase 1: per-function acquire summaries to a fixpoint, so transitive
	// acquisition through intra-package call chains converges.
	acquires := map[*types.Func][]string{}
	analysis.Fixpoint(len(funcs)+2, func() bool {
		changed := false
		for _, fb := range funcs {
			u := &unit{pass: pass, summaries: acquires, acquires: map[string]bool{}}
			u.walkAll(fb.Decl.Body)
			classes := make([]string, 0, len(u.acquires))
			for c := range u.acquires {
				classes = append(classes, c)
			}
			slices.Sort(classes)
			if !slices.Equal(acquires[fb.Obj], classes) {
				acquires[fb.Obj] = classes
				changed = true
			}
		}
		return changed
	})

	// Phase 2: collect the package's edges in source order, reporting
	// foreign acquisitions on the way.
	var edges []edge
	for _, fb := range funcs {
		u := &unit{pass: pass, summaries: acquires, report: true}
		u.walkAll(fb.Decl.Body)
		edges = append(edges, u.edges...)
	}

	// Phase 3: add edges one by one; an edge whose reverse direction is
	// already reachable closes a cycle and is reported at its site.
	graph := map[string]map[string]bool{}
	reported := map[[2]string]bool{}
	for _, e := range edges {
		pair := [2]string{min(e.from, e.to), max(e.from, e.to)}
		if reaches(graph, e.to, e.from) && !reported[pair] {
			reported[pair] = true
			pass.Reportf(e.site.Pos(),
				"acquiring %s while holding %s closes a lock-order cycle: %s is elsewhere acquired before %s; pick one order",
				short(e.to), short(e.from), short(e.to), short(e.from))
		}
		if graph[e.from] == nil {
			graph[e.from] = map[string]bool{}
		}
		graph[e.from][e.to] = true
	}
	return nil
}

// reaches reports whether to is reachable from from in the edge graph.
func reaches(graph map[string]map[string]bool, from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	frontier := []string{from}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for next := range graph[n] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	return false
}

// unit walks one function body (or function literal) with a linear
// held-set. Branches are traversed in sequence — an overapproximation of
// the held-set that errs toward extra edges, never missed ones. A unit
// either collects the classes its body may acquire (acquires non-nil) or
// records edges and reports foreign acquisitions (report).
type unit struct {
	pass      *analysis.Pass
	summaries map[*types.Func][]string // acquire summaries of the package's functions
	held      []string                 // acquisition order, duplicates counted
	acquires  map[string]bool
	report    bool
	edges     []edge
	pending   []*ast.BlockStmt // function literals, analyzed fresh
}

// walkAll walks body and then every function literal found inside it, each
// as its own unit with an empty held-set.
func (u *unit) walkAll(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	u.walk(body)
	for len(u.pending) > 0 {
		next := u.pending[0]
		u.pending = u.pending[1:]
		sub := &unit{pass: u.pass, summaries: u.summaries, acquires: u.acquires, report: u.report}
		sub.walk(next)
		u.edges = append(u.edges, sub.edges...)
		u.pending = append(u.pending, sub.pending...)
	}
}

func (u *unit) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			u.pending = append(u.pending, n.Body)
			return false
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held to function exit (the
			// sticky case); a deferred closure runs at exit with an
			// unknowable held-set, so it is analyzed as a fresh unit.
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				u.pending = append(u.pending, lit.Body)
			}
			return false
		case *ast.CallExpr:
			if class, pkg, op, ok := u.mutexOp(n); ok {
				if class == "" {
					return false // unclassed (local) mutex
				}
				switch op {
				case opAcquire:
					if u.report && pkg != u.pass.Pkg {
						u.pass.Reportf(n.Pos(),
							"acquiring %s, a lock of package %s: keep locks package-private and lock them only through that package's functions",
							short(class), pkg.Name())
					}
					u.acquire(class, n)
				case opRelease:
					u.release(class)
				}
				return false
			}
			u.applyCallee(n)
			return true
		}
		return true
	})
}

// acquire records edges from every held class and pushes the class.
func (u *unit) acquire(class string, site ast.Node) {
	u.taken(class, site)
	u.held = append(u.held, class)
}

// taken notes that class is acquired at site while the held-set is live:
// into the summary, or as edges from every held class.
func (u *unit) taken(class string, site ast.Node) {
	if u.acquires != nil {
		u.acquires[class] = true
	}
	if u.report {
		for _, h := range u.held {
			if h != class {
				u.edges = append(u.edges, edge{from: h, to: class, site: site})
			}
		}
	}
}

// release drops the most recent acquisition of the class.
func (u *unit) release(class string) {
	for i := len(u.held) - 1; i >= 0; i-- {
		if u.held[i] == class {
			u.held = append(u.held[:i], u.held[i+1:]...)
			return
		}
	}
}

// applyCallee folds a same-package callee's acquire summary into the
// graph: its classes are taken while the caller's held-set is live.
func (u *unit) applyCallee(call *ast.CallExpr) {
	if callee := analysis.StaticCallee(u.pass.TypesInfo, call); callee != nil {
		for _, c := range u.summaries[callee.Origin()] {
			u.taken(c, call)
		}
	}
}

type mutexVerb int

const (
	opAcquire mutexVerb = iota
	opRelease
)

// mutexOp classifies a call as a sync.Mutex/RWMutex Lock/Unlock and
// resolves the lock class — the mutex's declaration site — and the package
// that declares it.
func (u *unit) mutexOp(call *ast.CallExpr) (class string, pkg *types.Package, op mutexVerb, ok bool) {
	fun, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, 0, false
	}
	switch fun.Sel.Name {
	case "Lock", "RLock":
		op = opAcquire
	case "Unlock", "RUnlock":
		op = opRelease
	default:
		return "", nil, 0, false
	}
	sel, isMethod := u.pass.TypesInfo.Selections[fun]
	if !isMethod || sel.Kind() != types.MethodVal {
		return "", nil, 0, false
	}
	m, isFunc := sel.Obj().(*types.Func)
	if !isFunc || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", nil, 0, false
	}
	// A promoted method means the receiver type embeds the mutex: the
	// named type itself is the externally-lockable class.
	if len(sel.Index()) > 1 {
		if named := namedOf(sel.Recv()); named != nil {
			return classOf(named.Obj()), named.Obj().Pkg(), op, true
		}
		return "", nil, op, true
	}
	class, pkg = u.classOfExpr(fun.X)
	return class, pkg, op, true
}

// classOfExpr maps the mutex-valued receiver expression to its declaration
// site: a field (owner type + field name) or a package-level variable.
// Locals have no class — a lock that never escapes its function cannot
// participate in a cross-function cycle.
func (u *unit) classOfExpr(e ast.Expr) (string, *types.Package) {
	info := u.pass.TypesInfo
	var id *ast.Ident
	switch rx := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if fsel, ok := info.Selections[rx]; ok && fsel.Kind() == types.FieldVal {
			if named := namedOf(fsel.Recv()); named != nil {
				return classOf(named.Obj()) + "." + fsel.Obj().Name(), named.Obj().Pkg()
			}
			return "", nil
		}
		id = rx.Sel // qualified identifier: pkg.Var
	case *ast.Ident:
		id = rx
	}
	if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return classOf(v), v.Pkg()
	}
	return "", nil
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// classOf names a package-level object by its package path and name.
func classOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// short trims a class to its trailing package segment for readable
// diagnostics: ".../internal/share.Scheduler.mu" → "share.Scheduler.mu".
func short(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}
