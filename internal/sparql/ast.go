// Package sparql implements a lexer and recursive-descent parser for the
// subset of SPARQL 1.1 needed by analytical queries: prologue PREFIX
// declarations, SELECT queries with nested sub-SELECTs, basic graph patterns
// with ';' predicate lists and ',' object lists, FILTER constraints (regex
// and comparisons), GROUP BY clauses, the aggregate functions COUNT, SUM,
// AVG, MIN and MAX, and arithmetic projection expressions.
//
// This is the surface syntax of the paper's workload (queries G1–G9 and
// MG1–MG18): an outer SELECT that joins one or more grouped sub-SELECTs,
// each of which aggregates over its own basic graph pattern.
package sparql

import "rapidanalytics/internal/rdf"

// Query is a parsed SPARQL query: a prologue plus the top-level SELECT.
type Query struct {
	// Prefixes maps prefix labels (without the colon) to IRI namespaces.
	Prefixes map[string]string
	// Select is the outermost SELECT query.
	Select *SelectQuery
}

// SelectQuery is a (possibly nested) SELECT query.
type SelectQuery struct {
	// Projection lists the projected items in order.
	Projection []ProjItem
	// Pattern is the WHERE clause group graph pattern.
	Pattern *GroupGraphPattern
	// GroupBy lists grouping variable names (without '?'). Empty means
	// either no grouping (plain select) or, when the projection contains
	// aggregates, a single group over all solutions ("GROUP BY ALL" in the
	// paper's terminology).
	GroupBy []string
	// Having lists HAVING constraints over the query's aggregates.
	Having []HavingCond
	// OrderBy lists ORDER BY keys, outermost query only.
	OrderBy []OrderKey
	// Limit caps the result rows; 0 means no limit.
	Limit int
}

// HavingCond is one HAVING constraint: an aggregate compared to a numeric
// constant, e.g. HAVING (COUNT(?x) > 5). The aggregate must also appear in
// the SELECT projection (a documented restriction of the subset).
type HavingCond struct {
	Agg   Aggregate
	Op    string
	Value float64
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	// Var is the sorted column (a projection variable).
	Var string
	// Desc selects descending order.
	Desc bool
}

// ProjItem is one item of a SELECT projection: a plain variable, an
// aggregate with an alias, or an arithmetic expression with an alias.
// Exactly one of the three forms is populated.
type ProjItem struct {
	// Var is the variable name for a plain `?v` projection, or the alias
	// for aggregate and expression projections.
	Var string
	// Agg is non-nil for aggregate projections such as (COUNT(?x) AS ?c).
	Agg *Aggregate
	// Expr is non-nil for expression projections such as (?a/?b AS ?r).
	Expr *Expr
}

// AggFunc identifies an aggregate function.
type AggFunc string

// Aggregate functions supported by the analytical subset.
const (
	Count AggFunc = "COUNT"
	Sum   AggFunc = "SUM"
	Avg   AggFunc = "AVG"
	Min   AggFunc = "MIN"
	Max   AggFunc = "MAX"
)

// Aggregate is an aggregate function application over a variable.
type Aggregate struct {
	Func AggFunc
	// Var is the aggregated variable name (without '?').
	Var string
	// Distinct marks SPARQL's set-valued form, e.g. COUNT(DISTINCT ?x).
	Distinct bool
}

// GroupGraphPattern is the contents of a `{ ... }` group: triple patterns,
// filters, OPTIONAL blocks and nested sub-SELECTs, in source order.
type GroupGraphPattern struct {
	Triples    []TriplePattern
	Filters    []Filter
	SubSelects []*SelectQuery
	// Optionals holds the OPTIONAL { ... } blocks in source order. The
	// analytical subset supports blocks of one triple pattern whose subject
	// variable the required patterns before the block bind.
	Optionals []Optional
}

// Optional is one OPTIONAL { ... } block of a group. SPARQL left-joins it
// with what precedes it in the group and joins the result with what
// follows: { P1 OPTIONAL { O } P2 } is Join(LeftJoin(P1, O), P2).
type Optional struct {
	// After is how many of the group's triple patterns precede the block.
	After   int
	Triples []TriplePattern
}

// Node is a triple-pattern position: either a variable or a concrete term.
type Node struct {
	// Var is the variable name (without '?') when IsVar is true.
	Var   string
	Term  rdf.Term
	IsVar bool
}

// V returns a variable node.
func V(name string) Node { return Node{Var: name, IsVar: true} }

// C returns a constant (term) node.
func C(t rdf.Term) Node { return Node{Term: t} }

// String renders the node in SPARQL surface syntax.
func (n Node) String() string {
	if n.IsVar {
		return "?" + n.Var
	}
	return n.Term.String()
}

// TriplePattern is a single triple pattern.
type TriplePattern struct {
	S, P, O Node
}

// String renders the triple pattern in SPARQL surface syntax.
func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// FilterKind discriminates filter constraint forms.
type FilterKind uint8

const (
	// FilterCompare is a comparison such as FILTER(?price > 5000).
	FilterCompare FilterKind = iota
	// FilterRegex is a regex test such as FILTER regex(?name, "pat", "i").
	FilterRegex
)

// Filter is a FILTER constraint over a single variable.
type Filter struct {
	Kind FilterKind
	// Var is the constrained variable name (without '?').
	Var string

	// Op and Value describe a comparison filter. Op is one of
	// = != < <= > >=. Value is the comparand's lexical form; IsNumeric
	// records whether it was written as a number.
	Op        string
	Value     string
	IsNumeric bool

	// Pattern and Flags describe a regex filter.
	Pattern string
	Flags   string
}

// ExprKind discriminates expression node forms.
type ExprKind uint8

const (
	// ExprVar is a variable reference.
	ExprVar ExprKind = iota
	// ExprNum is a numeric constant.
	ExprNum
	// ExprBinary is a binary arithmetic operation.
	ExprBinary
)

// Expr is an arithmetic expression over variables and numeric constants.
type Expr struct {
	Kind ExprKind

	// Var is the variable name for ExprVar nodes.
	Var string
	// Num is the constant for ExprNum nodes.
	Num float64
	// Op is one of + - * / for ExprBinary nodes.
	Op          byte
	Left, Right *Expr
}

// Vars appends the variable names referenced by the expression to dst and
// returns it.
func (e *Expr) Vars(dst []string) []string {
	if e == nil {
		return dst
	}
	switch e.Kind {
	case ExprVar:
		return append(dst, e.Var)
	case ExprBinary:
		return e.Right.Vars(e.Left.Vars(dst))
	default:
		return dst
	}
}
