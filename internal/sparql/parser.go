package sparql

import (
	"fmt"
	"strconv"

	"rapidanalytics/internal/rdf"
)

// Parse parses a SPARQL query in the analytical subset.
func Parse(input string) (*Query, error) {
	p := &parser{lex: newLexer(input), prefixes: map[string]string{}}
	if err := p.prime(); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse but panics on error; intended for static query
// catalogs and tests.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	lex      *lexer
	tok      token // current token
	peeked   *token
	prefixes map[string]string
}

func (p *parser) prime() error { return p.advance() }

func (p *parser) advance() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sparql: %d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errorf("expected %q, found %s %q", s, p.tok.kind, p.tok.text)
	}
	return p.advance()
}

func (p *parser) isPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

func (p *parser) isIdent(kw string) bool {
	return p.tok.kind == tokIdent && keywordEq(p.tok.text, kw)
}

func (p *parser) parseQuery() (*Query, error) {
	for p.isIdent("PREFIX") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokPName && p.tok.kind != tokIdent {
			return nil, p.errorf("expected prefix label, found %q", p.tok.text)
		}
		label := p.tok.text
		if p.tok.kind == tokPName {
			// "foo:" lexes as PName with empty local part.
			label = label[:len(label)-1]
			if i := indexByte(label, ':'); i >= 0 {
				label = label[:i]
			}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIRI {
			return nil, p.errorf("expected namespace IRI after PREFIX %s:", label)
		}
		p.prefixes[label] = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.tok.text)
	}
	return &Query{Prefixes: p.prefixes, Select: sel}, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// parseSelect parses: SELECT proj+ [WHERE] { pattern } [GROUP BY vars].
func (p *parser) parseSelect() (*SelectQuery, error) {
	if !p.isIdent("SELECT") {
		return nil, p.errorf("expected SELECT, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	sel := &SelectQuery{}
	for {
		if p.tok.kind == tokVar {
			sel.Projection = append(sel.Projection, ProjItem{Var: p.tok.text})
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if p.isPunct("(") {
			item, err := p.parseProjParen()
			if err != nil {
				return nil, err
			}
			sel.Projection = append(sel.Projection, *item)
			continue
		}
		break
	}
	if len(sel.Projection) == 0 {
		return nil, p.errorf("empty SELECT projection")
	}
	if p.isIdent("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	pat, err := p.parseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	sel.Pattern = pat
	if p.isIdent("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isIdent("BY") {
			return nil, p.errorf("expected BY after GROUP")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		for p.tok.kind == tokVar {
			sel.GroupBy = append(sel.GroupBy, p.tok.text)
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if len(sel.GroupBy) == 0 {
			return nil, p.errorf("empty GROUP BY variable list")
		}
	}
	for p.isIdent("HAVING") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseHaving()
		if err != nil {
			return nil, err
		}
		sel.Having = append(sel.Having, *cond)
	}
	if p.isIdent("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isIdent("BY") {
			return nil, p.errorf("expected BY after ORDER")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			key := OrderKey{}
			switch {
			case p.isIdent("ASC") || p.isIdent("DESC"):
				key.Desc = keywordEq(p.tok.text, "DESC")
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				if p.tok.kind != tokVar {
					return nil, p.errorf("expected variable in ORDER BY")
				}
				key.Var = p.tok.text
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			case p.tok.kind == tokVar:
				key.Var = p.tok.text
				if err := p.advance(); err != nil {
					return nil, err
				}
			default:
				if len(sel.OrderBy) == 0 {
					return nil, p.errorf("empty ORDER BY key list")
				}
				goto orderDone
			}
			sel.OrderBy = append(sel.OrderBy, key)
		}
	orderDone:
	}
	if p.isIdent("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokNumber {
			return nil, p.errorf("expected number after LIMIT")
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n <= 0 {
			return nil, p.errorf("bad LIMIT %q", p.tok.text)
		}
		sel.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// parseProjParen parses a parenthesised projection item:
//
//	(COUNT(?x) AS ?c)   (COUNT(?x) ?c)   (?a/?b AS ?r)
//
// The AS keyword is optional, matching the paper's appendix syntax.
func (p *parser) parseProjParen() (*ProjItem, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var item ProjItem
	if p.tok.kind == tokIdent && isKeyword(p.tok.text, "COUNT", "SUM", "AVG", "MIN", "MAX") {
		fn := AggFunc(canonicalAgg(p.tok.text))
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		distinct := false
		if p.isIdent("DISTINCT") {
			distinct = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind != tokVar {
			return nil, p.errorf("expected variable in %s(...)", fn)
		}
		arg := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		item.Agg = &Aggregate{Func: fn, Var: arg, Distinct: distinct}
	} else {
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item.Expr = expr
	}
	if p.isIdent("AS") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokVar {
		return nil, p.errorf("expected alias variable in projection, found %q", p.tok.text)
	}
	item.Var = p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	// An expression that is a bare variable with an alias equal to itself is
	// a plain projection.
	if item.Expr != nil && item.Expr.Kind == ExprVar && item.Expr.Var == item.Var {
		item.Expr = nil
	}
	return &item, nil
}

func canonicalAgg(s string) string {
	switch {
	case keywordEq(s, "COUNT"):
		return "COUNT"
	case keywordEq(s, "SUM"):
		return "SUM"
	case keywordEq(s, "AVG"):
		return "AVG"
	case keywordEq(s, "MIN"):
		return "MIN"
	default:
		return "MAX"
	}
}

// parseHaving parses (AGG([DISTINCT] ?var) op number).
func (p *parser) parseHaving() (*HavingCond, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.tok.kind != tokIdent || !isKeyword(p.tok.text, "COUNT", "SUM", "AVG", "MIN", "MAX") {
		return nil, p.errorf("expected aggregate function in HAVING")
	}
	cond := &HavingCond{Agg: Aggregate{Func: AggFunc(canonicalAgg(p.tok.text))}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.isIdent("DISTINCT") {
		cond.Agg.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokVar {
		return nil, p.errorf("expected variable in HAVING aggregate")
	}
	cond.Agg.Var = p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokPunct || !isCompareOp(p.tok.text) {
		return nil, p.errorf("expected comparison operator in HAVING")
	}
	cond.Op = p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokNumber {
		return nil, p.errorf("expected numeric comparand in HAVING")
	}
	v, err := strconv.ParseFloat(p.tok.text, 64)
	if err != nil {
		return nil, p.errorf("bad number %q", p.tok.text)
	}
	cond.Value = v
	if err := p.advance(); err != nil {
		return nil, err
	}
	return cond, p.expectPunct(")")
}

// parseExpr parses an arithmetic expression with the usual precedence.
func (p *parser) parseExpr() (*Expr, error) {
	left, err := p.parseTermExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("+") || p.isPunct("-") {
		op := p.tok.text[0]
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseTermExpr()
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprBinary, Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseTermExpr() (*Expr, error) {
	left, err := p.parseFactorExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isPunct("/") {
		op := p.tok.text[0]
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseFactorExpr()
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprBinary, Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseFactorExpr() (*Expr, error) {
	switch {
	case p.tok.kind == tokVar:
		e := &Expr{Kind: ExprVar, Var: p.tok.text}
		return e, p.advance()
	case p.tok.kind == tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", p.tok.text)
		}
		e := &Expr{Kind: ExprNum, Num: f}
		return e, p.advance()
	case p.isPunct("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	default:
		return nil, p.errorf("expected expression, found %q", p.tok.text)
	}
}

// parseGroupGraphPattern parses { triples | FILTER | { SELECT ... } ... }.
func (p *parser) parseGroupGraphPattern() (*GroupGraphPattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &GroupGraphPattern{}
	for {
		switch {
		case p.isPunct("}"):
			return g, p.advance()
		case p.isPunct("{"):
			// Nested group: either a sub-SELECT or (unsupported) group.
			if err := p.advance(); err != nil {
				return nil, err
			}
			if !p.isIdent("SELECT") {
				return nil, p.errorf("only sub-SELECT groups are supported")
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			g.SubSelects = append(g.SubSelects, sub)
			// optional dot after a group
			if p.isPunct(".") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		case p.isIdent("OPTIONAL"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			block, err := p.parseOptionalBlock()
			if err != nil {
				return nil, err
			}
			g.Optionals = append(g.Optionals, Optional{After: len(g.Triples), Triples: block})
			if p.isPunct(".") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		case p.isIdent("FILTER"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			f, err := p.parseFilter()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, *f)
			if p.isPunct(".") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		default:
			if err := p.parseTriplesBlock(g); err != nil {
				return nil, err
			}
		}
	}
}

// parseOptionalBlock parses OPTIONAL's { triples } body.
func (p *parser) parseOptionalBlock() ([]TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	inner := &GroupGraphPattern{}
	for !p.isPunct("}") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unterminated OPTIONAL block")
		}
		if p.isIdent("FILTER") || p.isIdent("OPTIONAL") || p.isPunct("{") {
			return nil, p.errorf("OPTIONAL blocks may contain only triple patterns in the analytical subset")
		}
		if err := p.parseTriplesBlock(inner); err != nil {
			return nil, err
		}
	}
	if len(inner.Triples) == 0 {
		return nil, p.errorf("empty OPTIONAL block")
	}
	return inner.Triples, p.advance()
}

// parseFilter parses either regex(?v, "pat"[, "flags"]) or (?v op value).
func (p *parser) parseFilter() (*Filter, error) {
	if p.isIdent("regex") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.tok.kind != tokVar {
			return nil, p.errorf("expected variable in regex()")
		}
		f := &Filter{Kind: FilterRegex, Var: p.tok.text}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errorf("expected pattern string in regex()")
		}
		f.Pattern = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokString {
				return nil, p.errorf("expected flags string in regex()")
			}
			f.Flags = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		return f, p.expectPunct(")")
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.tok.kind != tokVar {
		return nil, p.errorf("expected variable in FILTER comparison")
	}
	f := &Filter{Kind: FilterCompare, Var: p.tok.text}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokPunct || !isCompareOp(p.tok.text) {
		return nil, p.errorf("expected comparison operator, found %q", p.tok.text)
	}
	f.Op = p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch p.tok.kind {
	case tokNumber:
		f.Value = p.tok.text
		f.IsNumeric = true
	case tokString:
		f.Value = p.tok.text
	default:
		return nil, p.errorf("expected literal comparand, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return f, p.expectPunct(")")
}

func isCompareOp(s string) bool {
	switch s {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// parseTriplesBlock parses subject (predicate object (, object)* ;)* .
func (p *parser) parseTriplesBlock(g *GroupGraphPattern) error {
	subj, err := p.parseNode(false)
	if err != nil {
		return err
	}
	for {
		pred, err := p.parseNode(true)
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseNode(false)
			if err != nil {
				return err
			}
			g.Triples = append(g.Triples, TriplePattern{S: subj, P: pred, O: obj})
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if p.isPunct(";") {
			if err := p.advance(); err != nil {
				return err
			}
			// allow trailing ';' before '.' or '}'
			if p.isPunct(".") || p.isPunct("}") {
				break
			}
			continue
		}
		break
	}
	if p.isPunct(".") {
		return p.advance()
	}
	return nil
}

// parseNode parses a variable, IRI, prefixed name, literal or number.
// In predicate position (isPredicate) the keyword `a` expands to rdf:type.
func (p *parser) parseNode(isPredicate bool) (Node, error) {
	switch p.tok.kind {
	case tokVar:
		n := V(p.tok.text)
		return n, p.advance()
	case tokIRI:
		n := C(rdf.NewIRI(p.tok.text))
		return n, p.advance()
	case tokPName:
		iri, err := p.expandPName(p.tok.text)
		if err != nil {
			return Node{}, err
		}
		n := C(rdf.NewIRI(iri))
		return n, p.advance()
	case tokString:
		if isPredicate {
			return Node{}, p.errorf("literal in predicate position")
		}
		n := C(rdf.NewLiteral(p.tok.text))
		return n, p.advance()
	case tokNumber:
		if isPredicate {
			return Node{}, p.errorf("number in predicate position")
		}
		n := C(rdf.NewLiteral(p.tok.text))
		return n, p.advance()
	case tokIdent:
		if isPredicate && keywordEq(p.tok.text, "a") {
			n := C(rdf.TypeTerm)
			return n, p.advance()
		}
		return Node{}, p.errorf("unexpected identifier %q in triple pattern", p.tok.text)
	default:
		return Node{}, p.errorf("expected term, found %s %q", p.tok.kind, p.tok.text)
	}
}

func (p *parser) expandPName(pname string) (string, error) {
	i := indexByte(pname, ':')
	prefix, local := pname[:i], pname[i+1:]
	ns, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errorf("undeclared prefix %q", prefix)
	}
	return ns + local, nil
}
