package algebra

import (
	"cmp"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// Null is the lexical representation of an unbound value in tuples flowing
// through the engines (Hive-style NULLs from outer joins, absent optional
// bindings). It cannot collide with RDF term keys, which always start with
// a kind tag.
const Null = "\x00"

// IsNull reports whether a lexical value is the NULL marker.
func IsNull(v string) bool { return v == Null }

// ParseNumber parses a lexical value — an aggregate's final, an
// expression's result — as a number, as it is (rdf.LexNumber). A term key
// is not lexical: rdf.KeyNumber reads it.
func ParseNumber(v string) (float64, bool) { return rdf.LexNumber(v) }

// FormatNumber renders a float minimally: integers without a decimal point,
// other values with up to 6 significant decimals.
func FormatNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', 10, 64)
}

// regexKey keys the compiled-regex cache: comparable as it is, so a
// lookup per evaluated row builds no string.
type regexKey struct{ pattern, flags string }

var (
	regexCacheMu sync.Mutex
	regexCache   = map[regexKey]*regexp.Regexp{}
)

func compileFilterRegex(pattern, flags string) (*regexp.Regexp, error) {
	key := regexKey{pattern, flags}
	regexCacheMu.Lock()
	defer regexCacheMu.Unlock()
	if re, ok := regexCache[key]; ok {
		return re, nil
	}
	p := pattern
	if strings.Contains(flags, "i") {
		p = "(?i)" + p
	}
	re, err := regexp.Compile(p)
	if err != nil {
		return nil, err
	}
	regexCache[key] = re
	return re, nil
}

// EvalFilter evaluates a FILTER constraint against a variable's value, a
// term key. NULL values never satisfy a filter.
func EvalFilter(f sparql.Filter, value string) (bool, error) {
	if IsNull(value) || value == "" {
		return false, nil
	}
	lex := rdf.KeyLex(value)
	switch f.Kind {
	case sparql.FilterRegex:
		re, err := compileFilterRegex(f.Pattern, f.Flags)
		if err != nil {
			return false, fmt.Errorf("algebra: bad regex %q: %w", f.Pattern, err)
		}
		return re.MatchString(lex), nil
	default:
		if f.IsNumeric {
			lf, ok := rdf.KeyNumber(value)
			if !ok {
				return false, nil
			}
			rf, _ := strconv.ParseFloat(f.Value, 64)
			return compare(f.Op, lf, rf), nil
		}
		return compare(f.Op, lex, f.Value), nil
	}
}

// HavingHolds reports whether an aggregate's final value, lexical,
// satisfies the HAVING comparison final op value. A final that is no
// number (a NULL MIN over an empty group, a string MIN) fails, as a type
// error does in SPARQL.
func HavingHolds(final, op string, value float64) bool {
	f, ok := ParseNumber(final)
	return ok && compare(op, f, value)
}

// compare reports whether a op b holds, op one of = != < <= > >=.
func compare[T cmp.Ordered](op string, a, b T) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// CompareValues orders two values of one column for ORDER BY: NULLs
// first, then numeric comparison when both parse as numbers, lexicographic
// otherwise. keys says the column holds term keys, whose one-byte tags are
// stripped first; a lexical column (an aggregate, an expression) is
// compared as it is. Returns -1, 0 or 1.
func CompareValues(a, b string, keys bool) int {
	an, bn := IsNull(a), IsNull(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	la, lb := a, b
	if keys {
		la, lb = rdf.KeyLex(a), rdf.KeyLex(b)
	}
	if fa, ok := ParseNumber(la); ok {
		if fb, ok := ParseNumber(lb); ok {
			return cmp.Compare(fa, fb)
		}
	}
	return strings.Compare(la, lb)
}

// EvalExpr evaluates an arithmetic expression over a row of column
// values: keys names the columns that hold term keys (grouping variables),
// read through rdf.KeyNumber; any other column is lexical (an aggregate's
// final) and parsed as it is. Unbound or non-numeric operands yield an
// error.
func EvalExpr(e *sparql.Expr, row map[string]string, keys map[string]bool) (float64, error) {
	switch e.Kind {
	case sparql.ExprNum:
		return e.Num, nil
	case sparql.ExprVar:
		v, ok := row[e.Var]
		if !ok || IsNull(v) {
			return 0, fmt.Errorf("algebra: unbound expression variable ?%s", e.Var)
		}
		parse := ParseNumber
		if keys[e.Var] {
			parse = rdf.KeyNumber
		}
		f, ok := parse(v)
		if !ok {
			return 0, fmt.Errorf("algebra: non-numeric value %q for ?%s", v, e.Var)
		}
		return f, nil
	case sparql.ExprBinary:
		l, err := EvalExpr(e.Left, row, keys)
		if err != nil {
			return 0, err
		}
		r, err := EvalExpr(e.Right, row, keys)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			if r == 0 {
				return 0, fmt.Errorf("algebra: division by zero")
			}
			return l / r, nil
		}
	}
	return 0, fmt.Errorf("algebra: malformed expression")
}
