package algebra

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"rapidanalytics/internal/sparql"
)

// Null is the lexical representation of an unbound value in tuples flowing
// through the engines (Hive-style NULLs from outer joins, absent optional
// bindings). It cannot collide with RDF term keys, which always start with
// a kind tag.
const Null = "\x00"

// IsNull reports whether a lexical value is the NULL marker.
func IsNull(v string) bool { return v == Null }

// ParseNumber parses a lexical value as a float. RDF terms flow through the
// engines in Term.Key form ("L42.5"); bare lexical forms are also accepted.
func ParseNumber(v string) (float64, bool) {
	if len(v) > 0 && (v[0] == 'L' || v[0] == 'I' || v[0] == 'B') {
		if f, err := strconv.ParseFloat(v[1:], 64); err == nil {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

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

// EvalFilter evaluates a FILTER constraint against a variable's lexical
// value (in Term.Key form). NULL values never satisfy a filter.
func EvalFilter(f sparql.Filter, value string) (bool, error) {
	if IsNull(value) || value == "" {
		return false, nil
	}
	lex := value
	if lex[0] == 'L' || lex[0] == 'I' || lex[0] == 'B' {
		lex = lex[1:]
	}
	switch f.Kind {
	case FilterRegexKind:
		re, err := compileFilterRegex(f.Pattern, f.Flags)
		if err != nil {
			return false, fmt.Errorf("algebra: bad regex %q: %w", f.Pattern, err)
		}
		return re.MatchString(lex), nil
	default:
		if f.IsNumeric {
			lf, ok := ParseNumber(value)
			if !ok {
				return false, nil
			}
			rf, _ := strconv.ParseFloat(f.Value, 64)
			return compareFloats(f.Op, lf, rf), nil
		}
		return compareStrings(f.Op, lex, f.Value), nil
	}
}

// FilterRegexKind aliases sparql.FilterRegex for local readability.
const FilterRegexKind = sparql.FilterRegex

func compareFloats(op string, a, b float64) bool {
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

func compareStrings(op string, a, b string) bool {
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
	if keys && la != "" {
		la = la[1:]
	}
	if keys && lb != "" {
		lb = lb[1:]
	}
	if mayParseFloat(la) && mayParseFloat(lb) {
		fa, erra := strconv.ParseFloat(la, 64)
		fb, errb := strconv.ParseFloat(lb, 64)
		if erra == nil && errb == nil {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			default:
				return 0
			}
		}
	}
	switch {
	case la < lb:
		return -1
	case la > lb:
		return 1
	default:
		return 0
	}
}

// mayParseFloat is false for strings strconv.ParseFloat certainly rejects:
// every number it accepts starts with a sign, a digit, a point, or the i or
// n of "inf" and "nan". Comparing IRIs and plain strings thus skips the
// parse and its error allocation.
func mayParseFloat(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
		return true
	case c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}

// EvalExpr evaluates an arithmetic expression over a row of lexical column
// values. Unbound or non-numeric operands yield an error.
func EvalExpr(e *sparql.Expr, row map[string]string) (float64, error) {
	switch e.Kind {
	case sparql.ExprNum:
		return e.Num, nil
	case sparql.ExprVar:
		v, ok := row[e.Var]
		if !ok || IsNull(v) {
			return 0, fmt.Errorf("algebra: unbound expression variable ?%s", e.Var)
		}
		f, ok := ParseNumber(v)
		if !ok {
			return 0, fmt.Errorf("algebra: non-numeric value %q for ?%s", v, e.Var)
		}
		return f, nil
	case sparql.ExprBinary:
		l, err := EvalExpr(e.Left, row)
		if err != nil {
			return 0, err
		}
		r, err := EvalExpr(e.Right, row)
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
