package algebra

import (
	"bytes"
	"fmt"
	"strconv"

	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// UpdateTerm folds one bound value, given as its ID-string in d, into the
// state: COUNT needs no decode at all, SUM/AVG use the dictionary's cached
// numeric value instead of re-parsing the lexical form per row, and
// MIN/MAX/DISTINCT decode to the lexical form, which is what partial states
// carry (Update).
func (s *AggState) UpdateTerm(d *rdf.Dict, value string) {
	if IsNull(value) || value == "" {
		return
	}
	if s.Distinct || s.Func == sparql.Min || s.Func == sparql.Max {
		lex, ok := d.Lex(value)
		if !ok || lex == "" {
			return
		}
		s.Update(lex)
		return
	}
	switch s.Func {
	case sparql.Count:
		s.Count++
	case sparql.Sum, sparql.Avg:
		if f, ok := d.NumericIDString(value); ok {
			s.Count++
			s.Sum += f
		}
	}
}

// AppendEncode appends the state's Encode form to buf without the
// fmt.Sprintf intermediate.
//
//rapid:hot
func (s *AggState) AppendEncode(buf []byte) []byte {
	buf = append(buf, s.Func...)
	buf = append(buf, 0x1f)
	buf = strconv.AppendInt(buf, s.Count, 10)
	buf = append(buf, 0x1f)
	buf = strconv.AppendFloat(buf, s.Sum, 'g', -1, 64)
	buf = append(buf, 0x1f)
	buf = append(buf, s.Extreme...)
	if s.Distinct {
		buf = append(buf, 0x1f, 'D')
		for v := range s.Seen {
			buf = append(buf, 0x1f)
			buf = append(buf, v...)
		}
	}
	return buf
}

// AppendEncode appends the multi-state's Encode form to buf.
//
//rapid:hot
func (m *MultiAggState) AppendEncode(buf []byte) []byte {
	for i, s := range m.States {
		if i > 0 {
			buf = append(buf, 0x1e)
		}
		buf = s.AppendEncode(buf)
	}
	return buf
}

// aggFuncOf maps an encoded function name to its canonical constant without
// allocating (string(b) in a switch does not escape).
func aggFuncOf(b []byte) sparql.AggFunc {
	switch string(b) {
	case string(sparql.Count):
		return sparql.Count
	case string(sparql.Sum):
		return sparql.Sum
	case string(sparql.Avg):
		return sparql.Avg
	case string(sparql.Min):
		return sparql.Min
	case string(sparql.Max):
		return sparql.Max
	default:
		return sparql.AggFunc(b)
	}
}

// cutByte splits b at the first occurrence of sep.
func cutByte(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// DecodeAggStateBytes parses a state produced by Encode directly from the
// shuffled record bytes, avoiding the []byte→string conversion that
// DecodeAggState forces on every combiner/reducer value.
func DecodeAggStateBytes(enc []byte) (*AggState, error) {
	fn, rest, ok := cutByte(enc, 0x1f)
	if !ok {
		return nil, fmt.Errorf("algebra: malformed aggregate state %q", enc)
	}
	countB, rest, ok := cutByte(rest, 0x1f)
	if !ok {
		return nil, fmt.Errorf("algebra: malformed aggregate state %q", enc)
	}
	count, err := atoi64(countB)
	if err != nil {
		return nil, fmt.Errorf("algebra: malformed aggregate count: %w", err)
	}
	sumB, rest, ok := cutByte(rest, 0x1f)
	if !ok {
		return nil, fmt.Errorf("algebra: malformed aggregate state %q", enc)
	}
	var sum float64
	// COUNT/MIN/MAX states and empty SUM states serialise the sum as "0";
	// skip the float parse (and its string conversion) for that common case.
	if len(sumB) != 1 || sumB[0] != '0' {
		sum, err = strconv.ParseFloat(string(sumB), 64)
		if err != nil {
			return nil, fmt.Errorf("algebra: malformed aggregate sum: %w", err)
		}
	}
	extremeB, rest, hasTail := cutByte(rest, 0x1f)
	st := &AggState{Func: aggFuncOf(fn), Count: count, Sum: sum, Extreme: string(extremeB)}
	if hasTail {
		tag, rest, _ := cutByte(rest, 0x1f)
		if len(tag) != 1 || tag[0] != 'D' {
			return nil, fmt.Errorf("algebra: malformed aggregate state tail %q", tag)
		}
		st.Distinct = true
		st.Seen = map[string]bool{}
		for rest != nil {
			var v []byte
			v, rest, _ = cutByte(rest, 0x1f)
			st.Seen[string(v)] = true
		}
	}
	return st, nil
}

// DecodeMultiAggStateBytes parses a multi-state produced by Encode directly
// from record bytes (see DecodeAggStateBytes).
func DecodeMultiAggStateBytes(enc []byte) (*MultiAggState, error) {
	m := &MultiAggState{}
	for {
		part, rest, found := cutByte(enc, 0x1e)
		s, err := DecodeAggStateBytes(part)
		if err != nil {
			return nil, err
		}
		m.States = append(m.States, s)
		if !found {
			return m, nil
		}
		enc = rest
	}
}

// atoi64 parses a base-10 int64 from bytes without allocating.
func atoi64(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty integer")
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, fmt.Errorf("bare minus sign")
		}
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid integer byte %q", c)
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}
