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
func (m *MultiAggState) AppendEncode(buf []byte) []byte {
	for i, s := range m.States {
		if i > 0 {
			buf = append(buf, 0x1e)
		}
		buf = s.AppendEncode(buf)
	}
	return buf
}

// cutByte splits b at the first occurrence of sep.
func cutByte(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// MergeBytes folds a multi-state encoded by AppendEncode (the same spec
// list) into m, with the result and float addition order of decoding it
// and calling Merge, but without building the decoded states: combiners
// and reducers keep one resident state per key group and fold each
// shuffled value straight from its bytes.
func (m *MultiAggState) MergeBytes(enc []byte) error {
	for i, s := range m.States {
		part, rest, found := cutByte(enc, 0x1e)
		if err := s.mergeBytes(part); err != nil {
			return err
		}
		if found != (i < len(m.States)-1) {
			return aggStateErr("aggregate state has a different number of parts than the %d specs", len(m.States))
		}
		enc = rest
	}
	return nil
}

// mergeBytes folds one encoded state into s (see MergeBytes). The encoded
// function name is not checked, as Merge does not check it.
func (s *AggState) mergeBytes(enc []byte) error {
	_, rest, ok := cutByte(enc, 0x1f)
	if !ok {
		return aggStateErr("malformed aggregate state %q", enc)
	}
	countB, rest, ok := cutByte(rest, 0x1f)
	if !ok {
		return aggStateErr("malformed aggregate state %q", enc)
	}
	count, err := atoi64(countB)
	if err != nil {
		return aggStateErr("malformed aggregate count: %w", err)
	}
	sumB, rest, ok := cutByte(rest, 0x1f)
	if !ok {
		return aggStateErr("malformed aggregate state %q", enc)
	}
	var sum float64
	// COUNT/MIN/MAX states and empty SUM states serialise the sum as "0";
	// skip the float parse for that common case.
	if len(sumB) != 1 || sumB[0] != '0' {
		// the converted string does not escape ParseFloat, so it stays on the stack
		sum, err = strconv.ParseFloat(string(sumB), 64)
		if err != nil {
			return aggStateErr("malformed aggregate sum: %w", err)
		}
	}
	extreme, rest, hasTail := cutByte(rest, 0x1f)
	if hasTail {
		var tag []byte
		tag, rest, _ = cutByte(rest, 0x1f)
		if len(tag) != 1 || tag[0] != 'D' {
			return aggStateErr("malformed aggregate state tail %q", tag)
		}
	}
	if s.Distinct {
		// Replay the other side's values, as Merge replays its Seen set.
		for hasTail && rest != nil {
			var v []byte
			v, rest, _ = cutByte(rest, 0x1f)
			// a map index by string(bytes) does not allocate
			if !s.Seen[string(v)] {
				// once per value new to the group: the set's key must be a string
				s.Update(string(v))
			}
		}
		return nil
	}
	if count == 0 {
		return nil
	}
	switch s.Func {
	case sparql.Count:
		s.Count += count
	case sparql.Sum, sparql.Avg:
		s.Count += count
		s.Sum += sum
	case sparql.Min, sparql.Max:
		if s.Count == 0 {
			// only when the extreme changes: the state keeps it as a string
			s.Extreme = string(extreme)
			s.Count = count
			return nil
		}
		s.Count += count
		// the converted strings do not escape the comparisons, so they stay on the stack
		if s.Extreme != string(extreme) && valueLess(string(extreme), s.Extreme) == (s.Func == sparql.Min) {
			// only when the extreme changes: the state keeps it as a string
			s.Extreme = string(extreme)
		}
	}
	return nil
}

// aggStateErr builds a decode failure. It is a function of its own so the
// per-value merge holds no formatting call: malformed input ends the
// task, so it runs at most once.
func aggStateErr(format string, args ...any) error {
	return fmt.Errorf("algebra: "+format, args...)
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
