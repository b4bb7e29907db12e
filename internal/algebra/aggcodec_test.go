package algebra

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"rapidanalytics/internal/sparql"
)

// decodeAggStateBytes is the byte-level decoder combiners and reducers used
// before MultiAggState.MergeBytes, kept as the reference MergeBytes must
// agree with: decode, then Merge.
func decodeAggStateBytes(enc []byte) (*AggState, error) {
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
	if len(sumB) != 1 || sumB[0] != '0' {
		sum, err = strconv.ParseFloat(string(sumB), 64)
		if err != nil {
			return nil, fmt.Errorf("algebra: malformed aggregate sum: %w", err)
		}
	}
	extremeB, rest, hasTail := cutByte(rest, 0x1f)
	st := &AggState{Func: sparql.AggFunc(fn), Count: count, Sum: sum, Extreme: string(extremeB)}
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

// decodeMultiAggStateBytes parses a multi-state (see decodeAggStateBytes).
func decodeMultiAggStateBytes(enc []byte) (*MultiAggState, error) {
	m := &MultiAggState{}
	for {
		part, rest, found := cutByte(enc, 0x1e)
		s, err := decodeAggStateBytes(part)
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

var fuzzAggFuncs = []sparql.AggFunc{sparql.Count, sparql.Sum, sparql.Avg, sparql.Min, sparql.Max}

// fuzzSpecs maps each selector byte to a non-DISTINCT aggregate (at least
// one): DISTINCT merges replay a value set whose iteration order is not
// fixed, so float sums over it are compared elsewhere, by value.
func fuzzSpecs(sel []byte) []AggSpec {
	if len(sel) == 0 {
		sel = []byte{0}
	}
	if len(sel) > 4 {
		sel = sel[:4]
	}
	specs := make([]AggSpec, len(sel))
	for i, b := range sel {
		specs[i] = AggSpec{Func: fuzzAggFuncs[int(b)%len(fuzzAggFuncs)], Var: "x", As: "a" + strconv.Itoa(i)}
	}
	return specs
}

// mergeRef folds enc into m the pre-MergeBytes way, reporting false when
// the reference cannot (malformed input, or a part count other than m's:
// Merge would index past the decoded states or ignore extras).
func mergeRef(m *MultiAggState, enc []byte) bool {
	dec, err := decodeMultiAggStateBytes(enc)
	if err != nil || len(dec.States) != len(m.States) {
		return false
	}
	m.Merge(dec)
	return true
}

func FuzzMergeBytes(f *testing.F) {
	specs := []AggSpec{{Func: sparql.Sum, Var: "x"}, {Func: sparql.Min, Var: "x"}}
	a, b := NewMultiAggState(specs), NewMultiAggState(specs)
	for _, v := range []string{"L1.5", "L-3", "L0.1"} {
		a.States[0].Update(v)
		a.States[1].Update(v)
	}
	b.States[0].Update("L2e300")
	b.States[1].Update("Lzz")
	f.Add([]byte{1, 3}, a.AppendEncode(nil), b.AppendEncode(nil))
	f.Add([]byte{1, 3}, b.AppendEncode(nil), NewMultiAggState(specs).AppendEncode(nil))
	f.Add([]byte{0}, []byte("COUNT\x1f7\x1f0\x1f"), []byte("COUNT\x1f-2\x1f0\x1f"))
	f.Add([]byte{2}, []byte("AVG\x1f2\x1f0.30000000000000004\x1f"), []byte("AVG\x1f1\x1f1e-9\x1f\x1fD\x1fL1"))
	f.Add([]byte{4, 4}, []byte("MAX\x1f1\x1f0\x1f10\x1eMAX\x1f1\x1f0\x1fb"), []byte("MAX\x1f2\x1f0\x1f9"))
	f.Fuzz(func(t *testing.T, sel, enc1, enc2 []byte) {
		specs := fuzzSpecs(sel)
		ref, got := NewMultiAggState(specs), NewMultiAggState(specs)
		for _, enc := range [][]byte{enc1, enc2} {
			okRef := mergeRef(ref, enc)
			err := got.MergeBytes(enc)
			if okRef != (err == nil) {
				t.Fatalf("MergeBytes(%q) err = %v, reference ok = %v", enc, err, okRef)
			}
			if !okRef {
				return
			}
			if a, b := strings.Join(ref.Finals(), "|"), strings.Join(got.Finals(), "|"); a != b {
				t.Fatalf("Finals after %q: MergeBytes %q, reference %q", enc, b, a)
			}
			if a, b := ref.AppendEncode(nil), got.AppendEncode(nil); !bytes.Equal(a, b) {
				t.Fatalf("encoding after %q: MergeBytes %q, reference %q", enc, b, a)
			}
		}
	})
}

func TestMergeBytesMatchesDecodeMerge(t *testing.T) {
	specs := []AggSpec{
		{Func: sparql.Count, Var: "x"}, {Func: sparql.Sum, Var: "x"}, {Func: sparql.Avg, Var: "x"},
		{Func: sparql.Min, Var: "x"}, {Func: sparql.Max, Var: "x"},
		{Func: sparql.Count, Var: "x", Distinct: true}, {Func: sparql.Sum, Var: "x", Distinct: true},
	}
	parts := make([]*MultiAggState, 6)
	for i := range parts {
		parts[i] = NewMultiAggState(specs)
		for j := 0; j <= i; j++ {
			v := "L" + strconv.FormatFloat(float64(i*7+j)/3, 'g', -1, 64)
			for _, s := range parts[i].States {
				s.Update(v)
			}
		}
	}
	ref, got := NewMultiAggState(specs), NewMultiAggState(specs)
	for _, p := range parts {
		enc := p.AppendEncode(nil)
		if !mergeRef(ref, enc) {
			t.Fatalf("reference rejected %q", enc)
		}
		if err := got.MergeBytes(enc); err != nil {
			t.Fatalf("MergeBytes(%q): %v", enc, err)
		}
	}
	// DISTINCT sums are compared by value: the reference replays a map.
	if a, b := strings.Join(ref.Finals(), "|"), strings.Join(got.Finals(), "|"); a != b {
		t.Errorf("Finals: MergeBytes %q, reference %q", b, a)
	}
	for _, bad := range []string{"", "COUNT", "COUNT\x1fx\x1f0\x1f", "COUNT\x1f1\x1fz\x1f", "COUNT\x1f1\x1f0\x1f\x1fX"} {
		if err := NewMultiAggState(specs[:1]).MergeBytes([]byte(bad)); err == nil {
			t.Errorf("MergeBytes(%q) succeeded, want error", bad)
		}
	}
	two := NewMultiAggState(specs[:2]).AppendEncode(nil)
	if err := NewMultiAggState(specs[:1]).MergeBytes(two); err == nil {
		t.Error("MergeBytes accepted more parts than specs")
	}
	if err := NewMultiAggState(specs[:3]).MergeBytes(two); err == nil {
		t.Error("MergeBytes accepted fewer parts than specs")
	}
}

// Encoding a state allocates nothing once the buffer is warm, and merging
// one nothing once the extreme is settled.
func TestMergeBytesSteadyStateAllocs(t *testing.T) {
	specs := []AggSpec{{Func: sparql.Count, Var: "x"}, {Func: sparql.Sum, Var: "x"}, {Func: sparql.Max, Var: "x"}}
	src := NewMultiAggState(specs)
	for _, v := range []string{"L3", "L4.25", "L1"} {
		for _, s := range src.States {
			s.Update(v)
		}
	}
	enc := src.AppendEncode(nil)
	acc := NewMultiAggState(specs)
	var buf []byte
	var err error
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"AggState.AppendEncode", func() { buf = src.States[2].AppendEncode(buf[:0]) }},
		{"MultiAggState.AppendEncode", func() { buf = src.AppendEncode(buf[:0]) }},
		{"MultiAggState.MergeBytes", func() { err = acc.MergeBytes(enc) }},
	} {
		if c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}
}
