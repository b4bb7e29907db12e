package algebra

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"rapidanalytics/internal/sparql"
)

func TestAggStateBasics(t *testing.T) {
	tests := []struct {
		fn     sparql.AggFunc
		values []string
		want   string
	}{
		{sparql.Count, []string{"L1", "L2", "L3"}, "3"},
		{sparql.Count, []string{"La", Null, "Lb"}, "2"},
		{sparql.Sum, []string{"L1.5", "L2.5"}, "4"},
		{sparql.Sum, []string{}, "0"},
		{sparql.Avg, []string{"L2", "L4"}, "3"},
		{sparql.Avg, []string{}, Null},
		{sparql.Min, []string{"L5", "L3", "L9"}, "3"},
		{sparql.Max, []string{"L5", "L30", "L9"}, "30"},
		{sparql.Min, []string{"Lb", "La"}, "a"},
		{sparql.Min, []string{}, Null},
	}
	for _, tc := range tests {
		s := NewAggState(tc.fn)
		for _, v := range tc.values {
			s.Update(v)
		}
		if got := s.Final(); got != tc.want {
			t.Errorf("%s(%v) = %q, want %q", tc.fn, tc.values, got, tc.want)
		}
	}
}

// Property: merging partial states is equivalent to a single sequential
// fold — the algebraic-aggregate property that makes combiners and the
// paper's map-side hash pre-aggregation correct.
func TestAggStateMergeEquivalence(t *testing.T) {
	fns := []sparql.AggFunc{sparql.Count, sparql.Sum, sparql.Avg, sparql.Min, sparql.Max}
	f := func(raw []int16, split uint8) bool {
		values := make([]string, len(raw))
		for i, r := range raw {
			values[i] = "L" + strconv.Itoa(int(r))
		}
		for _, fn := range fns {
			whole := NewAggState(fn)
			for _, v := range values {
				whole.Update(v)
			}
			cut := 0
			if len(values) > 0 {
				cut = int(split) % (len(values) + 1)
			}
			left, right := NewAggState(fn), NewAggState(fn)
			for _, v := range values[:cut] {
				left.Update(v)
			}
			for _, v := range values[cut:] {
				right.Update(v)
			}
			left.Merge(right)
			if left.Final() != whole.Final() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the wire format round-trips partial states: a state encoded
// by AppendEncode and merged into an empty one equals it.
func TestAggStateEncodeRoundTrip(t *testing.T) {
	f := func(count int64, sum float64, extreme string) bool {
		if count <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) || strings.ContainsAny(extreme, "\x1e\x1f") {
			return true
		}
		avg, min := NewAggState(sparql.Avg), NewAggState(sparql.Min)
		if avg.mergeBytes((&AggState{Func: sparql.Avg, Count: count, Sum: sum}).AppendEncode(nil)) != nil ||
			min.mergeBytes((&AggState{Func: sparql.Min, Count: count, Extreme: extreme}).AppendEncode(nil)) != nil {
			return false
		}
		return avg.Count == count && avg.Sum == sum && min.Count == count && min.Extreme == extreme
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistinctAggState(t *testing.T) {
	c := NewDistinctAggState(sparql.Count)
	for _, v := range []string{"La", "Lb", "La", "Lc", "Lb", Null} {
		c.Update(v)
	}
	if got := c.Final(); got != "3" {
		t.Errorf("COUNT(DISTINCT) = %q, want 3", got)
	}
	s := NewDistinctAggState(sparql.Sum)
	for _, v := range []string{"L5", "L5", "L7"} {
		s.Update(v)
	}
	if got := s.Final(); got != "12" {
		t.Errorf("SUM(DISTINCT) = %q, want 12", got)
	}
	s.Update("L9")
	s.Update("L9")
	if got := s.Final(); got != "21" {
		t.Errorf("SUM(DISTINCT) after a repeated value = %q, want 21", got)
	}
}

// DISTINCT merging is a set union: splitting the input arbitrarily and
// merging partial states equals one sequential fold.
func TestDistinctMergeEquivalence(t *testing.T) {
	f := func(raw []uint8, cut uint8) bool {
		values := make([]string, len(raw))
		for i, r := range raw {
			values[i] = "L" + strconv.Itoa(int(r%16))
		}
		whole := NewDistinctAggState(sparql.Count)
		for _, v := range values {
			whole.Update(v)
		}
		k := 0
		if len(values) > 0 {
			k = int(cut) % (len(values) + 1)
		}
		left, right := NewDistinctAggState(sparql.Count), NewDistinctAggState(sparql.Count)
		for _, v := range values[:k] {
			left.Update(v)
		}
		for _, v := range values[k:] {
			right.Update(v)
		}
		// Merge the right side through the wire format.
		if err := left.mergeBytes(right.AppendEncode(nil)); err != nil {
			return false
		}
		return left.Final() == whole.Final()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistinctEncodeRoundTrip(t *testing.T) {
	s := NewDistinctAggState(sparql.Count)
	s.Update("Lx")
	s.Update("Ly")
	dec := NewDistinctAggState(sparql.Count)
	if err := dec.mergeBytes(s.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}
	if len(dec.Seen) != 2 || dec.Final() != "2" {
		t.Errorf("decoded = %+v", dec)
	}
}

func TestMultiAggState(t *testing.T) {
	specs := []AggSpec{
		{Func: sparql.Count, Var: "x", As: "c"},
		{Func: sparql.Sum, Var: "x", As: "s"},
	}
	a := NewMultiAggState(specs)
	a.States[0].Update("L1")
	a.States[1].Update("L5")
	b := NewMultiAggState(specs)
	b.States[0].Update("L2")
	b.States[1].Update("L7")
	if err := a.MergeBytes(b.AppendEncode(nil)); err != nil {
		t.Fatalf("MergeBytes: %v", err)
	}
	finals := a.Finals()
	if finals[0] != "2" || finals[1] != "12" {
		t.Errorf("Finals = %v", finals)
	}
}

func TestEvalFilter(t *testing.T) {
	gt := sparql.Filter{Kind: sparql.FilterCompare, Var: "p", Op: ">", Value: "5000", IsNumeric: true}
	for v, want := range map[string]bool{"L6000": true, "L5000": false, "L10": false, Null: false, "Labc": false} {
		got, err := EvalFilter(gt, v)
		if err != nil {
			t.Fatalf("EvalFilter(%q): %v", v, err)
		}
		if got != want {
			t.Errorf("EvalFilter(>5000, %q) = %v, want %v", v, got, want)
		}
	}
	re := sparql.Filter{Kind: sparql.FilterRegex, Var: "n", Pattern: "MAPK signaling", Flags: "i"}
	got, err := EvalFilter(re, "Lthe mapk SIGNALING pathway")
	if err != nil || !got {
		t.Errorf("regex filter = %v, %v", got, err)
	}
	got, err = EvalFilter(re, "Lother pathway")
	if err != nil || got {
		t.Errorf("regex filter non-match = %v, %v", got, err)
	}
	eq := sparql.Filter{Kind: sparql.FilterCompare, Var: "t", Op: "=", Value: "News"}
	if ok, _ := EvalFilter(eq, "LNews"); !ok {
		t.Error("string equality filter failed")
	}
}

// A FILTER evaluation allocates nothing once its regex is compiled: the
// regex cache's key is built without concatenating the pattern.
func TestEvalFilterSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		f     sparql.Filter
		value string
	}{
		{sparql.Filter{Kind: sparql.FilterRegex, Var: "n", Pattern: "MAPK signaling", Flags: "i"}, "Lthe mapk SIGNALING pathway"},
		{sparql.Filter{Kind: sparql.FilterRegex, Var: "n", Pattern: "^Ind"}, "LIndia"},
		{sparql.Filter{Kind: sparql.FilterCompare, Var: "p", Op: ">", Value: "5000", IsNumeric: true}, "L6000"},
		{sparql.Filter{Kind: sparql.FilterCompare, Var: "t", Op: "=", Value: "News"}, "LNews"},
	} {
		if ok, err := EvalFilter(c.f, c.value); err != nil || !ok {
			t.Fatalf("EvalFilter(%+v, %q) = %v, %v", c.f, c.value, ok, err)
		}
		if n := testing.AllocsPerRun(100, func() { EvalFilter(c.f, c.value) }); n != 0 {
			t.Errorf("EvalFilter(%+v) allocates %v times per call, want 0", c.f, n)
		}
	}
}

func TestEvalExpr(t *testing.T) {
	q := sparql.MustParse(prefix + `SELECT ((?a + ?b) * 2 / ?c AS ?r) {
  { SELECT (SUM(?x) AS ?a) (COUNT(?x) AS ?b) (MAX(?x) AS ?c) { ?s e:p ?x . } }
}`)
	expr := q.Select.Projection[0].Expr
	got, err := EvalExpr(expr, map[string]string{"a": "4", "b": "2", "c": "3"}, nil)
	if err != nil {
		t.Fatalf("EvalExpr: %v", err)
	}
	if got != 4 {
		t.Errorf("EvalExpr = %v, want 4", got)
	}
	// A column of term keys loses its tag; an aggregate's final is read as
	// it is, so a MAX over the literal "L3" is no number.
	if got, err := EvalExpr(expr, map[string]string{"a": "4", "b": "2", "c": "L3"}, map[string]bool{"c": true}); err != nil || got != 4 {
		t.Errorf("EvalExpr over a key column = %v, %v; want 4", got, err)
	}
	if _, err := EvalExpr(expr, map[string]string{"a": "4", "b": "2", "c": "L3"}, nil); err == nil {
		t.Error("the final L3 read as a number")
	}
	if _, err := EvalExpr(expr, map[string]string{"a": "4", "b": "2", "c": "0"}, nil); err == nil {
		t.Error("division by zero not reported")
	}
	if _, err := EvalExpr(expr, map[string]string{"a": "4", "b": "2"}, nil); err == nil {
		t.Error("unbound variable not reported")
	}
}

func TestFormatNumber(t *testing.T) {
	for f, want := range map[float64]string{42: "42", 2.5: "2.5", -3: "-3", 0: "0"} {
		if got := FormatNumber(f); got != want {
			t.Errorf("FormatNumber(%v) = %q, want %q", f, got, want)
		}
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42.5", 42.5, true},
		{"42", 42, true},
		{"L42.5", 0, false}, // a lexical value, not a term key: rdf.KeyNumber reads keys
		{"I9", 0, false},
		{"abc", 0, false},
	}
	for _, tc := range cases {
		got, ok := ParseNumber(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("ParseNumber(%q) = %v,%v", tc.in, got, ok)
		}
	}
}
