package rdf

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

// Property: Intern's subject grouping partitions the graph read as a set —
// one group per distinct subject, in Term.Key order, each holding that
// subject's distinct statements in graph order; Triples holds them all in
// graph order.
func TestGroupBySubjectQuick(t *testing.T) {
	f := func(edges []uint8) bool {
		g := &Graph{}
		for i, e := range edges {
			s := NewIRI(string(rune('a' + e%5)))
			g.Add(T(s, NewIRI("p"), NewLiteral(string(rune('0'+i%10)))))
		}
		ig := Intern(g, NewDict())
		var want []IDTriple
		for _, t := range g.Triples {
			id := func(k string) uint64 { v, _ := ig.Dict.Lookup(k); return v }
			it := IDTriple{id(t.Subject.Key()), id("I" + t.Property.Value), id(t.Object.Key())}
			if !slices.Contains(want, it) {
				want = append(want, it)
			}
		}
		if !slices.Equal(ig.Triples, want) {
			return false
		}
		prev, total := "", 0
		for _, sub := range ig.Subjects {
			k, _ := ig.Dict.Key(sub[0].S)
			if k <= prev {
				return false
			}
			prev = k
			var own []IDTriple
			for _, t := range want {
				if t.S == sub[0].S {
					own = append(own, t)
				}
			}
			if !slices.Equal(sub, own) {
				return false
			}
			total += len(sub)
		}
		return total == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInternKeepsFirstOccurrences: IDs follow subject, property, object per
// statement in graph order, a repeat is dropped where it recurs, and ECKeys
// renders and counts a subject's equivalence-class keys.
func TestInternKeepsFirstOccurrences(t *testing.T) {
	x, y := NewIRI("http://e/x"), NewIRI("http://e/y")
	p, typ := NewIRI("http://e/p"), NewIRI("http://e/T")
	g := &Graph{}
	g.Add(
		T(y, p, NewLiteral("1")),
		T(x, TypeTerm, typ),
		T(y, p, NewLiteral("1")), // repeat
		T(x, p, y),
		T(y, p, NewLiteral("2")),
		T(x, TypeTerm, typ), // repeat
	)
	ig := Intern(g, NewDict())
	var lex []string
	for id := uint64(1); id <= uint64(ig.Dict.Len()); id++ {
		k, _ := ig.Dict.Key(id)
		lex = append(lex, k)
	}
	wantLex := []string{"Ihttp://e/y", "Ihttp://e/p", "L1", "Ihttp://e/x", "I" + RDFType, "Ihttp://e/T", "L2"}
	if !slices.Equal(lex, wantLex) {
		t.Fatalf("terms = %q, want %q", lex, wantLex)
	}
	// y=1 p=2 1=3 x=4 type=5 T=6 2=7
	wantTriples := []IDTriple{{1, 2, 3}, {4, 5, 6}, {4, 2, 1}, {1, 2, 7}}
	if !slices.Equal(ig.Triples, wantTriples) {
		t.Errorf("Triples = %v, want %v", ig.Triples, wantTriples)
	}
	if len(ig.Subjects) != 2 || ig.Subjects[0][0].S != 4 || len(ig.Subjects[1]) != 2 {
		t.Fatalf("Subjects = %v, want x's two statements, then y's two", ig.Subjects)
	}
	keys, counts := ig.ECKeys(ig.Subjects[1], nil, nil)
	if !slices.Equal(keys, []string{"http://e/p"}) || !slices.Equal(counts, []int64{2}) {
		t.Errorf("y's ECKeys = %q %v, want http://e/p twice", keys, counts)
	}
	keys, counts = ig.ECKeys(append(ig.Subjects[0], ig.Subjects[0]...), keys, counts)
	if !slices.Equal(keys, []string{"http://e/p", "type=Ihttp://e/T"}) || !slices.Equal(counts, []int64{2, 2}) {
		t.Errorf("ECKeys of x's statements twice = %q %v", keys, counts)
	}
	if got := ECKey(RDFType, "Ihttp://e/T"); got != "type=Ihttp://e/T" {
		t.Errorf("ECKey(rdf:type) = %q", got)
	}
	if got := ECKey("http://e/p", "L1"); got != "http://e/p" {
		t.Errorf("ECKey(p) = %q", got)
	}
}

// TestNewIDGraphHubSubject: one subject with every statement given twice,
// the second copies in reverse order after all the first ones, reads as
// each statement once, where it first occurs. A repeat is found by sorting
// the subject's group, so the hub costs n log n, not n².
func TestNewIDGraphHubSubject(t *testing.T) {
	const n = 20000
	d := NewDict()
	hub, p := d.Add("Ihub"), d.Add("Ip")
	var ts, want []IDTriple
	for i := range n {
		it := IDTriple{hub, p, d.Add("L" + strconv.Itoa(i%(n/2)))}
		if i >= n/2 {
			it.P = hub // a statement that differs from the one before only in P
		}
		ts, want = append(ts, it), append(want, it)
	}
	for i := n - 1; i >= 0; i-- {
		ts = append(ts, want[i])
	}
	ig := NewIDGraph(d, ts)
	if !slices.Equal(ig.Triples, want) {
		t.Fatalf("Triples holds %d statements, want the %d first occurrences in order", len(ig.Triples), len(want))
	}
	if len(ig.Subjects) != 1 || !slices.Equal(ig.Subjects[0], want) {
		t.Fatalf("Subjects = %d groups, want the hub's %d statements", len(ig.Subjects), len(want))
	}
}
