package bench

import (
	"fmt"
	"reflect"
	"testing"

	"rapidanalytics/internal/rdf"
)

// TestBatchedInternKeepsIDs: a store interns each batch into its one Dict
// as it arrives. On every benchmark graph, interning in 1, 2 or 7 batches,
// or one statement at a time for the first 1,000 and then the rest, gives
// every term the ID, and NewIDGraph the statements and subject groups, that
// rdf.Intern of the whole graph gives.
func TestBatchedInternKeepsIDs(t *testing.T) {
	for _, spec := range Specs() {
		g := spec.Generate(1)
		want := rdf.Intern(g, rdf.NewDict())
		n := g.Len()
		var plans [][]int // each plan lists the batch ends
		for _, k := range []int{1, 2, 7} {
			var ends []int
			for b := 1; b <= k; b++ {
				ends = append(ends, n*b/k)
			}
			plans = append(plans, ends)
		}
		var single []int
		for i := 1; i <= min(1000, n); i++ {
			single = append(single, i)
		}
		plans = append(plans, append(single, n))
		for _, ends := range plans {
			name := fmt.Sprintf("%s/%d batches", spec.ID, len(ends))
			d := rdf.NewDict()
			var ts []rdf.IDTriple
			start := 0
			for _, end := range ends {
				ts = rdf.InternTriples(d, ts, g.Triples[start:end])
				start = end
			}
			if len(ts) != n {
				t.Fatalf("%s: %d ID triples, want %d", name, len(ts), n)
			}
			if d.Len() != want.Dict.Len() {
				t.Fatalf("%s: %d terms, want %d", name, d.Len(), want.Dict.Len())
			}
			for id := uint64(1); id <= uint64(d.Len()); id++ {
				got, _ := d.Key(id)
				if w, _ := want.Dict.Key(id); got != w {
					t.Fatalf("%s: Key(%d) = %q, want %q", name, id, got, w)
				}
			}
			ig := rdf.NewIDGraph(d, ts)
			if !reflect.DeepEqual(ig.Triples, want.Triples) {
				t.Errorf("%s: NewIDGraph's Triples differ from Intern's", name)
			}
			if !reflect.DeepEqual(ig.Subjects, want.Subjects) {
				t.Errorf("%s: NewIDGraph's Subjects differ from Intern's", name)
			}
		}
	}
}
