package rapidanalytics_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	ra "rapidanalytics"
	"rapidanalytics/internal/bench"
)

// An OPTIONAL block of two patterns is one left-join operand: a phone
// keeps its label only where it also has a feature, so px counts twice,
// py once and pz not at all. Compile rejects the block, since the engines
// extend a star one pattern at a time; the oracle answers it from the AST.
func TestReferenceAnswersMultiPatternOptional(t *testing.T) {
	rows, err := ra.ReferenceRows(buildShop(), `PREFIX e: <http://example.org/>
SELECT (COUNT(?l) AS ?n) { ?p a e:Phone . OPTIONAL { ?p e:label ?l . ?p e:feature ?f } }`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"3"}}; !slices.EqualFunc(rows, want, slices.Equal) {
		t.Errorf("rows %v, want %v", rows, want)
	}
}

// An aggregate's final is a lexical value, not a term key: a MIN over the
// literals "L5" and "I9" is the string "L5" or "I9", which SPARQL compares
// with no number and multiplies by none. Every system, the oracle
// included, must keep a leading L or I where it is.
func TestAggregateFinalsAreLexical(t *testing.T) {
	store := ra.NewStore(ra.DefaultOptions())
	for s, po := range map[string][2]string{"a": {"L5", "x"}, "b": {"I9", "y"}} {
		store.Add("http://e/"+s, "http://e/code", ra.Literal(po[0]))
		store.Add("http://e/"+s, "http://e/g", ra.Literal(po[1]))
	}
	for _, tc := range []struct {
		name, query string
		want        [][]string
	}{
		{"HAVING over a string MIN", `PREFIX e: <http://e/>
SELECT ?g (MIN(?c) AS ?m) { ?s e:code ?c ; e:g ?g } GROUP BY ?g HAVING (MIN(?c) > 3)`, nil},
		{"expression over a string MIN", `PREFIX e: <http://e/>
SELECT ?g (?m * 2 AS ?x) {
  { SELECT ?g (MIN(?c) AS ?m) { ?s e:code ?c ; e:g ?g } GROUP BY ?g }
  { SELECT ?g (COUNT(?s) AS ?n) { ?s e:g ?g } GROUP BY ?g }
} ORDER BY ?g`, [][]string{{"x", "NULL"}, {"y", "NULL"}}},
	} {
		for _, sys := range append(ra.Systems(), ra.Reference) {
			res, _, err := store.Query(sys, tc.query)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, sys, err)
			}
			if !slices.EqualFunc(res.Rows(), tc.want, slices.Equal) {
				t.Errorf("%s on %s: rows %v, want %v", tc.name, sys, res.Rows(), tc.want)
			}
		}
	}
}

// The oracle indexes only the properties a query names, from the store's
// ID triples: one catalog query on a fifth of the workload store stays far
// below what decoding and indexing the whole store took.
func TestReferenceCost(t *testing.T) {
	store := ra.NewWorkloadStore(0.2, ra.DefaultOptions())
	q, _ := bench.Get("MG1")
	pq, err := store.Prepare(ra.Reference, q.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pq.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := pq.Execute(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil || res.Len() == 0 {
		t.Fatalf("rows %v, error %v", res, err)
	}
	const bound = 4 << 20
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Reference query allocated %.1f MB", float64(b)/(1<<20))
	if b > bound {
		t.Errorf("one Reference query allocated %d bytes, bound %d", b, bound)
	}
}

// Reference queries share the store's dictionary and ID triples, read
// only: concurrent calls return the sequential answer.
func TestReferenceConcurrent(t *testing.T) {
	store := buildShop()
	want, _, err := store.Query(ra.Reference, exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := store.Query(ra.Reference, exampleQuery)
			if err == nil && !slices.EqualFunc(res.Rows(), want.Rows(), slices.Equal) {
				err = fmt.Errorf("rows %v, want %v", res.Rows(), want.Rows())
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
