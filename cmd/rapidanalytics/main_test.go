package main

import (
	"testing"

	ra "rapidanalytics"
)

// -verify compares rows, not only their count: a result with the oracle's
// row count but another row fails, naming the row.
func TestVerifyRowsComparesRows(t *testing.T) {
	const ns = "http://e/"
	s := ra.NewStore(ra.DefaultOptions())
	s.Add(ns+"a", ns+"p", ra.Literal("1"))
	s.Add(ns+"a", ns+"q", ra.Literal("1"))
	s.Add(ns+"a", ns+"q", ra.Literal("2"))
	query := func(prop string) *ra.Result {
		t.Helper()
		res, _, err := s.Query(ra.Reference, `PREFIX e: <http://e/>
SELECT ?s (COUNT(?v) AS ?n) { ?s e:`+prop+` ?v . } GROUP BY ?s`)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	oracle, other := query("p"), query("q")
	if other.Len() != oracle.Len() {
		t.Fatalf("row counts %d and %d, want equal", other.Len(), oracle.Len())
	}
	if err := verifyRows(oracle, oracle); err != nil {
		t.Errorf("equal results: %v", err)
	}
	const want = "row (http://e/a, 2), oracle has (http://e/a, 1)"
	if err := verifyRows(other, oracle); err == nil || err.Error() != want {
		t.Errorf("verifyRows = %v, want %q", err, want)
	}
}
