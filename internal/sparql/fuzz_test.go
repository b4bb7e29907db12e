package sparql_test

import (
	"reflect"
	"testing"

	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/sparql"
)

// FuzzParse checks that the parser never panics and that whatever parses
// formats to a fixed point, Format(Parse(Format(q))) == Format(q), through
// a reparse that rebuilds the same AST.
func FuzzParse(f *testing.F) {
	for _, id := range bench.IDs() {
		q, _ := bench.Get(id)
		f.Add(q.SPARQL)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		text := sparql.Format(q)
		q2, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("formatted query does not reparse: %v\nsource:\n%s\nformatted:\n%s", err, src, text)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("reparsing the formatted query changed the AST\nsource:\n%q\nformatted:\n%s", src, text)
		}
		if text2 := sparql.Format(q2); text2 != text {
			t.Fatalf("Format is not a fixed point\nsource:\n%s\nfirst:\n%s\nsecond:\n%s", src, text, text2)
		}
	})
}
