package ntga

import (
	"fmt"
	"testing"

	"rapidanalytics/internal/rdf"
)

func benchTG(d *rdf.Dict, props, fanout int) TripleGroup {
	g := TripleGroup{Subject: "Is"}
	for i := 0; i < props; i++ {
		for j := 0; j < fanout; j++ {
			g.Triples = append(g.Triples, PO{
				Prop: fmt.Sprintf("http://e/p%d", i),
				Obj:  fmt.Sprintf("Lv%d_%d", i, j),
			})
		}
	}
	return intern(g, d)
}

func BenchmarkEncodeDecodeAnnTG(b *testing.B) {
	d := rdf.NewDict()
	a := joined(benchTG(d, 4, 2), benchTG(d, 3, 1))
	enc := a.EncodeIDs()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAnnTGIDs(enc, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchResolved(b *testing.B) {
	cp := buildComposite(b)
	d := rdf.NewDict()
	atg := joined(productTG(d, "p1", "f1", "f2", "f3"), offerTG(d, "o1", "p1", "100"))
	n := 0
	st := CompileMatcher(ResolveTPMap(PatternTriples(cp, 0), d), nil).NewState(func([]string) { n++ })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n = 0
		st.Match(&atg)
		if n != 3 {
			b.Fatalf("solutions = %d", n)
		}
	}
}
