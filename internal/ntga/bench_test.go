package ntga

import (
	"fmt"
	"testing"

	"rapidanalytics/internal/algebra"
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

func BenchmarkOptGroupFilter(b *testing.B) {
	d := rdf.NewDict()
	tg := benchTG(d, 6, 2)
	prim := ResolveRefs([]algebra.PropRef{{Prop: "http://e/p0"}, {Prop: "http://e/p1"}}, d)
	opt := ResolveRefs([]algebra.PropRef{{Prop: "http://e/p2"}}, d)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := OptGroupFilterRefs(tg, prim, opt); !ok {
			b.Fatal("filtered out")
		}
	}
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
