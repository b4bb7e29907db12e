package rapidanalytics

import (
	"bytes"
	"context"
	"testing"

	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/datagen"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
)

// catalogPassRows keeps the compiler from dropping the Rows() read.
var catalogPassRows int

// BenchmarkCatalogPass is the benchmark's batch pass without its harness:
// the 29 catalog queries × one side's two systems, prepared once, then one
// sweep of Execute + Rows() per iteration on the canonical workload graph.
// allocs/op tracks `allocs_per_pass` of `benchmark/` (ntga ↔ ntga-mem,
// hive ↔ hive-mem), so
//
//	go test -run xxx -bench CatalogPass/ntga -cpuprofile cpu.out -memprofile mem.out .
//
// is the profile a hot-path change starts from (ROADMAP item 4).
func BenchmarkCatalogPass(b *testing.B) {
	for _, side := range []struct {
		name    string
		systems []System
	}{
		{"ntga", []System{RAPIDPlus, RAPIDAnalytics}},
		{"hive", []System{HiveNaive, HiveMQO}},
	} {
		b.Run(side.name, func(b *testing.B) {
			store := NewWorkloadStore(1, DefaultOptions())
			var cells []*PreparedQuery
			for _, q := range bench.Catalog {
				for _, sys := range side.systems {
					pq, err := store.Prepare(sys, q.SPARQL)
					if err != nil {
						b.Fatalf("%s on %s: %v", q.ID, sys, err)
					}
					cells = append(cells, pq)
				}
			}
			sweep := func() {
				for _, pq := range cells {
					res, _, err := pq.Execute(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					catalogPassRows += len(res.Rows())
				}
			}
			sweep() // builds the layouts, dictionary and statistics
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
		})
	}
}

// BenchmarkLoadNTriples is what the benchmark's setup_s times once the
// graph is generated and serialised: from the workload document's bytes
// (NewWorkloadStore(1) written out), NewStore, LoadNTriples and the first
// query, which builds the layouts and the statistics, per iteration —
//
//	go test -run xxx -bench LoadNTriples -benchmem -cpuprofile cpu.out -memprofile mem.out .
//
// is the profile of a set-up. BenchmarkLoad starts from a built graph.
func BenchmarkLoadNTriples(b *testing.B) {
	var doc bytes.Buffer
	if err := NewWorkloadStore(1, DefaultOptions()).WriteNTriples(&doc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(DefaultOptions())
		if err := s.LoadNTriples(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Query(RAPIDAnalytics, bench.Catalog[0].SPARQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad is rdf.Intern and engine.Load on the canonical workload graph
// (the one BenchmarkCatalogPass queries): the dictionary, both layouts on the memory
// DFS and the statistics catalog, built from scratch per iteration —
//
//	go test -run xxx -bench Load -benchmem -cpuprofile cpu.out -memprofile mem.out .
//
// is the profile of the load path.
func BenchmarkLoad(b *testing.B) {
	g := &rdf.Graph{} // the statements of NewWorkloadStore(1), in its order
	for _, part := range []*rdf.Graph{datagen.GenerateBSBM(datagen.BSBMSmall()), datagen.GenerateChem(datagen.ChemDefault()), datagen.GeneratePubMed(datagen.PubMedDefault())} {
		g.Add(part.Triples...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mapred.NewClusterFS(mapred.VCL10(1), dfs.New())
		if _, err := engine.Load(c, "load", rdf.Intern(g, rdf.NewDict())); err != nil {
			b.Fatal(err)
		}
	}
}
