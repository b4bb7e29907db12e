package rapidanalytics

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding workload — the same queries,
// datasets and engines — and reports the headline quantity as custom
// metrics:
//
//	sim-s/q        mean simulated cluster seconds per query (cost model at
//	               paper scale; compare against the paper's tables)
//	cycles/q       mean MapReduce cycles per query
//
// On the first iteration each benchmark also prints the rendered table or
// figure with the paper's published numbers alongside the measured ones, so
// `go test -bench=. | tee bench_output.txt` records the full reproduction.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/engine"
)

// sharedLoader caches generated datasets across benchmarks.
var (
	loaderOnce sync.Once
	harness    *bench.Harness
)

func benchHarness() *bench.Harness {
	loaderOnce.Do(func() { harness = bench.NewHarness(false) })
	return harness
}

var printOnce sync.Map

func printFirst(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

func report(b *testing.B, rs []bench.RunResult) {
	b.Helper()
	var sim float64
	var cycles int
	for _, r := range rs {
		sim += r.SimSeconds
		cycles += r.Cycles
	}
	n := float64(len(rs))
	if n == 0 {
		return
	}
	b.ReportMetric(sim/n, "sim-s/q")
	b.ReportMetric(float64(cycles)/n, "cycles/q")
}

// BenchmarkTable3BSBM regenerates the left half of Table 3: G1–G4 on
// BSBM-500K and BSBM-2M, Hive (Naive) vs RAPIDAnalytics.
func BenchmarkTable3BSBM(b *testing.B) {
	h := benchHarness()
	qs := []string{"G1", "G2", "G3", "G4"}
	engines := []engine.Engine{bench.Engines()[0], bench.Engines()[3]}
	for i := 0; i < b.N; i++ {
		r500k, err := h.RunAll(qs, "bsbm-500k", engines)
		if err != nil {
			b.Fatal(err)
		}
		r2m, err := h.RunAll(qs, "bsbm-2m", engines)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table3-bsbm", bench.RenderTable3BSBM(r500k, r2m))
		report(b, append(r500k, r2m...))
	}
}

// BenchmarkTable3Chem regenerates the right half of Table 3: G5–G9 on
// Chem2Bio2RDF.
func BenchmarkTable3Chem(b *testing.B) {
	h := benchHarness()
	qs := []string{"G5", "G6", "G7", "G8", "G9"}
	engines := []engine.Engine{bench.Engines()[0], bench.Engines()[3]}
	for i := 0; i < b.N; i++ {
		rs, err := h.RunAll(qs, "chem", engines)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table3-chem", bench.RenderTable3Chem(rs))
		report(b, rs)
	}
}

// BenchmarkFigure8a regenerates Figure 8(a): MG1–MG4 on BSBM-500K across
// all four engines.
func BenchmarkFigure8a(b *testing.B) {
	benchFigure(b, "Figure 8(a): MG1-MG4 on BSBM-500K (10 nodes)",
		[]string{"MG1", "MG2", "MG3", "MG4"}, "bsbm-500k")
}

// BenchmarkFigure8b regenerates Figure 8(b): MG1–MG4 on BSBM-2M (the
// scalability study, 50-node cluster).
func BenchmarkFigure8b(b *testing.B) {
	benchFigure(b, "Figure 8(b): MG1-MG4 on BSBM-2M (50 nodes)",
		[]string{"MG1", "MG2", "MG3", "MG4"}, "bsbm-2m")
}

// BenchmarkFigure8c regenerates Figure 8(c): MG6–MG10 on Chem2Bio2RDF.
func BenchmarkFigure8c(b *testing.B) {
	benchFigure(b, "Figure 8(c): MG6-MG10 on Chem2Bio2RDF (10 nodes)",
		[]string{"MG6", "MG7", "MG8", "MG9", "MG10"}, "chem")
}

func benchFigure(b *testing.B, title string, qs []string, dataset string) {
	b.Helper()
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		rs, err := h.RunAll(qs, dataset, bench.Engines())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(title, bench.RenderFigure(title, qs, rs))
		report(b, rs)
	}
}

// BenchmarkTable4PubMed regenerates Table 4: MG11–MG18 on PubMed across
// all four engines (60-node cluster).
func BenchmarkTable4PubMed(b *testing.B) {
	h := benchHarness()
	qs := []string{"MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18"}
	for i := 0; i < b.N; i++ {
		rs, err := h.RunAll(qs, "pubmed", bench.Engines())
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table4", bench.RenderTable4(rs))
		report(b, rs)
	}
}

// BenchmarkCycleCounts regenerates the §5.2 MR-cycle verification over the
// whole catalog.
func BenchmarkCycleCounts(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		var all []bench.RunResult
		for _, grp := range []struct {
			ids []string
			ds  string
		}{
			{[]string{"G1", "G3"}, "bsbm-500k"},
			{[]string{"MG1", "MG3"}, "bsbm-500k"},
			{[]string{"MG6", "MG9"}, "chem"},
			{[]string{"MG11", "MG13"}, "pubmed"},
		} {
			rs, err := h.RunAll(grp.ids, grp.ds, bench.Engines())
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, rs...)
		}
		printFirst("cycles", bench.RenderCycles(all))
		report(b, all)
	}
}

// BenchmarkAblationParallelAgg regenerates the Figure 6(a) vs 6(b)
// comparison plus the α-filter and hash-pre-aggregation ablations on the
// BSBM multi-grouping queries.
func BenchmarkAblationParallelAgg(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		var all []bench.RunResult
		for _, q := range []string{"MG1", "MG2", "MG3", "MG4"} {
			rs, err := h.RunAblation(q, "bsbm-500k")
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, rs...)
		}
		printFirst("ablation", bench.RenderAblation(all))
		report(b, all)
	}
}

// BenchmarkMG runs the flagship multi-grouping query MG1 per engine with
// tracing disabled — the allocation gate for the observability layer and the
// data plane: run with -benchmem and compare allocs/op against the previous
// baseline.
func BenchmarkMG(b *testing.B) {
	h := benchHarness()
	for _, e := range bench.Engines() {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := h.Run("MG1", "bsbm-500k", []engine.Engine{e})
				if err != nil {
					b.Fatal(err)
				}
				report(b, rs)
			}
		})
	}
}

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
// is the profile a hot-path change starts from (ROADMAP item 3).
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
