// Dataset statistics with unbound-property patterns — the "don't care
// relationship" queries of §5.2 (handled via the extension path of [32]).
// VoID-style predicate usage counts and per-type property fan-outs are
// single analytical queries; the Hive engines must fall back to scanning
// the full triples table while the NTGA engines read whole triplegroups,
// so the cost gap widens.
package main

import (
	"fmt"
	"log"

	ra "rapidanalytics"
)

var predicateUsage = "PREFIX bsbm: <" + ra.BSBMNamespace + ">\n" + `
SELECT ?p (COUNT(?o) AS ?uses) (COUNT(DISTINCT ?o) AS ?distinctObjects) {
  ?s ?p ?o .
} GROUP BY ?p ORDER BY DESC(?uses)`

var productFanout = "PREFIX bsbm: <" + ra.BSBMNamespace + ">\n" + `
SELECT ?p (COUNT(?o) AS ?n) {
  ?s a bsbm:ProductType1 ; ?p ?o .
} GROUP BY ?p ORDER BY DESC(?n)`

func main() {
	opts := ra.DefaultOptions()
	opts.Nodes, opts.DataScale = 10, 6000
	store := ra.NewBSBMStore(300, opts)
	fmt.Printf("generated BSBM catalog: %d triples\n\n", store.NumTriples())

	fmt.Println("Predicate usage (VoID-style statistics):")
	res, stats, err := store.Query(ra.RAPIDAnalytics, predicateUsage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)
	fmt.Printf("(%d MR cycles, %.0f simulated seconds)\n\n", stats.MRCycles, stats.SimulatedSeconds)

	fmt.Println("Property fan-out of ProductType1 products, engine comparison:")
	for _, sys := range ra.Systems() {
		res, stats, err := store.Query(sys, productFanout)
		if err != nil {
			log.Fatalf("%s: %v", sys, err)
		}
		fmt.Printf("  %-16s %2d cycles  %6.0f simulated seconds  %d properties\n",
			sys, stats.MRCycles, stats.SimulatedSeconds, res.Len())
	}
}
