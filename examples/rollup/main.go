// ROLLUP extension: the paper's conclusion names "more complex OLAP
// queries" as the natural next step. Because the composite-pattern
// machinery is n-ary, a whole ROLLUP hierarchy — (country, feature),
// (country), () — is one analytical query whose identical graph patterns
// collapse into a single composite pass with all levels aggregated in one
// parallel Agg-Join cycle.
package main

import (
	"fmt"
	"log"

	ra "rapidanalytics"
)

func main() {
	opts := ra.DefaultOptions()
	opts.Nodes, opts.DataScale = 10, 6000
	store := ra.NewBSBMStore(400, opts)
	fmt.Printf("generated BSBM catalog: %d triples\n\n", store.NumTriples())

	query, err := ra.BuildRollup(ra.RollupSpec{
		Prologue: "PREFIX bsbm: <" + ra.BSBMNamespace + ">",
		Pattern: `?p a bsbm:ProductType1 ; bsbm:productFeature ?f .
?off bsbm:product ?p ; bsbm:price ?a ; bsbm:vendor ?v .
?v bsbm:country ?c .`,
		Agg:  "SUM",
		Var:  "a",
		Dims: []string{"c", "f"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated ROLLUP query:")
	fmt.Println(query)
	fmt.Println()

	plan, err := ra.Explain(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimizer view:")
	fmt.Print(plan)
	fmt.Println()

	for _, sys := range ra.Systems() {
		res, stats, err := store.Query(sys, query)
		if err != nil {
			log.Fatalf("%s: %v", sys, err)
		}
		fmt.Printf("%-16s %2d MR cycles, %6.0f simulated seconds, %d rows\n",
			sys, stats.MRCycles, stats.SimulatedSeconds, res.Len())
	}

	res, _, err := store.Query(ra.RAPIDAnalytics, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsample rows (country, feature, sum(c,f), sum(c), sum()):")
	for i, row := range res.Rows() {
		if i == 6 {
			break
		}
		fmt.Printf("  %v\n", row)
	}
}
