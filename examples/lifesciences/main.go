// Life-sciences analytics on a generated Chem2Bio2RDF-like chemogenomics
// graph — the paper's motivating Semantic Web scenario (drug discovery,
// ReDD-Observatory-style disparity studies). Runs the single-grouping G5
// (compounds sharing targets with Dexamethasone) and the multi-grouping MG6
// (assays per compound-gene vs. per compound).
package main

import (
	"fmt"
	"log"

	ra "rapidanalytics"
)

var g5 = "PREFIX c: <" + ra.ChemNamespace + ">\n" + `
SELECT ?cid (COUNT(?cid) AS ?active_assays) {
  ?b c:CID ?cid ; c:outcome ?a ; c:Score ?s1 ; c:gi ?gi .
  ?u c:gi ?gi ; c:geneSymbol ?g .
  ?di c:gene ?g ; c:DBID ?dr .
  ?dr c:Generic_Name "Dexamethasone" .
} GROUP BY ?cid`

var mg6 = "PREFIX c: <" + ra.ChemNamespace + ">\n" + `
SELECT ?cid ?g1 ?aPerCG ?aPerC {
  { SELECT ?cid ?g1 (COUNT(?cid) AS ?aPerCG)
    { ?b1 c:CID ?cid ; c:outcome ?a1 ; c:Score ?s1 ; c:gi ?gi1 .
      ?u1 c:gi ?gi1 ; c:geneSymbol ?g1 .
      ?di1 c:gene ?g1 ; c:DBID ?dr1 .
    } GROUP BY ?cid ?g1 }
  { SELECT ?cid (COUNT(?cid) AS ?aPerC)
    { ?b c:CID ?cid ; c:outcome ?a ; c:Score ?s ; c:gi ?gi .
      ?u c:gi ?gi ; c:geneSymbol ?g .
      ?di c:gene ?g ; c:DBID ?dr .
    } GROUP BY ?cid }
}`

func main() {
	opts := ra.DefaultOptions()
	opts.Nodes, opts.DataScale = 10, 12000
	store := ra.NewChemStore(800, opts)
	fmt.Printf("generated chemogenomics graph: %d triples\n\n", store.NumTriples())

	// G5: a 4-star chain query (bioassay → protein → drug-target → drug).
	fmt.Println("G5 — compounds sharing targets with Dexamethasone:")
	res, stats, err := store.Query(ra.RAPIDAnalytics, g5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  RAPIDAnalytics: %d compounds in %d MR cycles (%.0f simulated seconds)\n",
		res.Len(), stats.MRCycles, stats.SimulatedSeconds)
	hres, hstats, err := store.Query(ra.HiveNaive, g5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Hive (Naive):   %d compounds in %d MR cycles (%.0f simulated seconds)\n\n",
		hres.Len(), hstats.MRCycles, hstats.SimulatedSeconds)

	// MG6: the multi-grouping comparison. The two graph patterns are
	// identical, so the composite rewriting shares every scan and join.
	explain, err := ra.Explain(mg6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MG6 — optimizer view:")
	fmt.Print(explain)
	fmt.Println()
	for _, sys := range ra.Systems() {
		res, stats, err := store.Query(sys, mg6)
		if err != nil {
			log.Fatalf("%s: %v", sys, err)
		}
		fmt.Printf("  %-16s %2d cycles  %6.0f simulated seconds  %5d rows\n",
			sys, stats.MRCycles, stats.SimulatedSeconds, res.Len())
	}
}
