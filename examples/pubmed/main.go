// Bibliometric analytics on a generated PubMed-like graph: grant-funding
// comparisons across countries (the paper's MG11/MG18) and the
// high-fan-out MeSH-heading workload (MG13) whose intermediate results
// blew past HDFS capacity for naive Hive in the paper. Demonstrates why
// the triplegroup representation's concise (denormalised) intermediate
// results matter.
package main

import (
	"fmt"
	"log"

	ra "rapidanalytics"
)

var mg11 = "PREFIX pm: <" + ra.PubMedNamespace + ">\n" + `
SELECT ?c ?cntC ?cntT {
  { SELECT ?c (COUNT(?g) AS ?cntC)
    { ?pub pm:journal ?j ; pm:grant ?g .
      ?g pm:grant_agency ?ga ; pm:grant_country ?c .
    } GROUP BY ?c }
  { SELECT (COUNT(?g1) AS ?cntT)
    { ?pub1 pm:journal ?j1 ; pm:grant ?g1 .
      ?g1 pm:grant_agency ?ga1 .
    } }
}`

var mg13 = "PREFIX pm: <" + ra.PubMedNamespace + ">\n" + `
SELECT ?a ?pty ?perAPT ?perPT {
  { SELECT ?a ?pty (COUNT(?m) AS ?perAPT)
    { ?p pm:pub_type ?pty ; pm:mesh_heading ?m ; pm:author ?a .
      ?a pm:last_name ?ln .
    } GROUP BY ?a ?pty }
  { SELECT ?pty (COUNT(?m1) AS ?perPT)
    { ?p1 pm:pub_type ?pty ; pm:mesh_heading ?m1 ; pm:author ?a1 .
      ?a1 pm:last_name ?ln1 .
    } GROUP BY ?pty }
}`

func main() {
	// The paper ran PubMed on a 60-node cluster; DataScale extrapolates our
	// laptop-sized graph to the 1.7B-triple original.
	opts := ra.DefaultOptions()
	opts.Nodes, opts.DataScale = 60, 37000
	store := ra.NewPubMedStore(2000, opts)
	fmt.Printf("generated PubMed graph: %d triples\n\n", store.NumTriples())

	fmt.Println("MG11 — grant-funded journal publications per country vs. total:")
	res, stats, err := store.Query(ra.RAPIDAnalytics, mg11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)
	fmt.Printf("(%d MR cycles, %.0f simulated seconds)\n\n", stats.MRCycles, stats.SimulatedSeconds)

	fmt.Println("MG13 — MeSH headings per author-pubtype vs. per pubtype:")
	fmt.Println("intermediate-result materialisation per engine (the paper's")
	fmt.Println("naive-Hive HDFS blow-up, reproduced in bytes):")
	for _, sys := range ra.Systems() {
		res, stats, err := store.Query(sys, mg13)
		if err != nil {
			log.Fatalf("%s: %v", sys, err)
		}
		fmt.Printf("  %-16s %2d cycles  materialized %8.1f MB  shuffled %8.1f MB  (%d rows)\n",
			sys, stats.MRCycles,
			float64(stats.MaterializedBytes)/(1<<20),
			float64(stats.ShuffleBytes)/(1<<20),
			res.Len())
	}
}
