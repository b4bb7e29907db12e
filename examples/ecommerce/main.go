// E-commerce analytics on a generated BSBM-like catalog: the paper's
// motivating workload (Berlin SPARQL BI use case). Two related groupings —
// average offer price per product feature, and per vendor country across
// all features — are answered by one analytical query whose overlapping
// graph patterns RAPIDAnalytics rewrites into a single composite pattern.
package main

import (
	"fmt"
	"log"
	"sort"
	"strconv"

	ra "rapidanalytics"
)

// perFeatureVsCountry is the paper's MG3 shape: price statistics per
// (feature, country) compared with per-country totals across all features.
var perFeatureVsCountry = "PREFIX bsbm: <" + ra.BSBMNamespace + ">\n" + `
SELECT ?f ?c ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f ?c (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a bsbm:ProductType1 ; bsbm:label ?l2 ; bsbm:productFeature ?f .
      ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 ; bsbm:vendor ?v2 .
      ?v2 bsbm:country ?c .
    } GROUP BY ?f ?c }
  { SELECT ?c (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a bsbm:ProductType1 ; bsbm:label ?l1 .
      ?off1 bsbm:product ?p1 ; bsbm:price ?pr ; bsbm:vendor ?v1 .
      ?v1 bsbm:country ?c .
    } GROUP BY ?c }
}`

// priceRatio is the paper's AQ1: for each country, product features with
// the ratio between average price with that feature and without.
var priceRatio = "PREFIX bsbm: <" + ra.BSBMNamespace + ">\n" + `
SELECT ?f ?c ((?sumF/?cntF) / (?sumT/?cntT) AS ?ratio) {
  { SELECT ?f ?c (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a bsbm:ProductType1 ; bsbm:label ?l2 ; bsbm:productFeature ?f .
      ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 ; bsbm:vendor ?v2 .
      ?v2 bsbm:country ?c .
    } GROUP BY ?f ?c }
  { SELECT ?c (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a bsbm:ProductType1 ; bsbm:label ?l1 .
      ?off1 bsbm:product ?p1 ; bsbm:price ?pr ; bsbm:vendor ?v1 .
      ?v1 bsbm:country ?c .
    } GROUP BY ?c }
}`

func main() {
	// A store sized like BSBM-500K scaled to a laptop, with the paper's
	// 10-node cluster cost model extrapolated to the full 175M triples.
	opts := ra.DefaultOptions()
	opts.Nodes, opts.DataScale = 10, 6000
	store := ra.NewBSBMStore(600, opts)
	fmt.Printf("generated BSBM catalog: %d triples\n\n", store.NumTriples())

	fmt.Println("Engine comparison on the MG3-style query:")
	for _, sys := range ra.Systems() {
		res, stats, err := store.Query(sys, perFeatureVsCountry)
		if err != nil {
			log.Fatalf("%s: %v", sys, err)
		}
		fmt.Printf("  %-16s %2d cycles  %6.0f simulated seconds  %5d rows\n",
			sys, stats.MRCycles, stats.SimulatedSeconds, res.Len())
	}
	fmt.Println()

	// Business question: which features command the highest price premium
	// per country?
	res, _, err := store.Query(ra.RAPIDAnalytics, priceRatio)
	if err != nil {
		log.Fatal(err)
	}
	type row struct {
		feature, country string
		ratio            float64
	}
	var rows []row
	for _, r := range res.Rows() {
		f, err := strconv.ParseFloat(r[2], 64)
		if err != nil {
			continue
		}
		rows = append(rows, row{r[0], r[1], f})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ratio > rows[j].ratio })
	fmt.Println("Top price-premium features per country (feature, country, ratio):")
	for i, r := range rows {
		if i == 8 {
			break
		}
		fmt.Printf("  %-40s %-4s %.2f\n", r.feature, r.country, r.ratio)
	}
}
