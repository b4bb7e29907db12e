// Package bench holds the paper's evaluation workload: the query catalog
// (single-grouping G1–G9 and multi-grouping MG1–MG18; the paper's numbering
// has no MG5), the dataset specifications, the harness that runs every
// engine over every query, and the report renderers that regenerate each
// table and figure of §5.
package bench

import (
	"fmt"

	"rapidanalytics/internal/datagen"
)

// Query is one catalog entry.
type Query struct {
	// ID is the paper's query identifier ("G1", "MG13", ...).
	ID string
	// Dataset names the dataset the query runs on ("bsbm", "chem",
	// "pubmed"). BSBM queries run on both BSBM scales.
	Dataset string
	// Description paraphrases the paper's query intent.
	Description string
	// SPARQL is the query text.
	SPARQL string
}

const bsbmPrefix = "PREFIX bsbm: <" + datagen.BSBM + ">\n"
const chemPrefix = "PREFIX c: <" + datagen.Chem + ">\n"
const pmPrefix = "PREFIX pm: <" + datagen.PubMed + ">\n"

// bsbmSingle builds the G1–G4 template: total/average price of offers for
// one product type, grouped by ALL or by feature.
func bsbmSingle(ptype string, byFeature bool) string {
	if byFeature {
		return bsbmPrefix + fmt.Sprintf(`SELECT ?f (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {
  ?p a bsbm:%s ; bsbm:label ?l ; bsbm:productFeature ?f .
  ?off bsbm:product ?p ; bsbm:price ?pr .
} GROUP BY ?f`, ptype)
	}
	return bsbmPrefix + fmt.Sprintf(`SELECT (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {
  ?p a bsbm:%s ; bsbm:label ?l .
  ?off bsbm:product ?p ; bsbm:price ?pr .
}`, ptype)
}

// bsbmMG12 builds MG1/MG2 (BSBM BI use case): average price per feature
// vs. across all features.
func bsbmMG12(ptype string) string {
	return bsbmPrefix + fmt.Sprintf(`SELECT ?f ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a bsbm:%[1]s ; bsbm:label ?l2 ; bsbm:productFeature ?f .
      ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 .
    } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a bsbm:%[1]s ; bsbm:label ?l1 .
      ?off1 bsbm:product ?p1 ; bsbm:price ?pr .
    } }
}`, ptype)
}

// bsbmMG34 builds MG3/MG4: average price per country-feature vs. per
// country across all features.
func bsbmMG34(ptype string) string {
	return bsbmPrefix + fmt.Sprintf(`SELECT ?f ?c ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f ?c (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
    { ?p2 a bsbm:%[1]s ; bsbm:label ?l2 ; bsbm:productFeature ?f .
      ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 ; bsbm:vendor ?v2 .
      ?v2 bsbm:country ?c .
    } GROUP BY ?f ?c }
  { SELECT ?c (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
    { ?p1 a bsbm:%[1]s ; bsbm:label ?l1 .
      ?off1 bsbm:product ?p1 ; bsbm:price ?pr ; bsbm:vendor ?v1 .
      ?v1 bsbm:country ?c .
    } GROUP BY ?c }
}`, ptype)
}

// Catalog is the full evaluated workload, in the paper's order.
var Catalog = []Query{
	// ——— Table 3 left: BSBM single-grouping queries ———
	{"G1", "bsbm", "Offer stats for ProductType1 (lo selectivity), GROUP BY ALL", bsbmSingle("ProductType1", false)},
	{"G2", "bsbm", "Offer stats for ProductType9 (hi selectivity), GROUP BY ALL", bsbmSingle("ProductType9", false)},
	{"G3", "bsbm", "Offer stats for ProductType1 per feature", bsbmSingle("ProductType1", true)},
	{"G4", "bsbm", "Offer stats for ProductType9 per feature", bsbmSingle("ProductType9", true)},

	// ——— Table 3 right: Chem2Bio2RDF single-grouping queries ———
	{"G5", "chem", "Assays per compound sharing targets with Dexamethasone", chemPrefix + `
SELECT ?cid (COUNT(?cid) AS ?active_assays) {
  ?b c:CID ?cid ; c:outcome ?a ; c:Score ?s1 ; c:gi ?gi .
  ?u c:gi ?gi ; c:geneSymbol ?g .
  ?di c:gene ?g ; c:DBID ?dr .
  ?dr c:Generic_Name "Dexamethasone" .
} GROUP BY ?cid`},
	{"G6", "chem", "Compounds active toward MAPK-pathway targets", chemPrefix + `
SELECT ?cid (COUNT(?cid) AS ?active_assays) {
  ?b c:CID ?cid ; c:outcome ?a ; c:Score ?s1 ; c:gi ?gi .
  ?u c:gi ?gi .
  ?pathway c:protein ?u ; c:Pathway_name ?pname .
  FILTER regex(?pname, "MAPK signaling pathway", "i")
} GROUP BY ?cid`},
	{"G7", "chem", "Pathways containing targets of hepatomegaly-linked drugs", chemPrefix + `
SELECT ?pid (COUNT(?pid) AS ?count) {
  ?sider c:side_effect ?se ; c:cid ?cid .
  ?dr c:CID ?cid .
  ?target c:DBID ?dr ; c:SwissProt_ID ?u .
  ?pathway c:protein ?u ; c:pathwayid ?pid .
  FILTER regex(?se, "hepatomegaly", "i")
} GROUP BY ?pid`},
	{"G8", "chem", "Active assays per gene symbol", chemPrefix + `
SELECT ?g (COUNT(?b) AS ?assays) {
  ?b c:CID ?cid ; c:outcome "active" ; c:Score ?s1 ; c:gi ?gi .
  ?u c:gi ?gi ; c:geneSymbol ?g .
} GROUP BY ?g`},
	{"G9", "chem", "MEDLINE publications per gene (large VP tables)", chemPrefix + `
SELECT ?gs (COUNT(?pmid) AS ?pubs) {
  ?g c:geneSymbol ?gs .
  ?pmid c:gene ?g ; c:side_effect ?se .
} GROUP BY ?gs`},

	// ——— Figure 8(a,b): BSBM multi-grouping queries ———
	{"MG1", "bsbm", "Price per feature vs. across features, ProductType1 (lo)", bsbmMG12("ProductType1")},
	{"MG2", "bsbm", "Price per feature vs. across features, ProductType9 (hi)", bsbmMG12("ProductType9")},
	{"MG3", "bsbm", "Price per country-feature vs. per country, ProductType1 (lo)", bsbmMG34("ProductType1")},
	{"MG4", "bsbm", "Price per country-feature vs. per country, ProductType9 (hi)", bsbmMG34("ProductType9")},

	// ——— Figure 8(c): Chem2Bio2RDF multi-grouping queries ———
	{"MG6", "chem", "Targets per compound-gene vs. per compound", chemPrefix + `
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
}`},
	{"MG7", "chem", "Targets per compound-drug vs. per compound", chemPrefix + `
SELECT ?cid ?dr1 ?aPerCD ?aPerC {
  { SELECT ?cid ?dr1 (COUNT(?cid) AS ?aPerCD)
    { ?b1 c:CID ?cid ; c:outcome ?a1 ; c:Score ?s1 ; c:gi ?gi1 .
      ?u1 c:gi ?gi1 ; c:geneSymbol ?g1 .
      ?di1 c:gene ?g1 ; c:DBID ?dr1 .
    } GROUP BY ?cid ?dr1 }
  { SELECT ?cid (COUNT(?cid) AS ?aPerC)
    { ?b c:CID ?cid ; c:outcome ?a ; c:Score ?s ; c:gi ?gi .
      ?u c:gi ?gi ; c:geneSymbol ?g .
      ?di c:gene ?g ; c:DBID ?dr .
    } GROUP BY ?cid }
}`},
	{"MG8", "chem", "Targets per compound-gene vs. overall total", chemPrefix + `
SELECT ?cid ?g1 ?aPerCG ?aT {
  { SELECT ?cid ?g1 (COUNT(?cid) AS ?aPerCG)
    { ?b1 c:CID ?cid ; c:outcome ?a1 ; c:Score ?s1 ; c:gi ?gi1 .
      ?u1 c:gi ?gi1 ; c:geneSymbol ?g1 .
      ?di1 c:gene ?g1 ; c:DBID ?dr1 .
    } GROUP BY ?cid ?g1 }
  { SELECT (COUNT(?cid2) AS ?aT)
    { ?b c:CID ?cid2 ; c:outcome ?a ; c:Score ?s ; c:gi ?gi .
      ?u c:gi ?gi ; c:geneSymbol ?g .
      ?di c:gene ?g ; c:DBID ?dr .
    } }
}`},
	{"MG9", "chem", "MEDLINE publications per gene vs. total", chemPrefix + `
SELECT ?gs ?pPerGene ?pT {
  { SELECT ?gs (COUNT(?gs) AS ?pPerGene)
    { ?g c:geneSymbol ?gs .
      ?pmid c:gene ?g ; c:side_effect ?se .
    } GROUP BY ?gs }
  { SELECT (COUNT(?gs1) AS ?pT)
    { ?g1 c:geneSymbol ?gs1 .
      ?pmid1 c:gene ?g1 ; c:side_effect ?se1 .
    } }
}`},
	{"MG10", "chem", "Publications per disease-gene vs. per gene", chemPrefix + `
SELECT ?d ?gs ?pPerDG ?pPerG {
  { SELECT ?d ?gs (COUNT(?pmid) AS ?pPerDG)
    { ?g c:geneSymbol ?gs .
      ?pmid c:gene ?g ; c:side_effect ?se ; c:disease ?d .
    } GROUP BY ?d ?gs }
  { SELECT ?gs (COUNT(?pmid1) AS ?pPerG)
    { ?g1 c:geneSymbol ?gs .
      ?pmid1 c:gene ?g1 ; c:side_effect ?se1 .
    } GROUP BY ?gs }
}`},

	// ——— Table 4: PubMed multi-grouping queries ———
	{"MG11", "pubmed", "Journal pubs funded per grant country vs. total", pmPrefix + `
SELECT ?c ?cntC ?cntT {
  { SELECT ?c (COUNT(?g) AS ?cntC)
    { ?pub pm:journal ?j ; pm:grant ?g .
      ?g pm:grant_agency ?ga ; pm:grant_country ?c .
    } GROUP BY ?c }
  { SELECT (COUNT(?g1) AS ?cntT)
    { ?pub1 pm:journal ?j1 ; pm:grant ?g1 .
      ?g1 pm:grant_agency ?ga1 .
    } }
}`},
	{"MG12", "pubmed", "Grants per country-pubtype vs. per country", pmPrefix + `
SELECT ?c ?pt ?cntCP ?cntC {
  { SELECT ?c ?pt (COUNT(?g) AS ?cntCP)
    { ?pub pm:pub_type ?pt ; pm:grant ?g .
      ?g pm:grant_agency ?ga ; pm:grant_country ?c .
    } GROUP BY ?c ?pt }
  { SELECT ?c (COUNT(?g1) AS ?cntC)
    { ?pub1 pm:pub_type ?pt1 ; pm:grant ?g1 .
      ?g1 pm:grant_country ?c .
    } GROUP BY ?c }
}`},
	{"MG13", "pubmed", "MeSH headings per author-pubtype vs. per pubtype (materialisation blow-up)", pmPrefix + `
SELECT ?a ?pty ?perAPT ?perPT {
  { SELECT ?a ?pty (COUNT(?m) AS ?perAPT)
    { ?p pm:pub_type ?pty ; pm:mesh_heading ?m ; pm:author ?a .
      ?a pm:last_name ?ln .
    } GROUP BY ?a ?pty }
  { SELECT ?pty (COUNT(?m1) AS ?perPT)
    { ?p1 pm:pub_type ?pty ; pm:mesh_heading ?m1 ; pm:author ?a1 .
      ?a1 pm:last_name ?ln1 .
    } GROUP BY ?pty }
}`},
	{"MG14", "pubmed", "Chemicals per author-pubtype vs. per pubtype", pmPrefix + `
SELECT ?a ?pty ?perAPT ?perPT {
  { SELECT ?a ?pty (COUNT(?ch) AS ?perAPT)
    { ?p pm:pub_type ?pty ; pm:chemical ?ch ; pm:author ?a .
      ?a pm:last_name ?ln .
    } GROUP BY ?a ?pty }
  { SELECT ?pty (COUNT(?ch1) AS ?perPT)
    { ?p1 pm:pub_type ?pty ; pm:chemical ?ch1 ; pm:author ?a1 .
      ?a1 pm:last_name ?ln1 .
    } GROUP BY ?pty }
}`},
	{"MG15", "pubmed", "Chemicals per author for Journal Articles (lo selectivity) vs. total", pmPrefix + `
SELECT ?ln ?perA ?allA {
  { SELECT ?ln (COUNT(?ch) AS ?perA)
    { ?pub pm:pub_type "Journal Article" ; pm:chemical ?ch ; pm:author ?a .
      ?a pm:last_name ?ln .
    } GROUP BY ?ln }
  { SELECT (COUNT(?ch1) AS ?allA)
    { ?pub1 pm:pub_type "Journal Article" ; pm:chemical ?ch1 ; pm:author ?a1 .
      ?a1 pm:last_name ?ln1 .
    } }
}`},
	{"MG16", "pubmed", "Chemicals per author for News items (hi selectivity) vs. total", pmPrefix + `
SELECT ?ln ?perA ?allA {
  { SELECT ?ln (COUNT(?ch) AS ?perA)
    { ?pub pm:pub_type "News" ; pm:chemical ?ch ; pm:author ?a .
      ?a pm:last_name ?ln .
    } GROUP BY ?ln }
  { SELECT (COUNT(?ch1) AS ?allA)
    { ?pub1 pm:pub_type "News" ; pm:chemical ?ch1 ; pm:author ?a1 .
      ?a1 pm:last_name ?ln1 .
    } }
}`},
	{"MG17", "pubmed", "Journal-article grants per country vs. overall", pmPrefix + `
SELECT ?c ?perC ?total {
  { SELECT ?c (COUNT(?g) AS ?perC)
    { ?pub pm:journal ?j ; pm:pub_type "Journal Article" ; pm:grant ?g .
      ?g pm:grant_agency ?ga ; pm:grant_country ?c .
    } GROUP BY ?c }
  { SELECT (COUNT(?g1) AS ?total)
    { ?pub1 pm:journal ?j1 ; pm:pub_type "Journal Article" ; pm:grant ?g1 .
      ?g1 pm:grant_agency ?ga1 .
    } }
}`},
	{"MG18", "pubmed", "Journal articles per author-country vs. per country", pmPrefix + `
SELECT ?c ?a ?perAC ?perC {
  { SELECT ?c ?a (COUNT(?g) AS ?perAC)
    { ?p pm:pub_type "Journal Article" ; pm:author ?a ; pm:grant ?g .
      ?g pm:grant_agency ?ga ; pm:grant_country ?c .
    } GROUP BY ?c ?a }
  { SELECT ?c (COUNT(?g1) AS ?perC)
    { ?pub1 pm:pub_type "Journal Article" ; pm:grant ?g1 .
      ?g1 pm:grant_agency ?ga1 ; pm:grant_country ?c .
    } GROUP BY ?c }
}`},

	// ——— Extension (not in the paper): the α-Join ablation query. Its two
	// patterns carry *disjoint* secondary properties (productFeature vs
	// validTo — Table 2's rows 3-4 shape), so the α-Join actually discards
	// combinations matching neither pattern. The paper's own MG queries are
	// roll-ups (one pattern subsumes the other), where the α condition of
	// the subsumed pattern is trivially true.
	{"MGA", "bsbm", "(extension) price per feature vs. price per offer validity month — disjoint secondaries", bsbmPrefix + `SELECT ?f ?cntF ?vt ?cntV {
  { SELECT ?f (COUNT(?pr2) AS ?cntF)
    { ?p2 a bsbm:ProductType1 ; bsbm:label ?l2 ; bsbm:productFeature ?f .
      ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 .
    } GROUP BY ?f }
  { SELECT ?vt (COUNT(?pr) AS ?cntV)
    { ?p1 a bsbm:ProductType1 ; bsbm:label ?l1 .
      ?off1 bsbm:product ?p1 ; bsbm:price ?pr ; bsbm:validTo ?vt .
    } GROUP BY ?vt }
}`},

	// ——— Extension (not in the paper): planner stressors, run only by the
	// planner experiment's skewed datasets (bsbm-zipf, bsbm-supernode). Both
	// are written with the offer star FIRST, so the fixed star-0-first
	// heuristic leads with the largest relation while the cost-based order
	// can start from a selective star instead. "IN" is the rare country the
	// skewed generators pin to exactly two vendors.
	{"SK1", "bsbm-skew", "(extension) offer stats for rare-country vendors of ProductType1 — heuristic leads with the offer star", bsbmPrefix + `SELECT ?vl (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {
  ?off bsbm:product ?p ; bsbm:price ?pr ; bsbm:vendor ?v .
  ?p a bsbm:ProductType1 ; bsbm:label ?l .
  ?v bsbm:country "IN" ; bsbm:label ?vl .
} GROUP BY ?vl`},
	{"SK2", "bsbm-skew", "(extension) offers per country for ProductType9 with producer labels — the super-node graph makes the type9 estimate wrong by >10x, forcing a mid-query re-plan", bsbmPrefix + `SELECT ?c (COUNT(?pr) AS ?cnt) {
  ?off bsbm:product ?p ; bsbm:price ?pr ; bsbm:vendor ?v .
  ?p a bsbm:ProductType9 ; bsbm:label ?l ; bsbm:producer ?mk .
  ?v bsbm:country ?c .
  ?mk bsbm:label ?ml .
} GROUP BY ?c`},
}

// Get returns the catalog query with the given id.
func Get(id string) (Query, bool) {
	for _, q := range Catalog {
		if q.ID == id {
			return q, true
		}
	}
	return Query{}, false
}

// IDs returns the catalog's query ids in order.
func IDs() []string {
	out := make([]string, len(Catalog))
	for i, q := range Catalog {
		out[i] = q.ID
	}
	return out
}
