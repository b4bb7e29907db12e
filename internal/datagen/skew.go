package datagen

import (
	"fmt"
	"math/rand"

	"rapidanalytics/internal/rdf"
)

// This file holds the two adversarially skewed BSBM variants used by the
// planner's skew gate (bench.TestPlannerOnSkew). Both keep GenerateBSBM's
// vocabulary exactly — products with type/label/producer/productFeature,
// offers with product/price/vendor/deliveryDays/validTo, vendors with
// country/label — so every BSBM-shaped catalog query still parses and
// answers, but their value distributions deliberately break the uniformity
// the star-0-first heuristic implicitly assumes:
//
//   - GenerateBSBMZipf draws offer→product, offer→vendor, product→producer
//     and product→feature assignments from Zipfian distributions, so a few
//     head entities carry most of the predicate occurrences while the rare
//     country sits on tail vendors that hold almost no offers. A selective
//     vendor star therefore prunes far harder than the offer star the
//     heuristic leads with.
//   - GenerateBSBMSupernode plants one super-node product that is typed
//     with the *narrow* ProductType9 yet holds roughly half of all offers.
//     Any per-type uniformity assumption ("type9 ⇒ few offers") is then
//     wrong by an order of magnitude, which is exactly the misestimate the
//     mid-query re-plan hook exists to catch.

// rareCountryVendors is how many of the highest-index vendors the skewed
// generators pin to the rare country. Kept tiny so a country-constant star
// is genuinely selective.
const rareCountryVendors = 2

// rareCountry is the country the skewed generators keep rare ("IN", the
// last entry of bsbmCountries); the SK catalog queries filter on it.
var rareCountry = bsbmCountries[len(bsbmCountries)-1]

// BSBMZipf sizes the Zipf-skewed variant (same laptop scale as BSBMSmall,
// its own seed).
func BSBMZipf() BSBMConfig { return BSBMConfig{Products: 600, OffersPerProduct: 8, Seed: 11} }

// BSBMSupernode sizes the super-node variant.
func BSBMSupernode() BSBMConfig { return BSBMConfig{Products: 600, OffersPerProduct: 8, Seed: 12} }

// pickProductType draws a product type from the same skewed weights the
// base generator uses (ProductType1 broad, ProductType9 narrow).
func pickProductType(rng *rand.Rand) string {
	totalWeight := 0
	for _, tw := range productTypeWeights {
		totalWeight += tw.Weight
	}
	r := rng.Intn(totalWeight)
	for _, tw := range productTypeWeights {
		if r < tw.Weight {
			return tw.Type
		}
		r -= tw.Weight
	}
	return productTypeWeights[0].Type
}

// GenerateBSBMZipf builds the Zipf-skewed e-commerce graph. Entity counts
// match GenerateBSBM; only the assignment distributions differ. Product 0
// is forced to ProductType1 (so the head of the offer distribution sits in
// the broad type and the heuristic's offers⋈type1 intermediate is as large
// as possible) and product 1 to ProductType9 (so narrow-type queries stay
// non-empty). The two rare-country vendors receive a small deterministic
// tail of offers so country-selective queries return rows.
func GenerateBSBMZipf(cfg BSBMConfig) *rdf.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &rdf.Graph{}
	p := func(name string) rdf.Term { return rdf.NewIRI(BSBM + name) }

	numFeatures := cfg.Products/12 + 20
	numVendors := cfg.Products/40 + 8
	numProducers := cfg.Products/30 + 5

	// Country follows vendor rank: the Zipfian offer→vendor assignment
	// concentrates on low indexes, so the two highest-index vendors — the
	// ones that almost never win an offer — carry the rare country.
	vendors := make([]rdf.Term, numVendors)
	for i := range vendors {
		vendors[i] = rdf.NewIRI(fmt.Sprintf("%sVendor%d", BSBM, i))
		country := bsbmCountries[i%(len(bsbmCountries)-1)]
		if i >= numVendors-rareCountryVendors {
			country = rareCountry
		}
		g.Add(
			rdf.T(vendors[i], p("country"), rdf.NewLiteral(country)),
			rdf.T(vendors[i], p("label"), rdf.NewLiteral(fmt.Sprintf("vendor %d", i))),
		)
	}
	producers := make([]rdf.Term, numProducers)
	for i := range producers {
		producers[i] = rdf.NewIRI(fmt.Sprintf("%sProducer%d", BSBM, i))
		g.Add(rdf.T(producers[i], p("label"), rdf.NewLiteral(fmt.Sprintf("producer %d", i))))
	}

	productPick := rand.NewZipf(rng, 1.2, 1, uint64(cfg.Products-1))
	vendorPick := rand.NewZipf(rng, 1.4, 1, uint64(numVendors-1))
	featurePick := rand.NewZipf(rng, 1.2, 1, uint64(numFeatures-1))
	producerPick := rand.NewZipf(rng, 1.3, 1, uint64(numProducers-1))

	products := make([]rdf.Term, cfg.Products)
	for i := range products {
		products[i] = rdf.NewIRI(fmt.Sprintf("%sProduct%d", BSBM, i))
		ptype := pickProductType(rng)
		switch i {
		case 0:
			ptype = "ProductType1"
		case 1:
			ptype = "ProductType9"
		}
		g.Add(
			rdf.T(products[i], rdf.TypeTerm, p(ptype)),
			rdf.T(products[i], p("label"), rdf.NewLiteral(fmt.Sprintf("product %d", i))),
			rdf.T(products[i], p("producer"), producers[producerPick.Uint64()]),
		)
		nf := rng.Intn(7)
		seen := map[uint64]bool{}
		for f := 0; f < nf; f++ {
			fid := featurePick.Uint64()
			if seen[fid] {
				continue
			}
			seen[fid] = true
			g.Add(rdf.T(products[i], p("productFeature"), rdf.NewIRI(fmt.Sprintf("%sFeature%d", BSBM, fid))))
		}
	}

	offerID := 0
	addOffer := func(prod, vendor rdf.Term) {
		offer := rdf.NewIRI(fmt.Sprintf("%sOffer%d", BSBM, offerID))
		offerID++
		g.Add(
			rdf.T(offer, p("product"), prod),
			rdf.T(offer, p("price"), rdf.NewLiteral(fmt.Sprintf("%d", 10+rng.Intn(9990)))),
			rdf.T(offer, p("vendor"), vendor),
			rdf.T(offer, p("deliveryDays"), rdf.NewLiteral(fmt.Sprintf("%d", 1+rng.Intn(14)))),
		)
		if rng.Intn(3) > 0 {
			g.Add(rdf.T(offer, p("validTo"), rdf.NewLiteral(fmt.Sprintf("2008-%02d-01", 1+rng.Intn(12)))))
		}
	}
	totalOffers := cfg.Products * cfg.OffersPerProduct
	for o := 0; o < totalOffers; o++ {
		addOffer(products[productPick.Uint64()], vendors[vendorPick.Uint64()])
	}
	// Deterministic tail: each rare-country vendor sells a few offers on the
	// head products, keeping country-selective query results non-empty.
	for i := 0; i < rareCountryVendors; i++ {
		for k := 0; k < 3; k++ {
			addOffer(products[k], vendors[numVendors-1-i])
		}
	}
	return g
}

// GenerateBSBMSupernode builds the super-node e-commerce graph: product 0
// is typed ProductType9 (the narrow, "high selectivity" type) and holds as
// many offers as the rest of the catalog combined, plus an unusually wide
// feature set. Everything else matches GenerateBSBM's uniform shape, except
// that — as in the Zipf variant — the rare country sits on exactly two
// vendors.
func GenerateBSBMSupernode(cfg BSBMConfig) *rdf.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &rdf.Graph{}
	p := func(name string) rdf.Term { return rdf.NewIRI(BSBM + name) }

	numFeatures := cfg.Products/12 + 20
	numVendors := cfg.Products/40 + 8
	numProducers := cfg.Products/30 + 5

	vendors := make([]rdf.Term, numVendors)
	for i := range vendors {
		vendors[i] = rdf.NewIRI(fmt.Sprintf("%sVendor%d", BSBM, i))
		country := bsbmCountries[rng.Intn(len(bsbmCountries)-1)]
		if i >= numVendors-rareCountryVendors {
			country = rareCountry
		}
		g.Add(
			rdf.T(vendors[i], p("country"), rdf.NewLiteral(country)),
			rdf.T(vendors[i], p("label"), rdf.NewLiteral(fmt.Sprintf("vendor %d", i))),
		)
	}
	producers := make([]rdf.Term, numProducers)
	for i := range producers {
		producers[i] = rdf.NewIRI(fmt.Sprintf("%sProducer%d", BSBM, i))
		g.Add(rdf.T(producers[i], p("label"), rdf.NewLiteral(fmt.Sprintf("producer %d", i))))
	}

	offerID := 0
	addOffers := func(prod rdf.Term, n int) {
		for o := 0; o < n; o++ {
			offer := rdf.NewIRI(fmt.Sprintf("%sOffer%d", BSBM, offerID))
			offerID++
			g.Add(
				rdf.T(offer, p("product"), prod),
				rdf.T(offer, p("price"), rdf.NewLiteral(fmt.Sprintf("%d", 10+rng.Intn(9990)))),
				rdf.T(offer, p("vendor"), vendors[rng.Intn(numVendors)]),
				rdf.T(offer, p("deliveryDays"), rdf.NewLiteral(fmt.Sprintf("%d", 1+rng.Intn(14)))),
			)
			if rng.Intn(3) > 0 {
				g.Add(rdf.T(offer, p("validTo"), rdf.NewLiteral(fmt.Sprintf("2008-%02d-01", 1+rng.Intn(12)))))
			}
		}
	}

	for i := 0; i < cfg.Products; i++ {
		prod := rdf.NewIRI(fmt.Sprintf("%sProduct%d", BSBM, i))
		ptype := pickProductType(rng)
		if i == 0 {
			ptype = "ProductType9"
		}
		g.Add(
			rdf.T(prod, rdf.TypeTerm, p(ptype)),
			rdf.T(prod, p("label"), rdf.NewLiteral(fmt.Sprintf("product %d", i))),
			rdf.T(prod, p("producer"), producers[rng.Intn(numProducers)]),
		)
		if i == 0 {
			// The super-node is feature-rich on top of offer-rich: two dozen
			// distinct features versus the usual 0–6.
			for f := 0; f < 24 && f < numFeatures; f++ {
				g.Add(rdf.T(prod, p("productFeature"), rdf.NewIRI(fmt.Sprintf("%sFeature%d", BSBM, f))))
			}
			addOffers(prod, cfg.Products*cfg.OffersPerProduct)
			continue
		}
		nf := rng.Intn(7)
		seen := map[int]bool{}
		for f := 0; f < nf; f++ {
			fid := rng.Intn(numFeatures)
			if seen[fid] {
				continue
			}
			seen[fid] = true
			g.Add(rdf.T(prod, p("productFeature"), rdf.NewIRI(fmt.Sprintf("%sFeature%d", BSBM, fid))))
		}
		addOffers(prod, 1+rng.Intn(cfg.OffersPerProduct*2-1))
	}
	return g
}
