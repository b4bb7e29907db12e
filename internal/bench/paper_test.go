package bench

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this run")

// goldenPath holds the paper's tables and the per-cell ledger as the code
// last rendered them. Any move in simulated seconds, volumes, cycle counts
// or rows shows up as a diff of this file.
const goldenPath = "testdata/paper.golden"

// The paper's query groups (§5), each on its dataset deployments.
var (
	gBSBM    = []string{"G1", "G2", "G3", "G4"}
	gChem    = []string{"G5", "G6", "G7", "G8", "G9"}
	mgBSBM   = []string{"MG1", "MG2", "MG3", "MG4"}
	mgChem   = []string{"MG6", "MG7", "MG8", "MG9", "MG10"}
	mgPubMed = []string{"MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18"}
)

// paperPass is one oracle-verified run of every paper cell: each catalog
// query on each of its datasets through Engines(), then every ablation
// variant on MG1–MG4 and MGA on bsbm-500k.
type paperPass struct {
	catalog, ablation []RunResult
}

var (
	passOnce sync.Once
	pass     paperPass
	passErr  error
)

// sharedPass runs the paper pass on first use and hands every later caller
// the same results, so one `go test` runs each cell once.
func sharedPass(t *testing.T) paperPass {
	t.Helper()
	if testing.Short() {
		t.Skip("the paper pass is skipped in -short mode")
	}
	passOnce.Do(func() { pass, passErr = runPaperPass() })
	if passErr != nil {
		t.Fatal(passErr)
	}
	return pass
}

func runPaperPass() (paperPass, error) {
	var p paperPass
	h := NewHarness(true)
	for _, q := range Catalog {
		for _, dsID := range DatasetsFor(q) {
			rs, err := h.Run(q.ID, dsID, Engines())
			if err != nil {
				return p, err
			}
			p.catalog = append(p.catalog, rs...)
		}
	}
	for _, q := range append(slices.Clone(mgBSBM), "MGA") {
		rs, err := h.RunAblation(q, "bsbm-500k")
		if err != nil {
			return p, err
		}
		p.ablation = append(p.ablation, rs...)
	}
	return p, nil
}

// cells returns the catalog cells of the given queries on the given
// datasets, in pass order.
func (p paperPass) cells(queries []string, datasets ...string) []RunResult {
	var out []RunResult
	for _, r := range p.catalog {
		if slices.Contains(queries, r.Query) && slices.Contains(datasets, r.Dataset) {
			out = append(out, r)
		}
	}
	return out
}

// render prints the paper's tables from the pass, then the ledger.
func (p paperPass) render() string {
	return strings.Join([]string{
		RenderTable3BSBM(p.cells(gBSBM, "bsbm-500k"), p.cells(gBSBM, "bsbm-2m")),
		RenderTable3Chem(p.cells(gChem, "chem")),
		RenderFigure("Figure 8(a): MG1-MG4 on BSBM-500K (10 nodes)", mgBSBM, p.cells(mgBSBM, "bsbm-500k")),
		RenderFigure("Figure 8(b): MG1-MG4 on BSBM-2M (50 nodes)", mgBSBM, p.cells(mgBSBM, "bsbm-2m")),
		RenderFigure("Figure 8(c): MG6-MG10 on Chem2Bio2RDF (10 nodes)", mgChem, p.cells(mgChem, "chem")),
		RenderTable4(p.cells(mgPubMed, "pubmed")),
		RenderCycles(p.cells(slices.Concat(gBSBM, gChem, mgBSBM, mgChem, mgPubMed), "bsbm-500k", "chem", "pubmed")),
		RenderAblation(p.ablation),
		RenderLedger(slices.Concat(p.catalog, p.ablation)),
	}, "\n")
}

// lineDiff lists, by line number, the lines where got departs from want.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// TestFullCatalogAllEnginesVerified is the repository's heaviest
// correctness gate and the one producer of the paper's tables: every
// catalog query runs on its dataset(s) through all four engines, and the
// ablation variants on their queries; every result is compared against
// the in-memory oracle, and the rendered tables and ledger against
// testdata/paper.golden (-update rewrites it).
func TestFullCatalogAllEnginesVerified(t *testing.T) {
	p := sharedPass(t)
	for _, r := range slices.Concat(p.catalog, p.ablation) {
		if !r.Verified {
			t.Errorf("%s on %s via %s: not verified", r.Query, r.Dataset, r.Engine)
		}
		if r.Rows == 0 && !slices.Contains([]string{"G2", "G4", "MG2", "MG4"}, r.Query) {
			// hi-selectivity queries may legitimately match little,
			// everything else must produce rows.
			t.Errorf("%s on %s via %s: empty result", r.Query, r.Dataset, r.Engine)
		}
	}

	got := p.render()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if diff := lineDiff(string(want), got); diff != "" {
		t.Errorf("the paper's tables differ from %s (-update accepts this run):\n%s", goldenPath, diff)
	}
}

// TestMG13MaterializationBlowup asserts the paper's MG13 story in bytes:
// naive Hive materialises the multi-valued MeSH join twice, RAPIDAnalytics
// materialises the least of all four engines.
func TestMG13MaterializationBlowup(t *testing.T) {
	mat := map[string]int64{}
	for _, r := range sharedPass(t).cells([]string{"MG13"}, "pubmed") {
		mat[r.Engine] = r.MaterializedBytes
	}
	if !(mat["RAPIDAnalytics"] < mat["RAPID+ (Naive)"]) {
		t.Errorf("RAPIDAnalytics materialised %d >= RAPID+ %d", mat["RAPIDAnalytics"], mat["RAPID+ (Naive)"])
	}
	if !(mat["RAPIDAnalytics"]*2 < mat["Hive (Naive)"]) {
		t.Errorf("naive Hive should materialise >2x RAPIDAnalytics: %d vs %d", mat["Hive (Naive)"], mat["RAPIDAnalytics"])
	}
}

// TestRAPIDAnalyticsWinsOnMultiGrouping asserts the paper's headline
// ordering on the simulated cost of all 21 multi-grouping cells (MG1–MG4
// at both BSBM scales, MG6–MG10, MG11–MG18): Hive (Naive) > Hive (MQO) >
// RAPID+ (Naive) > RAPIDAnalytics.
func TestRAPIDAnalyticsWinsOnMultiGrouping(t *testing.T) {
	p := sharedPass(t)
	names := engineNames()
	for _, set := range []struct {
		queries []string
		dataset string
	}{
		{mgBSBM, "bsbm-500k"}, {mgBSBM, "bsbm-2m"}, {mgChem, "chem"}, {mgPubMed, "pubmed"},
	} {
		idx := indexResults(p.cells(set.queries, set.dataset))
		for _, q := range set.queries {
			for i := 1; i < len(names); i++ {
				slower, faster := idx[q+"|"+names[i-1]], idx[q+"|"+names[i]]
				if !(faster.SimSeconds < slower.SimSeconds) {
					t.Errorf("%s on %s: %s (%.1f s) not faster than %s (%.1f s)",
						q, set.dataset, names[i], faster.SimSeconds, names[i-1], slower.SimSeconds)
				}
			}
		}
	}
}

// The phase walls recorded by the harness must be populated for
// MapReduce-backed runs.
func TestHarnessRecordsPhaseWalls(t *testing.T) {
	rs := sharedPass(t).cells([]string{"MG1"}, "bsbm-500k")
	if len(rs) != len(Engines()) {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].MapWall <= 0 || rs[0].ReduceWall <= 0 {
		t.Errorf("phase walls not recorded: %+v", rs[0])
	}
}
