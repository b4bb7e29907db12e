package bench

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

// Paper-reported execution times in seconds, used to print "paper vs
// measured" comparisons. Values come from Table 3 and Table 4 of the
// paper; the figures (8a–8c) are bar charts, so only the relative gains
// quoted in §5.2 are recorded for them.

// paperTable3BSBM maps query -> [Hive, RAPIDAnalytics] for the two BSBM
// scales.
var paperTable3BSBM = map[string]map[string][2]float64{
	"bsbm-500k": {
		"G1": {1023, 209}, "G2": {974, 182}, "G3": {1632, 287}, "G4": {1112, 183},
	},
	"bsbm-2m": {
		"G1": {3261, 215}, "G2": {3002, 158}, "G3": {6088, 302}, "G4": {5419, 170},
	},
}

// paperTable3Chem maps query -> [Hive, RAPIDAnalytics].
var paperTable3Chem = map[string][2]float64{
	"G5": {144, 124}, "G6": {99, 102}, "G7": {105, 118}, "G8": {142, 104}, "G9": {535, 91},
}

// paperTable4 maps query -> [Hive Naive, Hive MQO, RAPID+, RAPIDAnalytics].
// Hive (Naive) on MG13 eventually failed on HDFS space; the paper reports
// ">120min".
var paperTable4 = map[string][4]float64{
	"MG11": {2111, 1753, 229, 124},
	"MG12": {2771, 2898, 229, 126},
	"MG13": {7200, 15060, 1102, 651},
	"MG14": {18713, 9124, 756, 462},
	"MG15": {13746, 7320, 619, 338},
	"MG16": {10777, 5795, 464, 237},
	"MG17": {2210, 1851, 226, 118},
	"MG18": {5654, 4817, 306, 202},
}

// engineNames returns the display names of Engines() in presentation
// order.
func engineNames() []string {
	names := make([]string, 0, 4)
	for _, e := range Engines() {
		names = append(names, e.Name())
	}
	return names
}

// formatTable renders an aligned table: each column is as wide as its
// widest cell, counted in runes, columns sit two spaces apart, and the
// last cell of a line is not padded.
func formatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for _, r := range append([][]string{headers}, rows...) {
		for i, c := range r {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)+2))
			}
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func secs(v float64) string { return fmt.Sprintf("%.0f", v) }

// indexResults keys results by query+engine.
func indexResults(rs []RunResult) map[string]RunResult {
	m := map[string]RunResult{}
	for _, r := range rs {
		m[r.Query+"|"+r.Engine] = r
	}
	return m
}

// RenderTable3BSBM renders the left half of Table 3: G1–G4 on both BSBM
// scales, Hive vs RAPIDAnalytics, paper seconds alongside simulated
// seconds.
func RenderTable3BSBM(res500k, res2m []RunResult) string {
	i5, i2 := indexResults(res500k), indexResults(res2m)
	var rows [][]string
	for _, q := range []string{"G1", "G2", "G3", "G4"} {
		h5 := i5[q+"|Hive (Naive)"]
		r5 := i5[q+"|RAPIDAnalytics"]
		h2 := i2[q+"|Hive (Naive)"]
		r2 := i2[q+"|RAPIDAnalytics"]
		p5 := paperTable3BSBM["bsbm-500k"][q]
		p2 := paperTable3BSBM["bsbm-2m"][q]
		rows = append(rows, []string{
			q,
			secs(p5[0]), secs(h5.SimSeconds),
			secs(p5[1]), secs(r5.SimSeconds),
			secs(p2[0]), secs(h2.SimSeconds),
			secs(p2[1]), secs(r2.SimSeconds),
		})
	}
	return "Table 3 (BSBM): Hive vs RAPIDAnalytics, seconds (paper | simulated)\n" +
		formatTable([]string{
			"Query",
			"500K Hive(p)", "500K Hive(m)",
			"500K R.A.(p)", "500K R.A.(m)",
			"2M Hive(p)", "2M Hive(m)",
			"2M R.A.(p)", "2M R.A.(m)",
		}, rows)
}

// RenderTable3Chem renders the right half of Table 3: G5–G9 on
// Chem2Bio2RDF.
func RenderTable3Chem(res []RunResult) string {
	idx := indexResults(res)
	var rows [][]string
	for _, q := range []string{"G5", "G6", "G7", "G8", "G9"} {
		h := idx[q+"|Hive (Naive)"]
		r := idx[q+"|RAPIDAnalytics"]
		p := paperTable3Chem[q]
		rows = append(rows, []string{
			q, secs(p[0]), secs(h.SimSeconds), secs(p[1]), secs(r.SimSeconds),
		})
	}
	return "Table 3 (Chem2Bio2RDF): Hive vs RAPIDAnalytics, seconds (paper | simulated)\n" +
		formatTable([]string{"Query", "Hive(p)", "Hive(m)", "R.A.(p)", "R.A.(m)"}, rows)
}

// RenderFigure renders a Figure 8-style comparison: per query, all four
// engines' simulated seconds plus each engine's speedup over Hive (Naive).
func RenderFigure(title string, queryIDs []string, res []RunResult) string {
	idx := indexResults(res)
	headers := []string{"Query"}
	for _, n := range engineNames() {
		headers = append(headers, n, "×")
	}
	var rows [][]string
	for _, q := range queryIDs {
		base := idx[q+"|Hive (Naive)"].SimSeconds
		row := []string{q}
		for _, n := range engineNames() {
			r := idx[q+"|"+n]
			speedup := "-"
			if r.SimSeconds > 0 {
				speedup = fmt.Sprintf("%.1f", base/r.SimSeconds)
			}
			row = append(row, secs(r.SimSeconds), speedup)
		}
		rows = append(rows, row)
	}
	return title + " — simulated seconds and speedup over Hive (Naive)\n" +
		formatTable(headers, rows)
}

// RenderTable4 renders Table 4: MG11–MG18 on PubMed across all four
// engines, paper seconds alongside simulated seconds.
func RenderTable4(res []RunResult) string {
	idx := indexResults(res)
	var rows [][]string
	for _, q := range []string{"MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18"} {
		p := paperTable4[q]
		row := []string{q}
		for i, n := range engineNames() {
			r := idx[q+"|"+n]
			row = append(row, secs(p[i]), secs(r.SimSeconds))
		}
		rows = append(rows, row)
	}
	return "Table 4 (PubMed): execution seconds (paper | simulated)\n" +
		formatTable([]string{
			"Query",
			"Hive(p)", "Hive(m)",
			"MQO(p)", "MQO(m)",
			"RAPID+(p)", "RAPID+(m)",
			"R.A.(p)", "R.A.(m)",
		}, rows) +
		"* paper's Hive (Naive) MG13 failed after >120min (HDFS space); 7200 is a floor.\n"
}

// RenderCycles renders the MR-cycle counts per engine, the §5.2 plan-shape
// verification, one row per query in the order the results first name it.
func RenderCycles(res []RunResult) string {
	idx := indexResults(res)
	var qs []string
	for _, r := range res {
		if len(qs) == 0 || qs[len(qs)-1] != r.Query {
			qs = append(qs, r.Query)
		}
	}
	headers := append([]string{"Query"}, engineNames()...)
	var rows [][]string
	for _, q := range qs {
		row := []string{q}
		for _, n := range engineNames() {
			r := idx[q+"|"+n]
			row = append(row, fmt.Sprintf("%d (%d map-only)", r.Cycles, r.MapOnlyCycles))
		}
		rows = append(rows, row)
	}
	return "MR cycles per engine (map-only cycles in parentheses)\n" + formatTable(headers, rows)
}

// RenderAblation renders the RAPIDAnalytics option ablation.
func RenderAblation(res []RunResult) string {
	headers := []string{"Query", "Variant", "Cycles", "SimSecs", "Shuffle B", "Materialized B"}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{
			r.Query, r.Engine,
			fmt.Sprintf("%d", r.Cycles),
			secs(r.SimSeconds),
			fmt.Sprintf("%d", r.ShuffleBytes),
			fmt.Sprintf("%d", r.MaterializedBytes),
		})
	}
	return "RAPIDAnalytics ablations (Fig 6a vs 6b, α filter, hash pre-aggregation)\n" +
		formatTable(headers, rows)
}

// RenderLedger renders one line per cell with what the tables round away:
// simulated seconds to 0.1 s, both measured volumes and the row count.
func RenderLedger(res []RunResult) string {
	headers := []string{"Query", "Dataset", "Engine", "Cycles/map-only", "SimSecs", "Shuffle B", "Materialized B", "Rows"}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{
			r.Query, r.Dataset, r.Engine,
			fmt.Sprintf("%d/%d", r.Cycles, r.MapOnlyCycles),
			fmt.Sprintf("%.1f", r.SimSeconds),
			fmt.Sprintf("%d", r.ShuffleBytes),
			fmt.Sprintf("%d", r.MaterializedBytes),
			fmt.Sprintf("%d", r.Rows),
		})
	}
	return "Ledger: every cell (simulated seconds to 0.1 s, measured volumes, result rows)\n" +
		formatTable(headers, rows)
}

// A multi-byte cell is as wide as its runes, and no line ends in padding.
func TestFormatTableAlignsRunesAndTrimsLastCell(t *testing.T) {
	got := formatTable([]string{"Variant", "Cycles"}, [][]string{
		{"RA (no α filter)", "3"},
		{"RA (plain)", "12"},
	})
	want := "Variant           Cycles\n" +
		"----------------  ------\n" +
		"RA (no α filter)  3\n" +
		"RA (plain)        12\n"
	if got != want {
		t.Errorf("formatTable:\n%s\nwant:\n%s", got, want)
	}
}
