// Package engine defines the common contract the four evaluated systems
// implement — Hive (Naive), Hive (MQO), RAPID+ (Naive) and RAPIDAnalytics —
// plus the shared pieces every engine needs: datasets loaded into both
// physical layouts, result tables with canonical comparison, and the final
// map-only join of aggregated subquery results.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/store"
)

// Dataset is a graph loaded into the cluster's DFS in both physical
// layouts, mirroring the paper's pre-processing phase.
type Dataset struct {
	Name  string         // DFS path prefix of the dataset's files
	Graph *rdf.Graph     // the loaded graph, for the reference evaluator
	VP    *store.VPStore // vertically partitioned tables (the Hive engines)
	TG    *store.TGStore // subject triplegroups (the NTGA engines)
	// Dict is the dataset's term dictionary, always present: stored tables
	// and triplegroups hold compact integer term IDs (rdf.Dict ID-strings)
	// and engines decode back to lexical form only at the final
	// aggregation boundary.
	Dict *rdf.Dict
	// Stats is the load-time statistics catalog the cost-based planner
	// consumes (predicate counts, characteristic sets). Always collected by
	// Load; a hand-built Dataset may leave it nil, and engines then order
	// joins star-0-first.
	Stats *stats.Catalog
}

// Load materialises the graph into the cluster's file system under the
// dataset name, dictionary-encoding both physical layouts.
func Load(c *mapred.Cluster, name string, g *rdf.Graph) (*Dataset, error) {
	d := rdf.NewDict()
	vp, err := store.BuildVP(c.FS, g, name+"/vp", d)
	if err != nil {
		return nil, fmt.Errorf("engine: loading %s: %w", name, err)
	}
	tg, err := store.BuildTG(c.FS, g, name+"/tg", d)
	if err != nil {
		return nil, fmt.Errorf("engine: loading %s: %w", name, err)
	}
	return &Dataset{
		Name:  name,
		Graph: g,
		VP:    vp,
		TG:    tg,
		Dict:  d,
		Stats: stats.Collect(g),
	}, nil
}

// Engine evaluates analytical queries on a cluster.
type Engine interface {
	// Name identifies the engine in reports ("RAPIDAnalytics", ...).
	Name() string
	// Execute runs the query over the dataset and returns the result table
	// and the executed workflow's metrics.
	Execute(c *mapred.Cluster, ds *Dataset, q *algebra.AnalyticalQuery) (*Result, *mapred.WorkflowMetrics, error)
}

// Result is a query result table. Values are stored raw: grouping columns
// in rdf.Term.Key form, aggregate and expression columns in lexical form.
type Result struct {
	Columns []string      // column names in projection order
	Rows    []codec.Tuple // one tuple per result row
}

// Canonical returns the rows rendered as sorted strings, for set
// comparison between engines.
func (r *Result) Canonical() []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = strings.Join(row, "\x1f")
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two results have the same columns and the same
// multiset of rows.
func (r *Result) Equal(o *Result) bool {
	if len(r.Columns) != len(o.Columns) {
		return false
	}
	for i := range r.Columns {
		if r.Columns[i] != o.Columns[i] {
			return false
		}
	}
	a, b := r.Canonical(), o.Canonical()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff describes the first difference between two results, for test
// failure messages. Empty when equal.
func (r *Result) Diff(o *Result) string {
	if len(r.Columns) != len(o.Columns) {
		return fmt.Sprintf("column count %d vs %d", len(r.Columns), len(o.Columns))
	}
	a, b := r.Canonical(), o.Canonical()
	if len(a) != len(b) {
		return fmt.Sprintf("row count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("row %d:\n  %q\nvs\n  %q", i, strings.ReplaceAll(a[i], "\x1f", " | "), strings.ReplaceAll(b[i], "\x1f", " | "))
		}
	}
	return ""
}

// Pretty renders the result as an aligned text table with term keys
// stripped to their lexical forms.
func (r *Result) Pretty() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = Display(v)
			if j < len(widths) && len(cells[j]) > widths[j] {
				widths[j] = len(cells[j])
			}
		}
		rows[i] = cells
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for j, c := range cells {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for k := len(c); k < widths[j]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Display strips the term-key tag from a value for human consumption.
func Display(v string) string {
	if algebra.IsNull(v) {
		return "NULL"
	}
	if len(v) > 0 && (v[0] == 'I' || v[0] == 'L' || v[0] == 'B') {
		// Term keys always carry a tag; lexical aggregate values never
		// start with I/L/B followed by content that came from Term.Key.
		// Only strip when the remainder looks like a term (IRIs contain
		// '/' or ':'; literals are stripped unconditionally for 'L').
		if v[0] == 'L' || v[0] == 'B' || strings.ContainsAny(v[1:], "/:#") {
			return v[1:]
		}
	}
	return v
}

// ReadResult loads a DFS file of codec.Tuple records as a result table.
func ReadResult(fs *dfs.FS, file string, columns []string) (*Result, error) {
	f, err := fs.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &Result{Columns: columns}
	it := f.Records(0)
	for it.Next() {
		t, err := codec.DecodeTuple(it.Record())
		if err != nil {
			return nil, fmt.Errorf("engine: reading %s: %w", file, err)
		}
		res.Rows = append(res.Rows, t)
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("engine: reading %s: %w", file, err)
	}
	return res, nil
}
