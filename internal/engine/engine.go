// Package engine defines the common contract the four evaluated systems
// implement — Hive (Naive), Hive (MQO), RAPID+ (Naive) and RAPIDAnalytics —
// plus the shared pieces every engine needs: datasets loaded into both
// physical layouts, result tables with canonical comparison, and the final
// map-only join of aggregated subquery results.
package engine

import (
	"fmt"
	"slices"
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
	Name string         // DFS path prefix of the dataset's files
	VP   *store.VPStore // vertically partitioned tables (the Hive engines)
	TG   *store.TGStore // subject triplegroups (the NTGA engines)
	// Dict is the dataset's term dictionary, always present: stored tables
	// and triplegroups hold compact integer term IDs (rdf.Dict ID-strings)
	// and engines decode back to lexical form only at the final
	// aggregation boundary.
	Dict *rdf.Dict
	// Stats is the load-time statistics catalog the cost-based planner
	// consumes (predicate counts, characteristic sets). Always set: Load,
	// the only constructor of a Dataset, collects it.
	Stats *stats.Catalog
}

// Load materialises the interned graph into the cluster's file system
// under the dataset name, in both physical layouts, and collects its
// statistics catalog. The dataset keeps no lexical copy of the graph: it
// reads terms through ig.Dict, which a store shares with every load.
func Load(c *mapred.Cluster, name string, ig *rdf.IDGraph) (*Dataset, error) {
	vp, err := store.WriteVP(c.FS, ig, name+"/vp")
	if err != nil {
		return nil, fmt.Errorf("engine: loading %s: %w", name, err)
	}
	tg, err := store.WriteTG(c.FS, ig, name+"/tg")
	if err != nil {
		return nil, fmt.Errorf("engine: loading %s: %w", name, err)
	}
	return &Dataset{
		Name:  name,
		VP:    vp,
		TG:    tg,
		Dict:  ig.Dict,
		Stats: stats.Compute(ig),
	}, nil
}

// Engine plans analytical queries for a cluster; Execute runs the plans.
type Engine interface {
	// Name identifies the engine in reports ("RAPIDAnalytics", ...).
	Name() string
	// Plan returns the query's stages over the dataset. It runs no job
	// and writes nothing to the DFS.
	Plan(c *mapred.Cluster, ds *Dataset, q *algebra.AnalyticalQuery) (*Plan, error)
}

// Result is a query result table. Values are stored raw: grouping columns
// in rdf.Term.Key form, aggregate and expression columns in lexical form.
type Result struct {
	Columns []string      // column names in projection order
	Keys    []bool        // per column: its values are rdf.Term.Key values
	Rows    []codec.Tuple // one tuple per result row
}

// NewResult returns the query's empty result table (keyColumns).
func NewResult(aq *algebra.AnalyticalQuery) *Result {
	return &Result{Columns: aq.OutputColumns(), Keys: keyColumns(aq)}
}

// keyColumns says, per projected column, whether it holds term keys: it
// does when it is some subquery's grouping variable.
func keyColumns(aq *algebra.AnalyticalQuery) []bool {
	keys := make([]bool, len(aq.Projection))
	for i, pi := range aq.Projection {
		keys[i] = pi.Expr == nil && slices.ContainsFunc(aq.Subqueries, func(sq *algebra.Subquery) bool {
			return slices.Contains(sq.GroupBy, pi.Var)
		})
	}
	return keys
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
func (r *Result) Equal(o *Result) bool { return r.Diff(o) == "" }

// Diff describes the first difference between two results, for test
// failure messages. Empty when equal.
func (r *Result) Diff(o *Result) string {
	if !slices.Equal(r.Columns, o.Columns) {
		return fmt.Sprintf("columns %q vs %q", r.Columns, o.Columns)
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
			cells[j] = r.Display(j, v)
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

// Display renders value v of column j for human consumption: NULL as
// "NULL", a term key (Keys[j]) without its tag, and a lexical value as it
// is.
func (r *Result) Display(j int, v string) string {
	switch {
	case algebra.IsNull(v):
		return "NULL"
	case j < len(r.Keys) && r.Keys[j]:
		return rdf.KeyLex(v)
	}
	return v
}

// ReadResult loads a DFS file of codec.Tuple records as the query's result
// table (NewResult). The file's fields decode into one flat slice, and
// each row is a capped sub-slice of it.
func ReadResult(fs *dfs.FS, file string, aq *algebra.AnalyticalQuery) (*Result, error) {
	f, err := fs.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := NewResult(aq)
	// Rows are as wide as the columns, so the flat slice is sized once.
	fields := make(codec.Tuple, 0, f.NumRecords()*len(res.Columns))
	ends := make([]int, 0, f.NumRecords())
	it := f.Records(0)
	for it.Next() {
		if fields, err = codec.AppendDecodeTuple(fields, it.Record()); err != nil {
			return nil, fmt.Errorf("engine: reading %s: %w", file, err)
		}
		ends = append(ends, len(fields))
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("engine: reading %s: %w", file, err)
	}
	res.Rows = splitRows(fields, ends)
	return res, nil
}

// splitRows cuts a flat field slice into rows, row i ending at ends[i];
// each row is capped, so appending to one cannot overwrite the next. No
// rows is nil.
func splitRows(fields codec.Tuple, ends []int) []codec.Tuple {
	if len(ends) == 0 {
		return nil
	}
	rows := make([]codec.Tuple, len(ends))
	start := 0
	for i, end := range ends {
		rows[i] = fields[start:end:end]
		start = end
	}
	return rows
}
