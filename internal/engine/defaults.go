package engine

import (
	"fmt"
	"slices"
	"strconv"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
)

// The aggregation cycles leave their rows in one of two layouts: one file
// per subquery, file i holding subquery i's rows [group values...,
// finals...]; or, when every grouping ran in one generalised TG_AgJ cycle
// (Figure 6b), one file of all subqueries' rows, each led by its subquery
// index. The finish path tells them apart by count — fewer files than
// subqueries means the tagged file — and treats them alike from there.

// tagged reports whether files hold the subqueries' rows in the one-file,
// tagged layout.
func tagged(aq *algebra.AnalyticalQuery, files []string) bool {
	return len(files) < len(aq.Subqueries)
}

// rowSubquery returns the subquery a row of file fi belongs to and the
// row's fields past its tag; false for a tagged row without a valid tag.
func rowSubquery(t codec.Tuple, fi int, isTagged bool) (int, codec.Tuple, bool) {
	if !isTagged {
		return fi, t, true
	}
	if len(t) == 0 {
		return 0, nil, false
	}
	id, err := strconv.Atoi(t[0])
	return id, t[1:], err == nil
}

// groupByAllIn returns the GROUP BY ALL subqueries whose rows file fi
// holds.
func groupByAllIn(aq *algebra.AnalyticalQuery, fi int, isTagged bool) []int {
	var out []int
	for i, sq := range aq.Subqueries {
		if (isTagged || i == fi) && sq.GroupByAll() {
			out = append(out, i)
		}
	}
	return out
}

// GROUP BY ALL subqueries always produce exactly one group, even over an
// empty match set (SPARQL aggregates without GROUP BY); a MapReduce
// grouping job over zero rows, however, produces no row. Before the final
// join, engines repair such files with the aggregates' default values — the
// paper's "aggregated triplegroup retains default values" (Figure 5,
// agtg3). This is a metadata fix-up, not an extra cycle: a real system
// would emit the default row from the job client.

// EnsureDefaultRows appends a default row for every GROUP BY ALL subquery
// with no row in files, in either layout.
func EnsureDefaultRows(fs *dfs.FS, files []string, aq *algebra.AnalyticalQuery) error {
	isTagged := tagged(aq, files)
	for fi, name := range files {
		subs := groupByAllIn(aq, fi, isTagged)
		if len(subs) == 0 {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			return err
		}
		present := map[int]bool{}
		var t codec.Tuple
		it := f.Records(0)
		for it.Next() {
			// A row that does not decode cannot vouch for its group.
			if t, err = codec.AppendDecodeTuple(t[:0], it.Record()); err != nil {
				f.Close()
				return fmt.Errorf("engine: reading %s: %w", name, err)
			}
			if id, _, ok := rowSubquery(t, fi, isTagged); ok {
				present[id] = true
			}
		}
		if err := it.Err(); err != nil {
			f.Close()
			return err
		}
		var defaults [][]byte
		for _, i := range subs {
			if present[i] {
				continue
			}
			row := codec.Tuple(algebra.NewMultiAggState(aq.Subqueries[i].Aggs).Finals())
			if isTagged {
				row = append(codec.Tuple{strconv.Itoa(i)}, row...)
			}
			defaults = append(defaults, row.Encode())
		}
		if len(defaults) == 0 {
			f.Close()
			continue
		}
		if err := rewrite(fs, name, f, nil, defaults); err != nil {
			return err
		}
	}
	return nil
}

// ApplyGroupByAllHaving filters GROUP BY ALL subquery rows by their HAVING
// constraints. It runs after EnsureDefaultRows: the single group always
// exists first (possibly with default values) and is then subjected to
// HAVING, matching SPARQL semantics. Grouped subqueries apply HAVING inside
// their aggregation reducers instead (algebra.Subquery.GroupedHaving).
func ApplyGroupByAllHaving(fs *dfs.FS, files []string, aq *algebra.AnalyticalQuery) error {
	isTagged := tagged(aq, files)
	for fi, name := range files {
		if !slices.ContainsFunc(groupByAllIn(aq, fi, isTagged), func(i int) bool { return len(aq.Subqueries[i].Having) > 0 }) {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			return err
		}
		err = rewrite(fs, name, f, func(rec []byte) bool {
			t, err := codec.DecodeTuple(rec)
			if err != nil {
				return true
			}
			id, row, ok := rowSubquery(t, fi, isTagged)
			if !ok || id < 0 || id >= len(aq.Subqueries) {
				return true
			}
			sq := aq.Subqueries[id]
			return !sq.GroupByAll() || sq.HavingPassed(row)
		}, nil)
		if err != nil {
			return err
		}
	}
	return nil
}

// rewrite replaces name with the records of snapshot f that keep accepts
// (every record, when keep is nil) followed by extra, preserving the file's
// compression ratio — the read-modify-write the mem backend once allowed in
// place. It closes f.
func rewrite(fs *dfs.FS, name string, f *dfs.File, keep func(rec []byte) bool, extra [][]byte) error {
	defer f.Close()
	w, err := fs.Create(name, f.CompressionRatio())
	if err != nil {
		return err
	}
	it := f.Records(0)
	for it.Next() {
		if keep == nil || keep(it.Record()) {
			w.Write(it.Record())
		}
	}
	if err := it.Err(); err != nil {
		w.Close()
		return err
	}
	for _, rec := range extra {
		w.Write(rec)
	}
	return w.Close()
}
