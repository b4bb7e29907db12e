package engine

import (
	"fmt"
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

// RepairGroupByAll gives every GROUP BY ALL subquery its one group in
// files, in either layout, and then subjects that group to the
// subquery's HAVING, matching SPARQL semantics: the single group always
// exists first (possibly with default values). Grouped subqueries apply
// HAVING inside their aggregation reducers instead
// (algebra.Subquery.GroupedHaving).
//
// Each file holding a GROUP BY ALL subquery's rows is read once: the scan
// keeps the rows that pass their HAVING and notes which subqueries have a
// row, and a row that does not decode, which cannot vouch for its group,
// fails the repair. The file is rewritten in the DFS's in-memory registry,
// where every job output lives, the kept rows followed by the missing
// default rows that pass HAVING, only when that changes it.
func RepairGroupByAll(fs *dfs.FS, files []string, aq *algebra.AnalyticalQuery) error {
	isTagged := tagged(aq, files)
	for fi, name := range files {
		subs := groupByAllIn(aq, fi, isTagged)
		if len(subs) == 0 {
			continue
		}
		if err := repairFile(fs, name, fi, isTagged, subs, aq); err != nil {
			return err
		}
	}
	return nil
}

// repairFile repairs file fi, which holds the rows of the GROUP BY ALL
// subqueries subs.
func repairFile(fs *dfs.FS, name string, fi int, isTagged bool, subs []int, aq *algebra.AnalyticalQuery) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	// The kept records, back to back: record r is data[ends[r-1]:ends[r]].
	data, ends := make([]byte, 0, f.Bytes()), make([]int, 0, f.NumRecords())
	present := map[int]bool{}
	var t codec.Tuple
	it := f.Records(0)
	for it.Next() {
		rec := it.Record()
		if t, err = codec.AppendDecodeTuple(t[:0], rec); err != nil {
			return fmt.Errorf("engine: reading %s: %w", name, err)
		}
		id, row, ok := rowSubquery(t, fi, isTagged)
		if ok {
			present[id] = true
		}
		if ok && id >= 0 && id < len(aq.Subqueries) && aq.Subqueries[id].GroupByAll() && !aq.Subqueries[id].HavingPassed(row) {
			continue
		}
		data = append(data, rec...)
		ends = append(ends, len(data))
	}
	if err := it.Err(); err != nil {
		return err
	}
	var defaults [][]byte
	for _, i := range subs {
		if present[i] {
			continue
		}
		finals := algebra.NewMultiAggState(aq.Subqueries[i].Aggs).Finals()
		if !aq.Subqueries[i].HavingPassed(finals) {
			continue
		}
		row := codec.Tuple(finals)
		if isTagged {
			row = append(codec.Tuple{strconv.Itoa(i)}, row...)
		}
		defaults = append(defaults, row.Encode())
	}
	if len(ends) == f.NumRecords() && len(defaults) == 0 {
		return nil
	}
	w, err := fs.CreateStream(name, f.CompressionRatio())
	if err != nil {
		return err
	}
	start := 0
	for _, end := range ends {
		w.Write(data[start:end])
		start = end
	}
	for _, rec := range defaults {
		w.Write(rec)
	}
	return w.Close()
}
