package engine

import (
	"bytes"
	"sort"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
)

// ORDER BY / LIMIT need a total order over the final result. As in Hive,
// this costs one extra MapReduce cycle with a single reducer: every row
// shuffles to one partition, which sorts and truncates.

// SortJob builds the total-order cycle over the final result file. The
// input's rows must be codec.Tuples in aq.OutputColumns order.
func SortJob(aq *algebra.AnalyticalQuery, input, output string) *mapred.Job {
	return &mapred.Job{
		Name:           "order-by",
		Inputs:         []string{input},
		Output:         output,
		Partitions:     1,
		MapOperator:    "identity",
		ReduceOperator: "order-by",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				emit("", rec)
				return nil
			})
		},
		NewReducer: func() mapred.Reducer {
			keys := OrderKeys(aq)
			return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
				var fields codec.Tuple
				ends := make([]int, len(values))
				for i, v := range values {
					var err error
					if fields, err = codec.AppendDecodeTuple(fields, v); err != nil {
						return err
					}
					ends[i] = len(fields)
				}
				rows := splitRows(fields, ends)
				idx := make([]int, len(rows))
				for i := range idx {
					idx[i] = i
				}
				sort.SliceStable(idx, func(a, b int) bool {
					return CompareRows(rows[idx[a]], rows[idx[b]], keys, values[idx[a]], values[idx[b]]) < 0
				})
				limit := len(idx)
				if aq.Limit > 0 && aq.Limit < limit {
					limit = aq.Limit
				}
				for _, i := range idx[:limit] {
					emit("", values[i])
				}
				return nil
			})
		},
	}
}

// CompareRows orders two result rows by ORDER BY keys resolved once per
// sort (OrderKeys), with the full encoded row as a deterministic tiebreaker
// (so LIMIT selects the same rows in every engine and in the oracle).
func CompareRows(a, b codec.Tuple, keys []OrderKey, rawA, rawB []byte) int {
	for _, k := range keys {
		if k.Col < 0 || k.Col >= len(a) || k.Col >= len(b) {
			continue
		}
		c := algebra.CompareValues(a[k.Col], b[k.Col], k.Key)
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return bytes.Compare(rawA, rawB)
}

// OrderKey is one ORDER BY key resolved to a result column.
type OrderKey struct {
	Col  int  // the key's column in aq.OutputColumns, -1 when absent
	Desc bool // descending
	Key  bool // the column holds term keys (Result.Keys)
}

// OrderKeys resolves the query's ORDER BY keys against its output columns.
func OrderKeys(aq *algebra.AnalyticalQuery) []OrderKey {
	cols := aq.OutputColumns()
	keys := keyColumns(aq)
	out := make([]OrderKey, 0, len(aq.OrderBy))
	for _, k := range aq.OrderBy {
		p := OrderKey{Col: -1, Desc: k.Desc}
		for i, c := range cols {
			if c == k.Var {
				p.Col, p.Key = i, keys[i]
				break
			}
		}
		out = append(out, p)
	}
	return out
}
