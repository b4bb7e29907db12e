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
			return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
				rows := make([]codec.Tuple, 0, len(values))
				raws := make([][]byte, 0, len(values))
				for _, v := range values {
					t, err := codec.DecodeTuple(v)
					if err != nil {
						return err
					}
					rows = append(rows, t)
					raws = append(raws, v)
				}
				idx := make([]int, len(rows))
				for i := range idx {
					idx[i] = i
				}
				sort.SliceStable(idx, func(a, b int) bool {
					return CompareRows(rows[idx[a]], rows[idx[b]], aq, raws[idx[a]], raws[idx[b]]) < 0
				})
				limit := len(idx)
				if aq.Limit > 0 && aq.Limit < limit {
					limit = aq.Limit
				}
				for _, i := range idx[:limit] {
					emit("", raws[i])
				}
				return nil
			})
		},
	}
}

// CompareRows orders two result rows by the query's ORDER BY keys, with the
// full encoded row as a deterministic tiebreaker (so LIMIT selects the same
// rows in every engine and in the oracle).
func CompareRows(a, b codec.Tuple, aq *algebra.AnalyticalQuery, rawA, rawB []byte) int {
	for _, pos := range orderKeyPositions(aq) {
		if pos.col < 0 || pos.col >= len(a) || pos.col >= len(b) {
			continue
		}
		c := algebra.CompareValues(a[pos.col], b[pos.col])
		if pos.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return bytes.Compare(rawA, rawB)
}

type orderPos struct {
	col  int
	desc bool
}

func orderKeyPositions(aq *algebra.AnalyticalQuery) []orderPos {
	cols := aq.OutputColumns()
	out := make([]orderPos, 0, len(aq.OrderBy))
	for _, k := range aq.OrderBy {
		p := orderPos{col: -1, desc: k.Desc}
		for i, c := range cols {
			if c == k.Var {
				p.col = i
				break
			}
		}
		out = append(out, p)
	}
	return out
}
