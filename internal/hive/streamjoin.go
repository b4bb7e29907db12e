package hive

import (
	"fmt"

	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
)

// symJoinReducer is the streaming (symmetric) hash-join reducer behind
// joinJob: it makes a single pass over a key group's values, pairing each
// arriving left row with every right row seen so far and vice versa, so
// joined rows are emitted as soon as their later side arrives instead of
// after the whole group is buffered. Each (l, r) pair is emitted exactly
// once — at whichever element arrives later — and the pass is
// deterministic given the group's value order, which the shuffle fixes.
// Emission order differs from the buffered left-major nested loop, but
// downstream consumers are order-insensitive: aggregation groups by key
// and result comparison is multiset-based (engine.Result.Canonical).
//
// Star joins keep the buffered formulation: their left-outer
// NULL-extension (OPTIONAL edges) needs to know a side matched nothing,
// which requires the whole group.
func symJoinReducer(left, right *rel, leftCol, rightCol string, keep map[string]bool) mapred.Reducer {
	return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
		var ls, rs []codec.Tuple
		for _, v := range values {
			if len(v) < 1 {
				return fmt.Errorf("hive: join value missing side tag")
			}
			t, err := left.decode(v[1:])
			if err != nil {
				return err
			}
			if v[0] == 0 {
				for _, rr := range rs {
					emit("", mergeJoinRow(left, right, leftCol, rightCol, keep, t, rr).EncodeIDs())
				}
				ls = append(ls, t)
			} else {
				for _, l := range ls {
					emit("", mergeJoinRow(left, right, leftCol, rightCol, keep, l, t).EncodeIDs())
				}
				rs = append(rs, t)
			}
		}
		return nil
	})
}
