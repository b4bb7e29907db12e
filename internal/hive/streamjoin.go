package hive

import (
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
type symJoinReducer struct {
	plan   *joinPlan
	arena  tupleArena
	ls, rs []codec.Tuple
	out    codec.Tuple
	buf    []byte
}

//rapid:hot
func (r *symJoinReducer) Reduce(key string, values [][]byte, emit mapred.Emit) error {
	r.arena.reset()
	r.ls, r.rs = r.ls[:0], r.rs[:0]
	for _, v := range values {
		if len(v) < 1 {
			return errUntagged
		}
		t, err := r.arena.decode(v[1:], r.plan.left.dict)
		if err != nil {
			return err
		}
		if v[0] == 0 {
			for _, rr := range r.rs {
				r.emitJoined(t, rr, emit)
			}
			r.ls = append(r.ls, t)
		} else {
			for _, l := range r.ls {
				r.emitJoined(l, t, emit)
			}
			r.rs = append(r.rs, t)
		}
	}
	return nil
}

// emitJoined encodes one joined row into the reducer's reused buffer.
//
//rapid:hot
func (r *symJoinReducer) emitJoined(l, rr codec.Tuple, emit mapred.Emit) {
	r.out = r.plan.appendRow(r.out[:0], l, rr)
	r.buf = r.out.AppendEncodeIDs(r.buf[:0])
	emit("", r.buf)
}
