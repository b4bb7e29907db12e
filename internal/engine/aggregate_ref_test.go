package engine

import (
	"bytes"
	"fmt"
	"strconv"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
)

// The two aggregation mergers the shared one replaced, kept verbatim in
// behaviour as the equivalence references of TestAggMergerMatchesReferences:
// Hive's group-by merger (one resident state, untagged keys only) and the
// TG_AgJ merger (a fresh state per key, tagged or untagged keys, specs
// looked up by ID).

// refHiveMerger is the Hive group-by combiner (final false) and reducer.
type refHiveMerger struct {
	acc    *algebra.MultiAggState
	final  bool
	having func([]string) bool
	dict   *rdf.Dict
	row    codec.Tuple
	buf    []byte
}

func newRefHiveMerger(aggs []algebra.AggSpec, final bool, having func([]string) bool, d *rdf.Dict) *refHiveMerger {
	return &refHiveMerger{acc: algebra.NewMultiAggState(aggs), final: final, having: having, dict: d}
}

func (m *refHiveMerger) Reduce(key string, values [][]byte, emit mapred.Emit) error {
	m.acc.Reset()
	for _, v := range values {
		if err := m.acc.MergeBytes(v); err != nil {
			return err
		}
	}
	if !m.final {
		m.buf = m.acc.AppendEncode(m.buf[:0])
		emit(key, bytes.Clone(m.buf))
		return nil
	}
	finals := m.acc.Finals()
	if m.having != nil && !m.having(finals) {
		return nil
	}
	row, err := refHiveGroupKey(m.row[:0], m.dict, key)
	if err != nil {
		return err
	}
	m.row = append(row, finals...)
	m.buf = m.row.AppendEncode(m.buf[:0])
	emit("", m.buf)
	return nil
}

func refHiveGroupKey(dst codec.Tuple, d *rdf.Dict, key string) (codec.Tuple, error) {
	buf := []byte(key)
	for len(buf) > 0 {
		id, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("hive: group key: %w", err)
		}
		buf = rest
		if id == 0 {
			dst = append(dst, algebra.Null)
			continue
		}
		k, ok := d.Key(id)
		if !ok {
			return nil, fmt.Errorf("hive: group key holds unknown term id %d", id)
		}
		dst = append(dst, k)
	}
	return dst, nil
}

// refSpec is the part of a TG_AgJ spec its merger read.
type refSpec struct {
	ID     int
	Aggs   []algebra.AggSpec
	Having func([]string) bool
}

func refSplitAggKey(key string, d *rdf.Dict, tagged bool) (id int, groups []string, err error) {
	buf := []byte(key)
	if tagged {
		v, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return 0, nil, fmt.Errorf("tgops: bad agg-join id key %q", key)
		}
		id, buf = int(v), rest
	}
	for len(buf) > 0 {
		v, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return 0, nil, fmt.Errorf("tgops: bad agg-join group key %q", key)
		}
		buf = rest
		if v == 0 {
			groups = append(groups, algebra.Null)
			continue
		}
		lex, ok := d.Key(v)
		if !ok {
			return 0, nil, fmt.Errorf("tgops: unknown term id %d in agg-join key", v)
		}
		groups = append(groups, lex)
	}
	return id, groups, nil
}

// refAggJoinMerger is the TG_AgJ combiner (final false) and reducer.
func refAggJoinMerger(specByID map[int]refSpec, d *rdf.Dict, tagged, final bool) mapred.Reducer {
	return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
		var sp refSpec
		if tagged {
			id, _, err := refSplitAggKey(key, d, true)
			if err != nil {
				return err
			}
			var ok bool
			sp, ok = specByID[id]
			if !ok {
				return fmt.Errorf("tgops: unknown agg-join id %d", id)
			}
		} else {
			for _, s := range specByID {
				sp = s
			}
		}
		acc := algebra.NewMultiAggState(sp.Aggs)
		for _, v := range values {
			if err := acc.MergeBytes(v); err != nil {
				return err
			}
		}
		if !final {
			emit(key, acc.AppendEncode(nil))
			return nil
		}
		finals := acc.Finals()
		if sp.Having != nil && !sp.Having(finals) {
			return nil
		}
		var row codec.Tuple
		if key != "" {
			_, groups, err := refSplitAggKey(key, d, tagged)
			if err != nil {
				return err
			}
			if tagged {
				row = append(row, strconv.Itoa(sp.ID))
			}
			row = append(row, groups...)
		}
		row = append(row, finals...)
		emit("", row.Encode())
		return nil
	})
}
