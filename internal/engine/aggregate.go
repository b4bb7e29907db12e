package engine

import (
	"fmt"
	"strconv"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
)

// Every aggregation cycle — Hive's group-by and the paper's γ^AgJ (Def.
// 3.6, generalised in Figure 6b) alike — ends the same way: map tasks emit
// encoded partial MultiAggStates keyed by the group's values, a combiner
// merges them per key map-side, and the reducer merges them again, applies
// HAVING and decodes the key into the final row. The key is a
// separator-free concatenation of self-delimiting uvarint ID-strings; a
// cycle that evaluates several groupings at once (the generalised TG_AgJ)
// prefixes it with the grouping's uvarint index, its tag.

// Grouping is one grouping-aggregation an aggregation cycle evaluates.
type Grouping struct {
	Aggs   []algebra.AggSpec   // the aggregations whose partial states the values carry
	Having func([]string) bool // drops groups whose finals fail it (nil keeps all)
}

// aggMerger merges the encoded partial states of one key group into the
// resident state of the key's grouping. As a combiner it re-emits the
// merged state under the same key; as a reducer it emits the final row
// [tag?, group values..., finals...], the tag present exactly when the
// cycle evaluates more than one grouping.
type aggMerger struct {
	groupings []Grouping
	accs      []*algebra.MultiAggState // one per grouping, reset per key
	dict      *rdf.Dict                // decodes group values; nil in a combiner
	// finals, row and buf are per-group scratch: the group's final values,
	// its output row and the row's encoding.
	finals []string
	row    codec.Tuple
	buf    []byte
}

// NewAggMerger returns the merger of an aggregation cycle over groupings.
// With a nil d it is the cycle's combiner, which re-emits merged states and
// never decodes; with the dataset's dictionary, the cycle's reducer.
func NewAggMerger(groupings []Grouping, d *rdf.Dict) mapred.Reducer {
	m := &aggMerger{groupings: groupings, accs: make([]*algebra.MultiAggState, len(groupings)), dict: d}
	for i, g := range groupings {
		m.accs[i] = algebra.NewMultiAggState(g.Aggs)
	}
	return m
}

// grouping splits a shuffle key into its grouping's index and the group
// values' bytes. Only the tag is read; the values stay encoded.
func (m *aggMerger) grouping(key string) (int, string, error) {
	if len(m.groupings) == 1 {
		return 0, key, nil
	}
	tag, rest, err := codec.ReadUvarint([]byte(key))
	if err != nil {
		return 0, "", fmt.Errorf("engine: aggregation key %q has no grouping tag", key)
	}
	if tag >= uint64(len(m.groupings)) {
		return 0, "", fmt.Errorf("engine: aggregation key tag %d, want < %d", tag, len(m.groupings))
	}
	return int(tag), key[len(key)-len(rest):], nil
}

func (m *aggMerger) Reduce(key string, values [][]byte, emit mapred.Emit) error {
	g, groupKey, err := m.grouping(key)
	if err != nil {
		return err
	}
	acc := m.accs[g]
	acc.Reset()
	for _, v := range values {
		if err := acc.MergeBytes(v); err != nil {
			return err
		}
	}
	if m.dict == nil {
		m.buf = acc.AppendEncode(m.buf[:0])
		emit(key, m.buf)
		return nil
	}
	m.finals = acc.AppendFinals(m.finals[:0])
	if having := m.groupings[g].Having; having != nil && !having(m.finals) {
		return nil
	}
	row := m.row[:0]
	if len(m.groupings) > 1 {
		row = append(row, strconv.Itoa(g))
	}
	if row, err = appendGroupKey(row, m.dict, groupKey); err != nil {
		return err
	}
	m.row = append(row, m.finals...)
	m.buf = m.row.AppendEncode(m.buf[:0])
	emit("", m.buf)
	return nil
}

// appendGroupKey appends the lexical Term.Key form of a grouping key's
// values to dst, NULL (ID 0) as algebra.Null — the decode boundary of
// every engine.
func appendGroupKey(dst codec.Tuple, d *rdf.Dict, key string) (codec.Tuple, error) {
	maxID := uint64(d.Len())
	for len(key) > 0 {
		id, n, err := rdf.ReadID(key, maxID)
		if err != nil {
			return nil, fmt.Errorf("engine: group key: %w", err)
		}
		key = key[n:]
		if id == 0 {
			dst = append(dst, algebra.Null)
			continue
		}
		k, _ := d.Key(id)
		dst = append(dst, k)
	}
	return dst, nil
}
