package tgops

import (
	"hash/maphash"
	"unsafe"

	"rapidanalytics/internal/algebra"
)

// preAggTable is TG_AgJ's map-side pre-aggregation table, Algorithm 3's
// multiAggMap: open addressing over the group keys' bytes. Groups are
// numbered in first-seen order. Their keys lie back to back in one
// append-only arena, each group keeps its key's hash, so growth rehashes
// without reading a key, and their states are carved from slabs that grow
// with the groups, so a task with three groups pays for sixteen at most.
type preAggTable struct {
	seed maphash.Seed
	// keys holds every group's key; group g's ends at ends[g].
	keys   []byte
	ends   []int
	hashes []uint64
	states []*algebra.MultiAggState
	// slots holds g+1 for group g, or 0 when free. Its length is a power
	// of two at least twice the number of groups.
	slots []int32
	// The slabs the states are carved from: the MultiAggStates, their
	// States pointers and the AggStates those point to.
	multis []algebra.MultiAggState
	ptrs   []*algebra.AggState
	aggs   []algebra.AggState
}

// minSlots is the first table's size. A slab holds as many groups as the
// table has when it is made, at least minSlabGroups and at most
// maxSlabGroups.
const (
	minSlots      = 8
	minSlabGroups = 16
	maxSlabGroups = 256
)

// state returns the state of key's group, adding the group with empty
// states for aggs when key is new. key is copied.
func (t *preAggTable) state(key []byte, aggs []algebra.AggSpec) *algebra.MultiAggState {
	if t.slots == nil {
		t.seed = maphash.MakeSeed()
		t.slots = make([]int32, minSlots)
	}
	h := maphash.Bytes(t.seed, key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		g := t.slots[i] - 1
		if t.hashes[g] == h && string(t.key(int(g))) == string(key) {
			return t.states[g]
		}
	}
	g := len(t.states)
	t.slots[i] = int32(g + 1)
	t.keys = append(t.keys, key...)
	t.ends = append(t.ends, len(t.keys))
	t.hashes = append(t.hashes, h)
	st := t.newState(aggs)
	t.states = append(t.states, st)
	if 2*len(t.states) > len(t.slots) {
		t.grow()
	}
	return st
}

// key returns group g's key bytes.
func (t *preAggTable) key(g int) []byte {
	start := 0
	if g > 0 {
		start = t.ends[g-1]
	}
	return t.keys[start:t.ends[g]]
}

// grow doubles the slots and reinserts every group by its kept hash.
func (t *preAggTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for g, h := range t.hashes {
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(g + 1)
	}
}

// newState carves empty states for aggs from the slabs.
func (t *preAggTable) newState(aggs []algebra.AggSpec) *algebra.MultiAggState {
	groups := min(maxSlabGroups, max(minSlabGroups, len(t.states)))
	n := len(aggs)
	m := &carve(&t.multis, 1, groups)[0]
	algebra.InitMultiAggState(m, aggs, carve(&t.ptrs, n, n*groups), carve(&t.aggs, n, n*groups))
	return m
}

// carve returns the next n elements of *slab, first replacing a slab
// without room by a new one of max(n, size) elements. Earlier elements
// stay where they are.
func carve[T any](slab *[]T, n, size int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, size))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// keyString returns group g's key as a string over the arena, whose bytes
// never change.
func (t *preAggTable) keyString(g int) string {
	k := t.key(g)
	return unsafe.String(unsafe.SliceData(k), len(k))
}
