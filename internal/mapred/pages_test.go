package mapred

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"testing"
)

// partitionKeys returns n distinct keys of partition p of partitions.
func partitionKeys(partitions, p, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("k%d", i); partitionOf(k, partitions) == p {
			keys = append(keys, k)
		}
	}
	return keys
}

// Every (task, partition) entry count around the page size — none, one, a
// page less one, a page, a page and one, several pages and a part — gives
// the reference shuffle's output, with and without a combiner, unspilled
// and spilled at a tiny threshold, on one and two workers, with pages from
// a fresh free list and from a poisoned one.
func TestPagedRunsMatchReference(t *testing.T) {
	const partitions = 2
	keys := [partitions][]string{partitionKeys(partitions, 0, 7), partitionKeys(partitions, 1, 7)}
	for _, n := range []int{0, 1, pageEntries - 1, pageEntries, pageEntries + 1, 3*pageEntries + 7} {
		// Three map tasks of one record each; every record emits n pairs
		// to each partition, over seven keys.
		sc := shuffleCase{partitions: partitions, recsPerTask: 1}
		for r := range 3 {
			var rec []kv
			for i := range n {
				for p := range partitions {
					rec = append(rec, kv{key: keys[p][(i+r)%7], value: []byte(fmt.Sprint(r, i))})
				}
			}
			sc.stream = append(sc.stream, rec)
		}
		for _, comb := range []int{0, 1} {
			sc.combiner = comb
			t.Run(fmt.Sprintf("n=%d/combiner=%d", n, comb), func(t *testing.T) {
				checkShuffleCase(t, sc, []int64{0, 1}, []int{1, 2})
			})
		}
	}
}

// The free list never holds more than freePages pages, however many a
// query hands back, nor more than freeScratch builders or values scratches;
// the builders come back empty and the values scratch cleared, so the list
// pins no arena. A query (a WithContext copy) shares its cluster's list,
// and a cluster with none, which recycles nothing, gives the same output.
func TestPageFreeListBounded(t *testing.T) {
	var out [][]string
	for _, withList := range []bool{false, true} {
		base := NewCluster(DefaultConfig())
		if !withList {
			base.free = nil
		}
		c := base.WithContext(context.Background())
		if c.free != base.free {
			t.Error("a query has a free list of its own, not its cluster's")
		}
		writeLines(c, "in", 1, "x")
		var buf []byte
		job := &Job{
			Name: "pages", Inputs: []string{"in"}, Output: "out", Partitions: 4,
			NewMapper: func(*TaskContext) Mapper {
				return MapperFunc(func(rec []byte, emit Emit) error {
					// More entries than freePages pages hold.
					for i := range (freePages + 8) * pageEntries {
						buf = strconv.AppendInt(buf[:0], int64(i%1000), 10)
						emit(string(buf[:1]), buf)
					}
					return nil
				})
			},
			NewReducer: func() Reducer {
				return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
					emit(key, fmt.Appendf(nil, "%s:%d", key, len(values)))
					return nil
				})
			},
		}
		if _, err := c.Run(job); err != nil {
			t.Fatal(err)
		}
		out = append(out, readLines(t, c, "out"))
		if !withList {
			continue
		}
		if n := len(c.free.pages); n > freePages || cap(c.free.pages) != freePages {
			t.Errorf("free list holds %d pages (capacity %d), bound %d", n, cap(c.free.pages), freePages)
		} else if n == 0 {
			t.Error("no page came back to the free list")
		}
		if len(c.free.builders) == 0 || len(c.free.builders) > freeScratch || len(c.free.values) == 0 || len(c.free.values) > freeScratch {
			t.Errorf("free list holds %d builders and %d values scratches, want 1 to %d", len(c.free.builders), len(c.free.values), freeScratch)
		}
		for range len(c.free.builders) {
			bu := <-c.free.builders
			if bu.Flush() != nil {
				t.Error("a builder came back holding records")
			}
		}
		for range len(c.free.values) {
			vs := <-c.free.values
			if len(vs) != 0 || slices.ContainsFunc(vs[:cap(vs)], func(v []byte) bool { return v != nil }) {
				t.Errorf("a values scratch came back holding %d values: %q", len(vs), vs[:cap(vs)])
			}
		}
	}
	if !slices.Equal(out[0], out[1]) {
		t.Errorf("output with a free list %q, without %q", out[1], out[0])
	}
}
