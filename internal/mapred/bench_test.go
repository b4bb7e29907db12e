package mapred

import (
	"fmt"
	"testing"
)

// BenchmarkWordCountThroughput measures full-cycle engine throughput:
// splits, parallel map tasks, combiner, shuffle, reduce, materialise.
func BenchmarkWordCountThroughput(b *testing.B) {
	cfg := DefaultConfig()
	var bytes int64
	lines := make([]string, 2000)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%d w%d w%d w%d", i%7, i%3, i%11, i%29)
		bytes += int64(len(lines[i]))
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewCluster(cfg)
		w, err := c.FS.Create("in", 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range lines {
			w.Write([]byte(l))
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(wordCountJob("in", "out", true)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionOf guards the zero-alloc inline FNV-1a partitioner on
// the per-emit hot path (it used to allocate a hash.Hash32 per key).
func BenchmarkPartitionOf(b *testing.B) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("group-key-%d", i)
	}
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += partitionOf(keys[i%len(keys)], 8)
	}
	_ = sink
}

// BenchmarkShufflePath isolates the shuffle of one run: copy 5000 pairs
// into an arena, sort the run and walk its key groups.
func BenchmarkShufflePath(b *testing.B) {
	keys := make([]string, 5000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i%37)
	}
	value := []byte("v")
	nop := ReducerFunc(func(string, [][]byte, Emit) error { return nil })
	noCheck := func() error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := &arena{}
		run := make([]entry, 0, len(keys))
		for _, k := range keys {
			run = append(run, a.add(k, value))
		}
		a.sortRun(run)
		if groups, err := reduceGroups(nop, arenas{a}, run, nil, noCheck); err != nil || groups != 37 {
			b.Fatalf("groups = %d, %v", groups, err)
		}
	}
}
