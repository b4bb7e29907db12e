package mapred

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/vec"
)

// fuzzKeys are the keys emit streams draw from: the empty key, shared
// prefixes, duplicates of each other's bytes and a zero byte.
var fuzzKeys = []string{"", "a", "ab", "abc", "b", "ba", "\x00", "a\x00", "zz"}

// byteSource hands out the fuzz input one choice at a time, 0 once spent.
type byteSource []byte

func (s *byteSource) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// shuffleCase is one decoded fuzz input: the emit stream of every input
// record, grouped into map tasks of recsPerTask records.
type shuffleCase struct {
	partitions  int
	recsPerTask int
	combiner    int // 0 none, 1 keeps the key, 2 re-keys within the partition
	stream      [][]kv
}

func decodeShuffleCase(data []byte) shuffleCase {
	s := byteSource(data)
	c := shuffleCase{
		partitions:  1 + s.next(4),
		recsPerTask: 1 + s.next(4),
		combiner:    s.next(3),
	}
	for range 1 + s.next(16) {
		var rec []kv
		for range s.next(4) {
			v := make([]byte, s.next(4))
			for i := range v {
				v[i] = byte('0' + s.next(10))
			}
			rec = append(rec, kv{key: fuzzKeys[s.next(len(fuzzKeys))], value: v})
		}
		c.stream = append(c.stream, rec)
	}
	return c
}

// tasks splits the stream into map tasks the way makeSplits does for
// 8-byte records and an ExecSplitBytes of recsPerTask records.
func (c shuffleCase) tasks() [][][]kv {
	var out [][][]kv
	for i := 0; i < len(c.stream); i += c.recsPerTask {
		out = append(out, c.stream[i:min(i+c.recsPerTask, len(c.stream))])
	}
	return out
}

// rekey maps key to another key in the same partition, out of key order.
func rekey(key string, partitions int) string {
	r := []byte(key)
	slices.Reverse(r)
	for i := 0; ; i++ {
		k := string(r) + "#" + strconv.Itoa(i)
		if partitionOf(k, partitions) == partitionOf(key, partitions) {
			return k
		}
	}
}

// newCombiner returns the case's combiner, which emits through one reused
// buffer and scribbles over it after every emit, or nil.
func (c shuffleCase) newCombiner() func() Reducer {
	if c.combiner == 0 {
		return nil
	}
	return func() Reducer {
		var buf []byte
		return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
			if c.combiner == 1 {
				buf = buf[:0]
				for _, v := range values {
					buf = append(buf, v...)
				}
				emit(key, buf)
				scribble(buf)
				return nil
			}
			for _, v := range values {
				buf = append(buf[:0], v...)
				emit(rekey(key, c.partitions), buf)
				scribble(buf)
			}
			return nil
		})
	}
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 'X'
	}
}

// appendGroup encodes one reduce group as a record: the key, then each
// value, each length-prefixed.
func appendGroup(dst []byte, key string, values [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	for _, v := range values {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// job is the case as a mapred job: each 8-byte input record names its
// index in the stream, whose pairs the mapper emits through one reused
// buffer, and the reducer writes every group as one record.
func (c shuffleCase) job() *Job {
	return &Job{
		Name:       "shuffle",
		Inputs:     []string{"in"},
		Output:     "out",
		Partitions: c.partitions,
		NewMapper: func(*TaskContext) Mapper {
			var buf []byte
			return MapperFunc(func(rec []byte, emit Emit) error {
				for _, e := range c.stream[binary.BigEndian.Uint64(rec)] {
					buf = append(buf[:0], e.value...)
					emit(e.key, buf)
					scribble(buf)
				}
				return nil
			})
		},
		NewCombiner: c.newCombiner(),
		NewReducer: func() Reducer {
			var buf []byte
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				buf = appendGroup(buf[:0], key, values)
				emit(key, buf)
				return nil
			})
		},
	}
}

// FuzzShuffleMatchesReference runs random emit streams through Run and
// through the kv reference (shuffleref_test.go) with checkShuffleCase, for
// spill thresholds none, tiny and mid crossed with one, two and four
// workers.
func FuzzShuffleMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 15, 3, 1, 2, 5, 5, 0, 0, 2, 3, 1, 1, 7})
	f.Add([]byte{1, 3, 1, 12, 2, 0, 0, 3, 0, 1, 2, 2, 9, 1, 4, 3, 3, 3, 6, 2, 0, 1, 8, 3})
	f.Add([]byte{2, 0, 2, 9, 3, 2, 1, 1, 4, 3, 0, 5, 3, 1, 2, 2, 3, 7, 2, 3, 1, 6, 0, 3, 2, 1})
	f.Add([]byte{3, 2, 2, 15, 3, 3, 1, 2, 3, 3, 1, 2, 3, 3, 1, 2, 3, 3, 1, 2, 3, 3, 1, 2, 3})
	f.Add([]byte{3, 2, 2, 15, 3, 3, 1, 2, 3, 3, 1, 2, 3, 3, 1, 2, 3, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkShuffleCase(t, decodeShuffleCase(data), []int64{0, 1, 24}, []int{1, 2, 4})
	})
}

// checkShuffleCase runs sc through Run at every spill threshold and worker
// count, on a cluster with a fresh free list and in a query on one whose
// free list poisons every page handed back and already holds a previous
// query's scratch: the groups, their value order, Volumes() and the spill
// counts must equal the reference's.
func checkShuffleCase(t *testing.T, sc shuffleCase, thresholds []int64, workerCounts []int) {
	t.Helper()
	for _, threshold := range thresholds {
		wantGroups, want, err := refShuffle(sc.tasks(), sc.partitions, threshold, sc.newCombiner())
		if err != nil {
			t.Fatal(err)
		}
		var wantOut []string
		for _, gs := range wantGroups {
			for _, g := range gs {
				wantOut = append(wantOut, string(appendGroup(nil, g.key, g.values)))
			}
		}
		for _, workers := range workerCounts {
			for _, poisoned := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.ExecSplitBytes = int64(8 * sc.recsPerTask)
				cfg.SpillThresholdBytes = threshold
				c := NewCluster(cfg)
				c.testWorkers = workers
				w, err := c.FS.Create("in", 1)
				if err != nil {
					t.Fatal(err)
				}
				for i := range sc.stream {
					w.Write(binary.BigEndian.AppendUint64(nil, uint64(i)))
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if poisoned {
					c.free.poison = true
					// A previous query leaves its scratch, poisoned, on
					// the cluster's list.
					warm := sc.job()
					warm.Output = "warm"
					if _, err := c.WithContext(context.Background()).Run(warm); err != nil {
						t.Fatal(err)
					}
					c = c.WithContext(context.Background())
				}
				m, err := c.Run(sc.job())
				if err != nil {
					t.Fatalf("threshold %d, workers %d, poisoned %v: %v", threshold, workers, poisoned, err)
				}
				if got := readLines(t, c, "out"); !slices.Equal(got, wantOut) {
					t.Fatalf("threshold %d, workers %d, poisoned %v: groups\n%q\nwant\n%q", threshold, workers, poisoned, got, wantOut)
				}
				ref := m.Volumes()
				ref.MapEmitRecords, ref.MapOutputRecords, ref.MapOutputBytes = want.MapEmitRecords, want.MapOutputRecords, want.MapOutputBytes
				ref.SpillRuns, ref.SpillRecords, ref.SpillBytes = want.SpillRuns, want.SpillRecords, want.SpillBytes
				ref.ReduceGroups = want.ReduceGroups
				c.Config.cost(&ref)
				if got := m.Volumes(); got != ref {
					t.Fatalf("threshold %d, workers %d, poisoned %v: volumes\n%+v\nwant\n%+v", threshold, workers, poisoned, got, ref)
				}
			}
		}
	}
}

// Every emitter may reuse one buffer for its key and its value: a mapper,
// a combiner, a map-only mapper and a reducer that overwrite their buffer
// after each emit must produce the output of emitters that hand over fresh
// copies each time, over several partitions and while spilling too.
func TestEmitCopiesBeforeReturn(t *testing.T) {
	lines := []string{"a b c a", "b a", "c c c", "d a b", "e f a", "f e d c"}
	// emitter returns an emit wrapper: fresh copies every key and value,
	// reused sends both as views of one buffer it overwrites afterwards.
	emitter := func(reuse bool) func(Emit, string, []byte) {
		var buf []byte
		return func(emit Emit, key string, value []byte) {
			if !reuse {
				emit(strings.Clone(key), bytes.Clone(value))
				return
			}
			buf = append(append(buf[:0], key...), value...)
			emit(unsafe.String(unsafe.SliceData(buf), len(key)), buf[len(key):])
			scribble(buf)
		}
	}
	mapper := func(reuse bool) func(*TaskContext) Mapper {
		return func(*TaskContext) Mapper {
			out := emitter(reuse)
			return MapperFunc(func(rec []byte, emit Emit) error {
				for _, w := range strings.Fields(string(rec)) {
					out(emit, w, []byte(w+"-1"))
				}
				return nil
			})
		}
	}
	joiner := func(reuse bool) func() Reducer {
		return func() Reducer {
			out := emitter(reuse)
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				out(emit, key, bytes.Join(values, []byte(",")))
				return nil
			})
		}
	}
	for _, tc := range []struct {
		name  string
		job   func(reuse bool) *Job
		spill int64 // the spill threshold; 0 never spills
	}{
		{"mapper", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(reuse), NewReducer: joiner(false)}
		}, 0},
		{"combiner", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(false), NewCombiner: joiner(reuse), NewReducer: joiner(false)}
		}, 0},
		{"map-only", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(reuse)}
		}, 0},
		{"reducer", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(false), NewReducer: joiner(reuse)}
		}, 0},
		// partitionOf reads the mapper's and the combiner's key views.
		{"3-partitions", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(reuse), NewCombiner: joiner(reuse), NewReducer: joiner(reuse), Partitions: 3}
		}, 0},
		// The views reach spill runs through the arena and the combiner.
		{"spilling", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(reuse), NewCombiner: joiner(reuse), NewReducer: joiner(reuse), Partitions: 3}
		}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outs [2][]string
			for i, reuse := range []bool{false, true} {
				c := newTestCluster()
				c.Config.SpillThresholdBytes = tc.spill
				writeLines(c, "in", 1, lines...)
				j := tc.job(reuse)
				j.Name, j.Inputs, j.Output = tc.name, []string{"in"}, "out"
				m, err := c.Run(j)
				if err != nil {
					t.Fatal(err)
				}
				if (m.SpillRuns > 0) != (tc.spill > 0) {
					t.Fatalf("%d spill runs at threshold %d", m.SpillRuns, tc.spill)
				}
				outs[i] = readLines(t, c, "out")
			}
			if !slices.Equal(outs[0], outs[1]) {
				t.Errorf("reused buffer gave\n%q\nfresh slices gave\n%q", outs[1], outs[0])
			}
		})
	}
}

// Pairs of one arena sort by key, then in the order they were added —
// including empty pairs, which share an offset with the pair after them.
func TestSortRunKeepsEmissionOrder(t *testing.T) {
	a := &arena{}
	var run []entry
	for _, p := range []struct{ k, v string }{{"b", "1"}, {"", ""}, {"", "x"}, {"a", ""}, {"", ""}, {"a", "2"}, {"", "y"}} {
		run = append(run, a.add(p.k, []byte(p.v)))
	}
	want := []entry{run[1], run[2], run[4], run[6], run[3], run[5], run[0]}
	a.sortRun(run)
	if !slices.Equal(run, want) {
		t.Errorf("sorted run %v, want %v", run, want)
	}
	for i := 0; i < 3*arenaFirstChunk; i += 100 {
		a.add(fmt.Sprint(i), make([]byte, 100))
	}
	if len(a.chunks) < 3 || cap(a.chunks[0]) != arenaFirstChunk || cap(a.chunks[1]) != 2*arenaFirstChunk {
		t.Errorf("chunk capacities do not double from %d: %d chunks", arenaFirstChunk, len(a.chunks))
	}
}

// closingMapper emits each record's pairs of the stream, repeat times over,
// through one buffer it overwrites after every emit, and at Close emits how
// many records its task mapped.
type closingMapper struct {
	stream [][]kv
	repeat int
	mapped int
	buf    []byte
}

func (m *closingMapper) Map(rec []byte, emit Emit) error {
	m.mapped++
	for range m.repeat {
		for _, e := range m.stream[binary.BigEndian.Uint64(rec)] {
			m.buf = append(m.buf[:0], e.value...)
			emit(e.key, m.buf)
			scribble(m.buf)
		}
	}
	return nil
}

func (m *closingMapper) Close(emit Emit) error {
	m.buf = strconv.AppendInt(m.buf[:0], int64(m.mapped), 10)
	emit("closed", m.buf)
	scribble(m.buf)
	return nil
}

// mapOnlyJob is the case as a map-only job of closingMappers.
func (c shuffleCase) mapOnlyJob(repeat int) *Job {
	return &Job{
		Name:   "map-only",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(*TaskContext) Mapper {
			return &closingMapper{stream: c.stream, repeat: repeat}
		},
	}
}

// FuzzMapOnlyMatchesReference runs random map-only jobs — several splits,
// empty and non-empty keys, a Close that emits, and, when the first byte
// says so, every record's pairs repeated past one batch — through Run and
// through the entry-and-Write reference (shuffleref_test.go), on one and
// two workers, with a fresh free list and with one that poisons every
// builder handed back, where a second job runs on the recycled builders.
// The records, their order and every volume must be equal.
func FuzzMapOnlyMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 0, 15, 3, 1, 2, 5, 5, 0, 0, 2, 3, 1, 1, 7})
	f.Add([]byte{2, 1, 3, 1, 12, 2, 0, 0, 3, 0, 1, 2, 2, 9, 1, 4, 3, 3, 3, 6, 2, 0, 1, 8, 3})
	f.Add([]byte{5, 0, 0, 0, 9, 3, 2, 1, 1, 4, 3, 0, 5, 3, 1, 2, 2, 3, 7, 2, 3, 1, 6, 0, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		repeat := 1
		if len(data) > 0 {
			if data[0]%3 == 2 {
				repeat = 700 // over vec.DefaultBatchRows emits per task
			}
			data = data[1:]
		}
		sc := decodeShuffleCase(data)
		cluster := func(workers int, poisoned bool) *Cluster {
			cfg := DefaultConfig()
			cfg.ExecSplitBytes = int64(8 * sc.recsPerTask)
			c := NewCluster(cfg)
			if poisoned {
				c = c.WithContext(context.Background())
				c.free.poison = true
			}
			c.testWorkers = workers
			w, err := c.FS.Create("in", 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sc.stream {
				w.Write(binary.BigEndian.AppendUint64(nil, uint64(i)))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return c
		}
		ref := cluster(1, false)
		want, err := ref.refRunMapOnly(sc.mapOnlyJob(repeat))
		if err != nil {
			t.Fatal(err)
		}
		wantOut := readLines(t, ref, "out")
		for _, workers := range []int{1, 2} {
			for _, poisoned := range []bool{false, true} {
				c := cluster(workers, poisoned)
				// A second job on the same cluster takes the builders the
				// first handed back: its output must not show through the
				// first's.
				var m *Metrics
				for _, out := range []string{"out", "again"} {
					job := sc.mapOnlyJob(repeat)
					job.Output = out
					if m, err = c.Run(job); err != nil {
						t.Fatalf("workers %d, poisoned %v: %v", workers, poisoned, err)
					}
				}
				for _, out := range []string{"out", "again"} {
					if got := readLines(t, c, out); !slices.Equal(got, wantOut) {
						t.Fatalf("workers %d, poisoned %v: %s records\n%q\nwant\n%q", workers, poisoned, out, got, wantOut)
					}
				}
				if got, ref := m.Volumes(), want.Volumes(); got != ref {
					t.Fatalf("workers %d, poisoned %v: volumes\n%+v\nwant\n%+v", workers, poisoned, got, ref)
				}
			}
		}
	})
}

// cancelOnCommit is a context that reports cancellation once the file
// "out" of its FS holds a record, that is from the poll after the first
// batch of that output is committed.
type cancelOnCommit struct {
	context.Context
	fs *dfs.FS
}

func (c cancelOnCommit) Err() error {
	f, err := c.fs.Open("out")
	if err != nil {
		return nil
	}
	defer f.Close()
	if f.NumRecords() > 0 {
		return context.Canceled
	}
	return nil
}

// A map-only commit polls cancellation once per batch: a context that dies
// while the first of three batches is written stops the commit at the
// second with the context's error.
func TestCancelMidMapOnlyCommit(t *testing.T) {
	c := NewCluster(DefaultConfig())
	writeLines(c, "in", 1, "seed")
	job := &Job{
		Name:   "commit-cancel",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(*TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				for range 3 * vec.DefaultBatchRows {
					emit("k", rec)
				}
				return nil
			})
		},
	}
	_, err := c.WithContext(cancelOnCommit{context.Background(), c.FS}).Run(job)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "aborted writing output") {
		t.Fatalf("Run error = %v, want context.Canceled from the map-only commit", err)
	}
}
