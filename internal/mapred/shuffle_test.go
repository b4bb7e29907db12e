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
// through the kv reference (shuffleref_test.go), for spill thresholds none,
// tiny and mid crossed with one, two and four workers: the groups, their
// value order, Volumes() and the spill counts must be equal.
func FuzzShuffleMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 15, 3, 1, 2, 5, 5, 0, 0, 2, 3, 1, 1, 7})
	f.Add([]byte{1, 3, 1, 12, 2, 0, 0, 3, 0, 1, 2, 2, 9, 1, 4, 3, 3, 3, 6, 2, 0, 1, 8, 3})
	f.Add([]byte{2, 0, 2, 9, 3, 2, 1, 1, 4, 3, 0, 5, 3, 1, 2, 2, 3, 7, 2, 3, 1, 6, 0, 3, 2, 1})
	f.Add([]byte{3, 2, 2, 15, 3, 3, 1, 2, 3, 3, 1, 2, 3, 3, 1, 2, 3, 3, 1, 2, 3, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeShuffleCase(data)
		for _, threshold := range []int64{0, 1, 24} {
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
			for _, workers := range []int{1, 2, 4} {
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
				m, err := c.Run(sc.job())
				if err != nil {
					t.Fatalf("threshold %d, workers %d: %v", threshold, workers, err)
				}
				if got := readLines(t, c, "out"); !slices.Equal(got, wantOut) {
					t.Fatalf("threshold %d, workers %d: groups\n%q\nwant\n%q", threshold, workers, got, wantOut)
				}
				ref := m.Volumes()
				ref.MapEmitRecords, ref.MapOutputRecords, ref.MapOutputBytes = want.MapEmitRecords, want.MapOutputRecords, want.MapOutputBytes
				ref.SpillRuns, ref.SpillRecords, ref.SpillBytes = want.SpillRuns, want.SpillRecords, want.SpillBytes
				ref.ReduceGroups = want.ReduceGroups
				c.Config.cost(&ref)
				if got := m.Volumes(); got != ref {
					t.Fatalf("threshold %d, workers %d: volumes\n%+v\nwant\n%+v", threshold, workers, got, ref)
				}
			}
		}
	})
}

// Every emitter may reuse one buffer: a mapper, a combiner, a map-only
// mapper and a reducer that overwrite their buffer after each emit must
// produce the output of emitters that hand over a fresh slice each time.
func TestEmitCopiesBeforeReturn(t *testing.T) {
	lines := []string{"a b c a", "b a", "c c c", "d a b"}
	// emitter returns an emit wrapper: fresh copies every value, reused
	// sends it through one buffer it overwrites afterwards.
	emitter := func(reuse bool) func(Emit, string, []byte) {
		var buf []byte
		return func(emit Emit, key string, value []byte) {
			if !reuse {
				emit(key, bytes.Clone(value))
				return
			}
			buf = append(buf[:0], value...)
			emit(key, buf)
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
		name string
		job  func(reuse bool) *Job
	}{
		{"mapper", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(reuse), NewReducer: joiner(false)}
		}},
		{"combiner", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(false), NewCombiner: joiner(reuse), NewReducer: joiner(false)}
		}},
		{"map-only", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(reuse)}
		}},
		{"reducer", func(reuse bool) *Job {
			return &Job{NewMapper: mapper(false), NewReducer: joiner(reuse)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outs [2][]string
			for i, reuse := range []bool{false, true} {
				c := newTestCluster()
				writeLines(c, "in", 1, lines...)
				j := tc.job(reuse)
				j.Name, j.Inputs, j.Output = tc.name, []string{"in"}, "out"
				if _, err := c.Run(j); err != nil {
					t.Fatal(err)
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
func (c shuffleCase) mapOnlyJob(repeat int, stream bool) *Job {
	return &Job{
		Name:         "map-only",
		Inputs:       []string{"in"},
		Output:       "out",
		StreamOutput: stream,
		NewMapper: func(*TaskContext) Mapper {
			return &closingMapper{stream: c.stream, repeat: repeat}
		},
	}
}

// FuzzMapOnlyMatchesReference runs random map-only jobs — several splits,
// empty and non-empty keys, a Close that emits, and, when the first byte
// says so, every record's pairs repeated past one batch — through Run and
// through the entry-and-WriteOwned reference (shuffleref_test.go):
// materialised, streamed, and streamed into an overflow at the first batch
// or mid-output, on one and two workers. The records, their order and
// every volume but StreamedBatches must be equal, and the output must stay
// streamed in both or in neither.
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
		cluster := func(workers int, overflow int64) *Cluster {
			cfg := DefaultConfig()
			cfg.ExecSplitBytes = int64(8 * sc.recsPerTask)
			c := NewCluster(cfg)
			c.testWorkers = workers
			c.testStreamOverflowBytes = overflow
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
		for _, mode := range []struct {
			stream   bool
			overflow int64
		}{{false, 0}, {true, 0}, {true, 1}, {true, 400}} {
			ref := cluster(1, mode.overflow)
			want, err := ref.refRunMapOnly(sc.mapOnlyJob(repeat, mode.stream))
			if err != nil {
				t.Fatal(err)
			}
			wantOut := readLines(t, ref, "out")
			for _, workers := range []int{1, 2} {
				c := cluster(workers, mode.overflow)
				m, err := c.Run(sc.mapOnlyJob(repeat, mode.stream))
				if err != nil {
					t.Fatalf("%+v, workers %d: %v", mode, workers, err)
				}
				if got := readLines(t, c, "out"); !slices.Equal(got, wantOut) {
					t.Fatalf("%+v, workers %d: records\n%q\nwant\n%q", mode, workers, got, wantOut)
				}
				got, ref := m.Volumes(), want.Volumes()
				if (got.StreamedBatches > 0) != (ref.StreamedBatches > 0) {
					t.Fatalf("%+v, workers %d: %d streamed batches, reference %d", mode, workers, got.StreamedBatches, ref.StreamedBatches)
				}
				got.StreamedBatches, ref.StreamedBatches = 0, 0
				if got != ref {
					t.Fatalf("%+v, workers %d: volumes\n%+v\nwant\n%+v", mode, workers, got, ref)
				}
			}
		}
	})
}

// cancelOnAppendBackend cancels a context when the first record reaches a
// file named "out".
type cancelOnAppendBackend struct {
	dfs.Backend
	cancel context.CancelFunc
}

type cancelOnAppendWriter struct {
	dfs.FileWriter
	cancel context.CancelFunc
}

func (w cancelOnAppendWriter) Append(rec []byte) error {
	w.cancel()
	return w.FileWriter.Append(rec)
}

func (b cancelOnAppendBackend) Create(name string, ratio float64) (dfs.FileWriter, error) {
	fw, err := b.Backend.Create(name, ratio)
	if err != nil || name != "out" {
		return fw, err
	}
	return cancelOnAppendWriter{FileWriter: fw, cancel: b.cancel}, nil
}

// A map-only commit polls cancellation once per batch: a context that dies
// while the first of three batches is written stops the commit at the
// second with the context's error.
func TestCancelMidMapOnlyCommit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewClusterFS(DefaultConfig(), dfs.NewWithBackend(cancelOnAppendBackend{Backend: dfs.NewMemBackend(), cancel: cancel}))
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
	_, err := c.WithContext(ctx).Run(job)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "aborted writing output") {
		t.Fatalf("Run error = %v, want context.Canceled from the map-only commit", err)
	}
}
