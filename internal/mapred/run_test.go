package mapred

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"rapidanalytics/internal/leaktest"
	"rapidanalytics/internal/obs"
)

var errBoom = errors.New("boom")

// pad returns s padded to 70 bytes, so each record exceeds the test
// cluster's 64-byte ExecSplitBytes and becomes its own map split.
func pad(s string) string { return s + strings.Repeat(".", 70-len(s)) }

// Regression: Run used to spawn one goroutine per split before the
// semaphore gate, so a large input created thousands of idle goroutines.
// The pool must stay bounded by maxParallel regardless of split count.
func TestMapFanOutBounded(t *testing.T) {
	c := newTestCluster()
	const splits = 64
	lines := make([]string, splits)
	for i := range lines {
		lines[i] = pad(fmt.Sprintf("s%d", i))
	}
	writeLines(c, "in", 1, lines...)

	baseline := runtime.NumGoroutine()
	var maxSeen atomic.Int64
	job := &Job{
		Name:   "fanout",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				n := int64(runtime.NumGoroutine())
				for {
					cur := maxSeen.Load()
					if n <= cur || maxSeen.CompareAndSwap(cur, n) {
						break
					}
				}
				time.Sleep(500 * time.Microsecond) // force task overlap
				emit("k", rec)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error { return nil })
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Map workers plus the shuffle/reduce pools (which do not overlap the
	// map phase) plus slack for runtime helpers.
	limit := int64(baseline + 2*maxParallel() + 4)
	if got := maxSeen.Load(); got > limit {
		t.Errorf("observed %d goroutines during map phase with %d splits, limit %d",
			got, splits, limit)
	}
}

// The pools follow GOMAXPROCS, not the CPU count, so that setting it (as
// CI's counted-cost gate does) fixes how many tasks run at once.
func TestWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	c := newTestCluster()
	if got := c.workers(100); got != 3 {
		t.Errorf("GOMAXPROCS 3: workers(100) = %d, want 3", got)
	}
	if got := c.workers(2); got != 2 {
		t.Errorf("GOMAXPROCS 3: workers(2) = %d, want 2", got)
	}
	runtime.GOMAXPROCS(1)
	if got := c.workers(100); got != 2 {
		t.Errorf("GOMAXPROCS 1: workers(100) = %d, want the minimum 2", got)
	}
}

// Regression: the first map-task error must abort in-flight siblings and
// skip queued tasks instead of letting all of them run to completion, and
// the reported error must be the failing task's, deterministically.
func TestMapErrorAbortsSiblings(t *testing.T) {
	const splits = 200
	c := newTestCluster()
	lines := make([]string, splits)
	lines[0] = pad("FAIL")
	for i := 1; i < splits; i++ {
		lines[i] = pad(fmt.Sprintf("ok%d", i))
	}
	writeLines(c, "in", 1, lines...)

	var mapped atomic.Int64
	job := &Job{
		Name:   "abort",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				if strings.HasPrefix(string(rec), "FAIL") {
					return errBoom
				}
				mapped.Add(1)
				time.Sleep(time.Millisecond)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error { return nil })
		},
	}
	_, err := c.Run(job)
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run error = %v, want errBoom", err)
	}
	// Task 0 is always dispatched first and is the only failure, so the
	// reported task index must be 0.
	if !strings.Contains(err.Error(), "map task 0") {
		t.Errorf("error %q does not name the failing task deterministically", err)
	}
	if n := mapped.Load(); n >= splits/2 {
		t.Errorf("%d of %d sibling records still mapped after the failure", n, splits-1)
	}
	if c.FS.Exists("out") {
		t.Error("failed job materialised its output")
	}
	checkHandles(t, c)
}

// Regression: a query cancelled while a single hot key is being shuffled
// must abort promptly instead of stalling in an unbounded sort, and the
// reducer must never run.
func TestCancelMidShuffleHotKey(t *testing.T) {
	const records = 400
	c := newTestCluster()
	lines := make([]string, records)
	for i := range lines {
		lines[i] = pad(fmt.Sprintf("v%d", i))
	}
	writeLines(c, "in", 1, lines...)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted atomic.Int64
	var reduced atomic.Int64
	job := &Job{
		Name:   "hotkey",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				if emitted.Add(1) == records/2 {
					cancel() // cancel mid-run, while map output is piling onto one key
				}
				emit("hot", rec)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				reduced.Add(1)
				return nil
			})
		},
	}
	start := time.Now()
	_, err := c.WithContext(ctx).Run(job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, not prompt", elapsed)
	}
	if reduced.Load() != 0 {
		t.Error("reducer ran on a cancelled job")
	}
	if c.FS.Exists("out") {
		t.Error("cancelled job materialised its output")
	}
	checkHandles(t, c)
}

// Regression: combine used to sort and reduce a whole partition with no
// cancellation checks. The check hook must abort it before the sort and
// before any combiner call.
func TestCombineChecksCancellation(t *testing.T) {
	in := &arena{}
	run := make([]entry, 4096)
	for i := range run {
		run[i] = in.add("hot", []byte("v"))
	}
	var calls atomic.Int64
	comb := ReducerFunc(func(key string, values [][]byte, emit Emit) error {
		calls.Add(1)
		return nil
	})
	_, err := combine(comb, in, run, &arena{}, nil, new([][]byte), 4, partitionOf("hot", 4), func() error { return context.Canceled })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("combine error = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Error("combiner ran despite cancelled check")
	}
}

// Regression: partitionOf used to allocate a fresh fnv.New32a per emitted
// key. The inlined loop must match hash/fnv exactly and allocate nothing.
func TestPartitionOfMatchesFNV(t *testing.T) {
	f := func(key string, parts uint8) bool {
		partitions := int(parts%16) + 1
		h := fnv.New32a()
		h.Write([]byte(key))
		want := int(h.Sum32() % uint32(partitions))
		return partitionOf(key, partitions) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartitionOfZeroAlloc(t *testing.T) {
	keys := []string{"", "a", "feature-key", strings.Repeat("x", 300)}
	for _, k := range keys {
		if n := testing.AllocsPerRun(100, func() { partitionOf(k, 8) }); n != 0 {
			t.Errorf("partitionOf(%q) allocates %.0f objects per call", k, n)
		}
	}
}

// aggJob is a multi-partition aggregation: many keys, a combiner, and a
// value-dependent output record, so any ordering or buffering mistake in
// the parallel reduce shows up in the output bytes.
func aggJob(partitions int) *Job {
	j := wordCountJob("in", "out", true)
	j.Name = "parallel-agg"
	j.Partitions = partitions
	return j
}

func aggInput(c *Cluster) {
	var lines []string
	for i := 0; i < 500; i++ {
		lines = append(lines, fmt.Sprintf("key%d key%d key%d", i%97, i%13, i%41))
	}
	writeLines(c, "in", 1, lines...)
}

// runAgg executes the aggregation job with the given worker setting
// and returns the exact output record sequence and the job metrics.
func runAgg(t *testing.T, workers int) ([]string, *Metrics) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 64
	c := NewCluster(cfg)
	c.testWorkers = workers
	aggInput(c)
	m, err := c.Run(aggJob(8))
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	return readLines(t, c, "out"), m
}

// Tentpole guarantee: parallel reduce is byte-for-byte identical to the
// sequential engine — same output records in the same order, and the same
// volume metrics.
func TestParallelReduceMatchesSequential(t *testing.T) {
	seqOut, seqM := runAgg(t, 1)
	parOut, parM := runAgg(t, 8)
	if strings.Join(seqOut, "\n") != strings.Join(parOut, "\n") {
		t.Error("parallel reduce output differs from sequential")
	}
	if seqM.Volumes() != parM.Volumes() {
		t.Errorf("volume metrics differ:\nseq: %+v\npar: %+v", seqM.Volumes(), parM.Volumes())
	}
	if parM.MapWallNs <= 0 {
		t.Error("MapWallNs not recorded")
	}
	if parM.ReduceWallNs <= 0 {
		t.Error("ReduceWallNs not recorded")
	}
}

// Determinism: repeated parallel runs of the same multi-partition job
// produce byte-identical DFS output and identical volume metrics.
func TestParallelReduceDeterministic(t *testing.T) {
	firstOut, firstM := runAgg(t, 0) // 0 = one worker per CPU
	for i := 1; i < 5; i++ {
		out, m := runAgg(t, 0)
		if strings.Join(out, "\n") != strings.Join(firstOut, "\n") {
			t.Fatalf("run %d output differs", i)
		}
		if m.Volumes() != firstM.Volumes() {
			t.Fatalf("run %d volume metrics differ:\n%+v\n%+v", i, m.Volumes(), firstM.Volumes())
		}
	}
}

// Map-only jobs have no shuffle or reduce phase, and their wall time is
// attributed entirely to the map phase.
func TestPhaseWallsMapOnly(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "in", 1, "a", "b", "c")
	job := &Job{
		Name:   "identity",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				emit("", rec)
				return nil
			})
		},
	}
	m, err := c.Run(job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.MapWallNs <= 0 {
		t.Error("MapWallNs not recorded for map-only job")
	}
	if m.ShuffleSortWallNs != 0 || m.ReduceWallNs != 0 {
		t.Errorf("map-only job has shuffle/reduce wall time: %+v", m)
	}
}

func TestWorkflowPhaseWalls(t *testing.T) {
	c := newTestCluster()
	aggInput(c)
	wm, err := runWorkflow(c, []*Job{aggJob(4)})
	if err != nil {
		t.Fatalf("runWorkflow: %v", err)
	}
	mapNs, shuffleNs, reduceNs := wm.PhaseWalls()
	if mapNs <= 0 || reduceNs <= 0 {
		t.Errorf("PhaseWalls = %d, %d, %d; map and reduce must be positive",
			mapNs, shuffleNs, reduceNs)
	}
}

// Regression: the combiner's group loop must poll cancellation every
// ctxCheckInterval groups. A single map task pre-aggregates thousands of
// distinct keys; the first combiner call cancels the context, and the
// combine loop has to stop within one check interval instead of draining
// every group.
func TestCancelMidCombineAborts(t *testing.T) {
	const keys = 4 * ctxCheckInterval
	c := newTestCluster()
	writeLines(c, "in", 1, "seed")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var combined atomic.Int64
	job := &Job{
		Name:       "combine-cancel",
		Inputs:     []string{"in"},
		Output:     "out",
		Partitions: 1,
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				for i := 0; i < keys; i++ {
					emit(fmt.Sprintf("k%06d", i), rec)
				}
				return nil
			})
		},
		NewCombiner: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				if combined.Add(1) == 1 {
					cancel() // cancel mid-combine, on the very first group
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error { return nil })
		},
	}
	_, err := c.WithContext(ctx).Run(job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if n := combined.Load(); n > ctxCheckInterval+1 {
		t.Errorf("combiner drained %d of %d groups after cancellation; want at most one check interval (%d)",
			n, keys, ctxCheckInterval+1)
	}
	if c.FS.Exists("out") {
		t.Error("cancelled job materialised its output")
	}
	checkHandles(t, c)
}

// closeCancelMapper emits its records in Map and cancels the bound context
// in Close — after the map task's record loop, immediately before the
// map-only output write.
type closeCancelMapper struct {
	keys   int
	cancel context.CancelFunc
}

func (m *closeCancelMapper) Map(rec []byte, emit Emit) error {
	for i := 0; i < m.keys; i++ {
		emit(fmt.Sprintf("k%06d", i), rec)
	}
	return nil
}

func (m *closeCancelMapper) Close(emit Emit) error {
	m.cancel()
	return nil
}

// Regression: a map-only job whose context dies at the end of the map phase
// must not materialise output — the write path polls cancellation instead
// of flushing every buffered record to the DFS.
func TestCancelAtMapCloseWritesNoMapOnlyOutput(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "in", 1, "seed")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := &Job{
		Name:   "maponly-cancel",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return &closeCancelMapper{keys: 4 * ctxCheckInterval, cancel: cancel}
		},
	}
	_, err := c.WithContext(ctx).Run(job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if c.FS.Exists("out") {
		t.Error("cancelled map-only job materialised its output")
	}
	checkHandles(t, c)
}

// A panicking mapper or reducer fails its job with ErrTaskPanic, its stack
// on the task span, instead of ending the process: on one worker the task
// runs on the caller's goroutine, on two on a pool goroutine, where an
// unrecovered panic would end the program. No goroutine is left behind and
// the cluster runs the next job.
func TestTaskPanicContained(t *testing.T) {
	key := func(rec []byte) string { return strings.TrimRight(string(rec), ".") }
	identity := func() Reducer {
		return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
			for _, v := range values {
				emit(key, v)
			}
			return nil
		})
	}
	jobs := map[string]*Job{
		"mapper": {
			NewMapper: func(*TaskContext) Mapper {
				return MapperFunc(func(rec []byte, emit Emit) error {
					if key(rec) == "r5" {
						panic("mapper hit record r5")
					}
					emit(key(rec), rec)
					return nil
				})
			},
			NewReducer: identity,
		},
		"reducer": {
			NewMapper: func(*TaskContext) Mapper {
				return MapperFunc(func(rec []byte, emit Emit) error {
					emit(key(rec), rec)
					return nil
				})
			},
			NewReducer: func() Reducer {
				return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
					if key == "r3" {
						panic("reducer hit key r3")
					}
					return identity().Reduce(key, values, emit)
				})
			},
		},
	}
	for name, job := range jobs {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				leaktest.Check(t)
				c, root := tracedCluster(t)
				c.testWorkers = workers
				lines := make([]string, 8)
				for i := range lines {
					lines[i] = pad(fmt.Sprintf("r%d", i))
				}
				writeLines(c, "in", 1, lines...)
				job.Name, job.Inputs, job.Output, job.Partitions = name, []string{"in"}, "out", 4
				if _, err := c.Run(job); !errors.Is(err, ErrTaskPanic) || !strings.Contains(err.Error(), " hit ") {
					t.Fatalf("Run error = %v, want ErrTaskPanic with the panic value", err)
				}
				var stack string
				root.Snapshot().Walk(func(n *obs.Snapshot) {
					if n.Kind == obs.KindTask && n.Error != "" {
						stack = n.Error
					}
				})
				if !strings.Contains(stack, " hit ") || !strings.Contains(stack, "goroutine ") {
					t.Errorf("no task span carries the panic and its stack:\n%s", stack)
				}
				if _, err := c.Run(wordCountJob("in", "next", false)); err != nil {
					t.Fatalf("next job after the panic: %v", err)
				}
				if got := readLines(t, c, "next"); len(got) != len(lines) {
					t.Errorf("next job wrote %d records, want %d", len(got), len(lines))
				}
			})
		}
	}
}
