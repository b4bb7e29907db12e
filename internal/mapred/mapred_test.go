package mapred

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"rapidanalytics/internal/dfs"
)

func newTestCluster() *Cluster {
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 64 // tiny splits to force multiple map tasks
	return NewCluster(cfg)
}

func writeLines(c *Cluster, name string, ratio float64, lines ...string) {
	w, err := c.FS.Create(name, ratio)
	if err != nil {
		panic(err)
	}
	for _, l := range lines {
		w.Write([]byte(l))
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
}

func readLines(t *testing.T, c *Cluster, name string) []string {
	t.Helper()
	f, err := c.FS.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	recs, err := f.AllRecords()
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

// checkHandles fails t when c's FS has Files or Writers open: a job
// closes everything it opened, whether it succeeds, fails or is
// cancelled.
func checkHandles(t *testing.T, c *Cluster) {
	t.Helper()
	if n := c.FS.OpenHandles(); n != 0 {
		t.Errorf("%d DFS handles left open", n)
	}
}

// wordCountJob is the canonical MapReduce smoke test.
func wordCountJob(in, out string, combiner bool) *Job {
	j := &Job{
		Name:   "wordcount",
		Inputs: []string{in},
		Output: out,
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				for _, w := range strings.Fields(string(rec)) {
					emit(w, []byte("1"))
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				total := 0
				for _, v := range values {
					n, err := strconv.Atoi(string(v))
					if err != nil {
						return err
					}
					total += n
				}
				emit(key, []byte(fmt.Sprintf("%s=%d", key, total)))
				return nil
			})
		},
	}
	if combiner {
		j.NewCombiner = func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				total := 0
				for _, v := range values {
					n, _ := strconv.Atoi(string(v))
					total += n
				}
				emit(key, []byte(strconv.Itoa(total)))
				return nil
			})
		}
	}
	return j
}

func TestWordCount(t *testing.T) {
	for _, combiner := range []bool{false, true} {
		c := newTestCluster()
		writeLines(c, "in", 1,
			"a b c a",
			"b a",
			"c c c",
		)
		m, err := c.Run(wordCountJob("in", "out", combiner))
		if err != nil {
			t.Fatalf("Run(combiner=%v): %v", combiner, err)
		}
		got := readLines(t, c, "out")
		sort.Strings(got)
		want := []string{"a=3", "b=2", "c=4"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("combiner=%v: got %v, want %v", combiner, got, want)
		}
		if m.MapInputRecords != 3 {
			t.Errorf("MapInputRecords = %d", m.MapInputRecords)
		}
		if combiner && m.MapOutputRecords >= 9 {
			t.Errorf("combiner did not reduce shuffle volume: %d records", m.MapOutputRecords)
		}
		if !combiner && m.MapOutputRecords != 9 {
			t.Errorf("MapOutputRecords = %d, want 9", m.MapOutputRecords)
		}
		if m.SimSeconds <= 0 {
			t.Error("SimSeconds not computed")
		}
	}
}

// Property: word count totals are correct for arbitrary inputs, with and
// without a combiner, regardless of how records land in splits.
func TestWordCountQuick(t *testing.T) {
	f := func(wordIDs []uint8) bool {
		want := map[string]int{}
		var lines []string
		var cur []string
		for i, id := range wordIDs {
			w := fmt.Sprintf("w%d", id%16)
			want[w]++
			cur = append(cur, w)
			if i%5 == 4 {
				lines = append(lines, strings.Join(cur, " "))
				cur = nil
			}
		}
		if len(cur) > 0 {
			lines = append(lines, strings.Join(cur, " "))
		}
		for _, combiner := range []bool{false, true} {
			c := newTestCluster()
			writeLines(c, "in", 1, lines...)
			if _, err := c.Run(wordCountJob("in", "out", combiner)); err != nil {
				return false
			}
			got := map[string]int{}
			for _, l := range readLines(t, c, "out") {
				parts := strings.SplitN(l, "=", 2)
				n, _ := strconv.Atoi(parts[1])
				got[parts[0]] = n
			}
			if len(got) != len(want) {
				return false
			}
			for w, n := range want {
				if got[w] != n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A reduce-side join of two tagged inputs.
func TestReduceSideJoin(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "left", 1, "k1|l1", "k2|l2", "k1|l3")
	writeLines(c, "right", 1, "k1|r1", "k3|r2")
	job := &Job{
		Name:   "join",
		Inputs: []string{"left", "right"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			tag := "L"
			if tc.InputFile == "right" {
				tag = "R"
			}
			return MapperFunc(func(rec []byte, emit Emit) error {
				parts := strings.SplitN(string(rec), "|", 2)
				emit(parts[0], []byte(tag+parts[1]))
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				var ls, rs []string
				for _, v := range values {
					if v[0] == 'L' {
						ls = append(ls, string(v[1:]))
					} else {
						rs = append(rs, string(v[1:]))
					}
				}
				for _, l := range ls {
					for _, r := range rs {
						emit(key, []byte(key+":"+l+"+"+r))
					}
				}
				return nil
			})
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := readLines(t, c, "out")
	sort.Strings(got)
	want := []string{"k1:l1+r1", "k1:l3+r1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("join = %v, want %v", got, want)
	}
}

func TestMapOnlyJobWithSideInput(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "big", 1, "a|1", "b|2", "c|3")
	writeLines(c, "small", 1, "a|X", "c|Y")
	job := &Job{
		Name:       "mapjoin",
		Inputs:     []string{"big"},
		SideInputs: []string{"small"},
		Output:     "out",
		NewMapper: func(tc *TaskContext) Mapper {
			lookup := map[string]string{}
			for it := tc.SideInput("small").Records(0); it.Next(); {
				parts := strings.SplitN(string(it.Record()), "|", 2)
				lookup[parts[0]] = parts[1]
			}
			return MapperFunc(func(rec []byte, emit Emit) error {
				parts := strings.SplitN(string(rec), "|", 2)
				if v, ok := lookup[parts[0]]; ok {
					emit("", []byte(parts[0]+parts[1]+v))
				}
				return nil
			})
		},
	}
	m, err := c.Run(job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !m.MapOnly {
		t.Error("job should be map-only")
	}
	if m.SideInputBytes == 0 {
		t.Error("side input bytes not accounted")
	}
	got := readLines(t, c, "out")
	sort.Strings(got)
	if strings.Join(got, ",") != "a1X,c3Y" {
		t.Errorf("map join = %v", got)
	}
}

// TestSideInputsReadInPlace: the map tasks of a map-join share the open
// snapshot of the side input and read it in place. Over 12 driving splits
// the rows on two workers equal those on one, on a mem and a disk FS, and
// no DFS handle stays open after success, after a failing map task, or
// after a side input fails to open.
func TestSideInputsReadInPlace(t *testing.T) {
	for _, storage := range []string{"mem", "disk"} {
		t.Run(storage, func(t *testing.T) {
			fs := dfs.New()
			if storage == "disk" {
				var err error
				if fs, err = dfs.NewDisk(t.TempDir(), 2); err != nil {
					t.Fatal(err)
				}
			}
			cfg := DefaultConfig()
			cfg.ExecSplitBytes = 64 // every padded record is a split of its own
			c := NewClusterFS(cfg, fs)
			var big []string
			for i := range 12 {
				big = append(big, pad(fmt.Sprintf("k%d|%d", i%5, i)))
			}
			writeLines(c, "big", 1, big...)
			writeLines(c, "bad", 1, pad("k1|1"), pad("k2|FAIL"), pad("k3|3"))
			writeLines(c, "small", 1, "k1|X", "k3|Y", "k1|Z")
			job := func(input string, side ...string) *Job {
				return &Job{
					Name:       "mapjoin",
					Inputs:     []string{input},
					SideInputs: side,
					Output:     "out",
					NewMapper: func(tc *TaskContext) Mapper {
						f := tc.SideInput("small")
						lookup := make(map[string][]string, f.NumRecords())
						for it := f.Records(0); it.Next(); {
							k, v, _ := strings.Cut(string(it.Record()), "|")
							lookup[k] = append(lookup[k], v)
						}
						return MapperFunc(func(rec []byte, emit Emit) error {
							k, v, _ := strings.Cut(strings.TrimRight(string(rec), "."), "|")
							if v == "FAIL" {
								return errors.New("map task failed")
							}
							for _, s := range lookup[k] {
								emit("", []byte(k+"|"+v+"|"+s))
							}
							return nil
						})
					},
				}
			}
			if splits, files, err := c.makeSplits(job("big"), &Metrics{}); err != nil || len(splits) < 3 {
				t.Fatalf("%d driving splits (%v), want at least 3", len(splits), err)
			} else {
				closeFiles(files)
			}
			run := func(workers int) []string {
				c.testWorkers = workers
				if _, err := c.Run(job("big", "small")); err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				checkHandles(t, c)
				return readLines(t, c, "out")
			}
			one, two := run(1), run(2)
			if len(one) != 8 || strings.Join(one, ",") != strings.Join(two, ",") {
				t.Errorf("rows on 2 workers %q, on 1 %q; want the same 8", two, one)
			}
			if _, err := c.Run(job("bad", "small")); err == nil || !strings.Contains(err.Error(), "map task failed") {
				t.Errorf("failing map task: err = %v", err)
			}
			checkHandles(t, c)
			if _, err := c.Run(job("big", "small", "missing")); err == nil {
				t.Error("a missing side input did not fail the job")
			}
			checkHandles(t, c)
		})
	}
}

// MapCloser flushes buffered per-task state — the Algorithm 3 Map.clean()
// hook.
type bufferingMapper struct {
	counts map[string]int
}

func (b *bufferingMapper) Map(rec []byte, emit Emit) error {
	b.counts[string(rec)]++
	return nil
}

func (b *bufferingMapper) Close(emit Emit) error {
	for k, n := range b.counts {
		emit(k, []byte(strconv.Itoa(n)))
	}
	return nil
}

func TestMapCloserFlush(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "in", 1, "x", "y", "x", "x")
	job := &Job{
		Name:   "hashagg",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return &bufferingMapper{counts: map[string]int{}}
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				total := 0
				for _, v := range values {
					n, _ := strconv.Atoi(string(v))
					total += n
				}
				emit(key, []byte(key+"="+strconv.Itoa(total)))
				return nil
			})
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := readLines(t, c, "out")
	sort.Strings(got)
	if strings.Join(got, ",") != "x=3,y=1" {
		t.Errorf("hash agg = %v", got)
	}
}

// runWorkflow runs jobs in order and collects their metrics, stopping at
// the first error — the way an engine runs its chain of cycles.
func runWorkflow(c *Cluster, jobs []*Job) (*WorkflowMetrics, error) {
	wm := &WorkflowMetrics{}
	for _, j := range jobs {
		m, err := c.Run(j)
		if err != nil {
			return wm, err
		}
		wm.Jobs = append(wm.Jobs, m)
	}
	return wm, nil
}

func TestRunWorkflowChainsJobs(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "in", 1, "a b", "a")
	j1 := wordCountJob("in", "mid", true)
	j2 := &Job{
		Name:   "uppercase",
		Inputs: []string{"mid"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				emit("", bytes.ToUpper(rec))
				return nil
			})
		},
	}
	wm, err := runWorkflow(c, []*Job{j1, j2})
	if err != nil {
		t.Fatalf("runWorkflow: %v", err)
	}
	if wm.Cycles() != 2 || wm.MapOnlyCycles() != 1 {
		t.Errorf("cycles = %d, map-only = %d", wm.Cycles(), wm.MapOnlyCycles())
	}
	got := readLines(t, c, "out")
	sort.Strings(got)
	if strings.Join(got, ",") != "A=2,B=1" {
		t.Errorf("workflow output = %v", got)
	}
	if wm.SimSeconds() <= 0 || wm.MaterializedBytes() <= 0 {
		t.Error("workflow metrics not aggregated")
	}
}

func TestMissingInputError(t *testing.T) {
	c := newTestCluster()
	_, err := c.Run(wordCountJob("missing", "out", false))
	if err == nil {
		t.Fatal("Run succeeded with missing input")
	}
}

func TestCombinerCrossPartitionRejected(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "in", 1, "a")
	job := &Job{
		Name:       "badcombiner",
		Inputs:     []string{"in"},
		Output:     "out",
		Partitions: 8,
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				emit(string(rec), rec)
				return nil
			})
		},
		NewCombiner: func() Reducer {
			n := int32(0)
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				// Emit under a rotating key: eventually crosses partitions.
				k := fmt.Sprintf("other-key-%d", atomic.AddInt32(&n, 1))
				emit(k, values[0])
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error { return nil })
		},
	}
	if _, err := c.Run(job); err == nil {
		t.Fatal("combiner that re-keys across partitions should fail")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		c := newTestCluster()
		var lines []string
		for i := 0; i < 200; i++ {
			lines = append(lines, fmt.Sprintf("w%d w%d w%d", i%7, i%3, i%11))
		}
		writeLines(c, "in", 1, lines...)
		if _, err := c.Run(wordCountJob("in", "out", true)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return readLines(t, c, "out")
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("output differs across identical runs")
	}
}

func TestCostModelShape(t *testing.T) {
	cfg := DefaultConfig()
	base := &Metrics{
		MapInputRecords:   1_000_000,
		MapInputBytes:     200 << 20,
		MapStoredBytes:    200 << 20,
		MapOutputBytes:    100 << 20,
		MapOutputRecords:  500_000,
		OutputStoredBytes: 50 << 20,
	}
	cfg.cost(base)
	if base.SimSeconds <= jobStartupSec {
		t.Errorf("SimSeconds = %v, must exceed job startup", base.SimSeconds)
	}
	// More data, more time.
	bigger := *base
	bigger.MapInputBytes *= 10
	bigger.MapStoredBytes *= 10
	bigger.MapInputRecords *= 10
	bigger.MapOutputBytes *= 10
	bigger.MapOutputRecords *= 10
	bigger.OutputStoredBytes *= 10
	cfg.cost(&bigger)
	if bigger.SimSeconds <= base.SimSeconds {
		t.Errorf("10x data: %v <= %v", bigger.SimSeconds, base.SimSeconds)
	}
	// More nodes, less time (same data).
	cfg50 := cfg
	cfg50.Nodes = 50
	redo := *base
	cfg50.cost(&redo)
	if redo.SimSeconds > base.SimSeconds {
		t.Errorf("50 nodes slower than 10: %v > %v", redo.SimSeconds, base.SimSeconds)
	}
	// Map-only jobs are cheaper than the same volumes with a reduce phase.
	mo := *base
	mo.MapOnly = true
	cfg.cost(&mo)
	if mo.SimSeconds >= base.SimSeconds {
		t.Errorf("map-only %v >= full cycle %v", mo.SimSeconds, base.SimSeconds)
	}
	// DataScale multiplies volumes monotonically.
	scaled := cfg
	scaled.DataScale = 100
	sm := *base
	scaled.cost(&sm)
	if sm.SimSeconds <= base.SimSeconds {
		t.Errorf("DataScale=100: %v <= %v", sm.SimSeconds, base.SimSeconds)
	}
	// Compression reduces stored bytes and map tasks.
	orc := *base
	orc.MapStoredBytes = base.MapInputBytes / 10
	cfg.cost(&orc)
	if orc.SimulatedMapTasks >= base.SimulatedMapTasks {
		t.Errorf("compressed input should get fewer simulated map tasks: %d >= %d",
			orc.SimulatedMapTasks, base.SimulatedMapTasks)
	}
}

func TestEmptyInputStillRuns(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "in", 1)
	m, err := c.Run(wordCountJob("in", "out", false))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.MapInputRecords != 0 || m.OutputRecords != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if !c.FS.Exists("out") {
		t.Error("output file not created for empty input")
	}
}
