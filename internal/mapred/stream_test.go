package mapred

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/vec"
)

func streamFixture(c *Cluster) {
	lines := make([]string, 300)
	for i := range lines {
		lines[i] = fmt.Sprintf("s%d s%d s%d", i%13, i%5, i%31)
	}
	writeLines(c, "in", 1, lines...)
}

func streamCluster() *Cluster {
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 256
	c := NewCluster(cfg)
	streamFixture(c)
	return c
}

func streamedWordCount(in, out string, stream bool) *Job {
	j := wordCountJob(in, out, false)
	j.StreamOutput = stream
	return j
}

// TestStreamedOutputByteIdentical: a job's output must be byte-identical
// whether it streams or materialises, with every volume metric equal
// except the Streamed* counters; the streamed run leaves no stored output.
func TestStreamedOutputByteIdentical(t *testing.T) {
	c := streamCluster()
	run := func(stream bool, out string) (Metrics, []string, int64) {
		m, err := c.Run(streamedWordCount("in", out, stream))
		if err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
		checkHandles(t, c)
		return m.Volumes(), readLines(t, c, out), c.FS.TotalStoredBytes(out)
	}
	mat, matOut, matStored := run(false, "mat")
	str, strOut, strStored := run(true, "str")
	if str.StreamedRecords == 0 || str.StreamedBatches == 0 {
		t.Fatalf("stream path not exercised: %+v", str)
	}
	if str.StreamedRecords != str.OutputRecords {
		t.Errorf("StreamedRecords = %d, want OutputRecords %d", str.StreamedRecords, str.OutputRecords)
	}
	if mat.StreamedRecords != 0 || mat.StreamedBatches != 0 {
		t.Errorf("materialised run reports streaming: %+v", mat)
	}
	if strings.Join(matOut, "\n") != strings.Join(strOut, "\n") {
		t.Errorf("output diverged:\n%v\nvs\n%v", matOut, strOut)
	}
	if matStored == 0 || strStored != 0 {
		t.Errorf("stored output bytes = %d materialised, %d streamed; want >0, 0", matStored, strStored)
	}
	// The streamed counters are the only volumes allowed to differ — in
	// particular OutputStoredBytes stays the notional stored size, keeping
	// the cost model identical across modes.
	str.StreamedRecords, str.StreamedBatches = 0, 0
	if mat != str {
		t.Errorf("volumes diverged:\n%+v\nvs\n%+v", mat, str)
	}
}

// TestStreamedMapOnlyJob covers the direct map-output write site.
func TestStreamedMapOnlyJob(t *testing.T) {
	c := streamCluster()
	run := func(stream bool, out string) (Metrics, []string) {
		m, err := c.Run(&Job{
			Name:   "ident",
			Inputs: []string{"in"},
			Output: out,
			NewMapper: func(tc *TaskContext) Mapper {
				return MapperFunc(func(rec []byte, emit Emit) error {
					emit("", append([]byte(nil), rec...))
					return nil
				})
			},
			StreamOutput: stream,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkHandles(t, c)
		return m.Volumes(), readLines(t, c, out)
	}
	mat, matOut := run(false, "mat")
	str, strOut := run(true, "str")
	if str.StreamedRecords != str.OutputRecords || str.StreamedBatches == 0 {
		t.Fatalf("map-only stream path not exercised: %+v", str)
	}
	if strings.Join(matOut, "\n") != strings.Join(strOut, "\n") {
		t.Error("map-only output diverged between modes")
	}
	str.StreamedRecords, str.StreamedBatches = 0, 0
	if mat != str {
		t.Errorf("volumes diverged:\n%+v\nvs\n%+v", mat, str)
	}
}

// TestStreamOverflowMaterializes: a tiny overflow threshold forces the
// overflow path; the output must land in the backend byte-identically
// with the streamed counters reset.
func TestStreamOverflowMaterializes(t *testing.T) {
	c := streamCluster()
	c.testStreamOverflowBytes = 32
	m, err := c.Run(streamedWordCount("in", "out", true))
	if err != nil {
		t.Fatal(err)
	}
	if m.StreamedRecords != 0 || m.StreamedBatches != 0 {
		t.Errorf("overflowed run still reports streaming: %+v", m)
	}
	checkHandles(t, c)
	if c.FS.TotalStoredBytes("out") == 0 {
		t.Error("overflowed output has no stored bytes")
	}
	if _, err := c.Run(streamedWordCount("in", "ref", false)); err != nil {
		t.Fatal(err)
	}
	want, got := readLines(t, c, "ref"), readLines(t, c, "out")
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("output diverged after overflow:\n%v\nvs\n%v", want, got)
	}
}

// failingAppendBackend fails the failAt-th AppendBatch its writers receive
// (0 fails none) and counts its writers until they are closed. Run commits
// output on its calling goroutine, so plain counters do.
type failingAppendBackend struct {
	dfs.Backend
	failAt, calls, open int
}

func (b *failingAppendBackend) Create(name string, ratio float64) (dfs.FileWriter, error) {
	fw, err := b.Backend.Create(name, ratio)
	if err != nil {
		return nil, err
	}
	b.open++
	return failingAppendWriter{fw, b}, nil
}

type failingAppendWriter struct {
	dfs.FileWriter
	b *failingAppendBackend
}

func (w failingAppendWriter) AppendBatch(b *vec.Batch) error {
	if w.b.calls++; w.b.calls == w.b.failAt {
		return errors.New("injected append failure")
	}
	return w.FileWriter.AppendBatch(b)
}

func (w failingAppendWriter) Close() error {
	w.b.open--
	return w.FileWriter.Close()
}

// TestStreamOverflowFaultSweep fails each backend AppendBatch of a streamed
// output that overflows, in turn. The first is the overflow's append of
// the batches the stream had committed; the rest go straight to the
// backend file. Each failure fails the job with every writer closed, and
// the next run writes the materialised run's output.
func TestStreamOverflowFaultSweep(t *testing.T) {
	b := &failingAppendBackend{Backend: dfs.NewMemBackend()}
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 256
	c := NewClusterFS(cfg, dfs.NewWithBackend(b))
	streamFixture(c)
	c.testStreamOverflowBytes = 32
	if _, err := c.Run(wordCountJob("in", "ref", false)); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(readLines(t, c, "ref"), "\n")
	run := func(failAt int) error {
		b.failAt, b.calls = failAt, 0
		_, err := c.Run(streamedWordCount("in", "out", true))
		checkHandles(t, c)
		if b.open != 0 {
			t.Fatalf("fault at %d: %d backend writers left open", failAt, b.open)
		}
		return err
	}
	if err := run(0); err != nil {
		t.Fatal(err)
	}
	calls := b.calls
	if calls < 2 {
		t.Fatalf("%d backend appends: the output did not overflow", calls)
	}
	for n := 1; n <= calls; n++ {
		if err := run(n); err == nil || !strings.Contains(err.Error(), "injected append failure") {
			t.Errorf("fault at append %d of %d: err = %v", n, calls, err)
		}
		if err := run(0); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(readLines(t, c, "out"), "\n"); got != want {
			t.Fatalf("after a fault at append %d: output diverged", n)
		}
	}
}

// TestStreamingRequiresOptIn: only Job.StreamOutput streams an output; a
// job that did not mark it safe materialises.
func TestStreamingRequiresOptIn(t *testing.T) {
	c := streamCluster()
	m, err := c.Run(wordCountJob("in", "out", false))
	if err != nil {
		t.Fatal(err)
	}
	if m.StreamedRecords != 0 || m.StreamedBatches != 0 {
		t.Errorf("job without StreamOutput streamed: %+v", m)
	}
	if c.FS.TotalStoredBytes("out") == 0 {
		t.Error("opt-out output not materialised")
	}
}

// TestStreamedChainedJobs: a downstream job consumes a streamed
// intermediate through the normal split machinery (and as a broadcast
// side input); the final output must match the fully materialised chain
// while the intermediate never touches the backend.
func TestStreamedChainedJobs(t *testing.T) {
	chain := func(stream bool) (*Cluster, *WorkflowMetrics) {
		c := streamCluster()
		j2 := wordCountJob("mid", "out", true)
		j2.SideInputs = []string{"mid"}
		wm, err := runWorkflow(c, []*Job{streamedWordCount("in", "mid", stream), j2})
		if err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
		checkHandles(t, c)
		return c, wm
	}
	cm, _ := chain(false)
	cs, wm := chain(true)
	if wm.StreamedRecords() == 0 || wm.StreamedBatches() == 0 {
		t.Fatal("workflow streamed nothing")
	}
	if got, want := readLines(t, cs, "out"), readLines(t, cm, "out"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("chained output diverged:\n%v\nvs\n%v", got, want)
	}
	if cs.FS.TotalStoredBytes("mid") != 0 {
		t.Error("streamed intermediate reached the backend")
	}
	if cm.FS.TotalStoredBytes("mid") == 0 {
		t.Error("reference intermediate missing")
	}
	if wm.MaterializedStoredBytes() >= cm.FS.TotalStoredBytes("") {
		t.Errorf("materialised stored bytes not reduced: streamed %d vs reference %d",
			wm.MaterializedStoredBytes(), cm.FS.TotalStoredBytes(""))
	}
}

// TestStreamedDeterminismMatrix extends the determinism contract to
// streamed output: worker counts x StreamOutput must produce identical
// bytes.
func TestStreamedDeterminismMatrix(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		c := streamCluster()
		c.testWorkers = workers
		for _, stream := range []bool{false, true} {
			out := fmt.Sprintf("out-%v", stream)
			if _, err := c.Run(streamedWordCount("in", out, stream)); err != nil {
				t.Fatalf("w=%d stream=%v: %v", workers, stream, err)
			}
			checkHandles(t, c)
			got := strings.Join(readLines(t, c, out), "\n")
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("w=%d stream=%v: output diverged", workers, stream)
			}
		}
	}
}

// failingDeleteBackend fails deletes under _spill/ to exercise the
// cleanup error path; everything else passes through.
type failingDeleteBackend struct {
	dfs.Backend
	err error
}

func (b failingDeleteBackend) Delete(name string) error {
	if strings.HasPrefix(name, "_spill/") {
		return b.err
	}
	return b.Backend.Delete(name)
}

// TestCleanupSpillErrorSurfaces: a failed spill delete leaks storage and
// must fail the job with ErrSpillCleanup rather than pass silently.
func TestCleanupSpillErrorSurfaces(t *testing.T) {
	injected := errors.New("injected delete failure")
	fs := dfs.NewWithBackend(failingDeleteBackend{Backend: dfs.NewMemBackend(), err: injected})
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 256
	cfg.SpillThresholdBytes = 64
	c := NewClusterFS(cfg, fs)
	spillFixture(c)
	m, err := c.Run(wordCountJob("in", "out", false))
	if !errors.Is(err, ErrSpillCleanup) || !errors.Is(err, injected) {
		t.Fatalf("err = %v, want ErrSpillCleanup wrapping the backend failure", err)
	}
	if m != nil {
		t.Errorf("metrics returned alongside cleanup failure: %+v", m)
	}
	checkHandles(t, c)
	// The job itself completed: its output is present and correct.
	ref := spillCluster(0)
	spillFixture(ref)
	if _, err := ref.Run(wordCountJob("in", "out", false)); err != nil {
		t.Fatal(err)
	}
	want := readLines(t, ref, "out")
	if got := readLines(t, c, "out"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Error("output corrupted by cleanup failure")
	}
}

// scribblingBackend keeps every record slice it is handed and overwrites
// a file's records when the file is deleted, so a reader that aliased them
// sees the damage.
type scribblingBackend struct {
	dfs.Backend
	recs map[string]*[][]byte
}

type scribblingWriter struct {
	dfs.FileWriter
	recs *[][]byte
}

func (w scribblingWriter) AppendBatch(b *vec.Batch) error {
	for r := range b.Rows() {
		*w.recs = append(*w.recs, b.Record(r))
	}
	return w.FileWriter.AppendBatch(b)
}

func (b *scribblingBackend) Create(name string, ratio float64) (dfs.FileWriter, error) {
	fw, err := b.Backend.Create(name, ratio)
	if err != nil {
		return nil, err
	}
	b.recs[name] = new([][]byte)
	return scribblingWriter{FileWriter: fw, recs: b.recs[name]}, nil
}

func (b *scribblingBackend) Delete(name string) error {
	if recs := b.recs[name]; recs != nil {
		for _, rec := range *recs {
			for i := range rec {
				rec[i] = 0xff
			}
		}
	}
	return b.Backend.Delete(name)
}

// TestDecodeKVCopiesValue: a pair merged from a spill run must not alias
// the run's records — the run's file is closed and deleted long before the
// partition is reduced.
func TestDecodeKVCopiesValue(t *testing.T) {
	b := &scribblingBackend{Backend: dfs.NewMemBackend(), recs: map[string]*[][]byte{}}
	c := NewClusterFS(DefaultConfig(), dfs.NewWithBackend(b))
	noCheck := func() error { return nil }
	src := &arena{}
	run := []entry{src.add("k", []byte("payload")), src.add("k2", []byte("more"))}
	ref, err := c.writeSpillRun("_spill/out/t0000-r0000-p0000", src, run, nil, noCheck)
	if err != nil {
		t.Fatal(err)
	}
	back := &arena{}
	got, err := c.readSpillRun(ref, back, noCheck)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := mergeRuns([][]entry{got}, arenas{back}, noCheck)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.Delete(ref.file); err != nil {
		t.Fatal(err)
	}
	if len(*b.recs[ref.file]) != 2 {
		t.Fatalf("backend saw %d spill records, want 2", len(*b.recs[ref.file]))
	}
	a := arenas{back}
	if len(merged) != 2 || a.key(merged[0]) != "k" || string(a.value(merged[0])) != "payload" ||
		a.key(merged[1]) != "k2" || string(a.value(merged[1])) != "more" {
		t.Fatalf("merged pairs alias the spill run: %q %q", a.key(merged[0]), a.value(merged[0]))
	}
}

// TestSpillRunNameFormat pins the allocation-lean builder to the original
// fmt format, including wide values that exceed the padding.
func TestSpillRunNameFormat(t *testing.T) {
	for _, tc := range [][3]int{{0, 0, 0}, {5, 42, 3}, {1234, 9999, 12}, {99999, 0, 100000}} {
		want := fmt.Sprintf("_spill/q1/out/t%04d-r%04d-p%04d", tc[0], tc[1], tc[2])
		if got := spillRunName("q1/out", tc[0], tc[1], tc[2]); got != want {
			t.Errorf("spillRunName(%v) = %q, want %q", tc, got, want)
		}
	}
}
