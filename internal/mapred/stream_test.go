package mapred

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rapidanalytics/internal/dfs"
)

func streamFixture(c *Cluster) {
	lines := make([]string, 300)
	for i := range lines {
		lines[i] = fmt.Sprintf("s%d s%d s%d", i%13, i%5, i%31)
	}
	writeLines(c, "in", 1, lines...)
}

func streamCluster(streaming bool) *Cluster {
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 256
	cfg.Streaming = streaming
	return NewCluster(cfg)
}

func streamedWordCount(in, out string) *Job {
	j := wordCountJob(in, out, false)
	j.StreamOutput = true
	return j
}

// TestStreamedOutputByteIdentical: a job's output must be byte-identical
// whether it streams or materialises, with every volume metric equal
// except the Streamed* counters; the streamed run leaves no stored output.
func TestStreamedOutputByteIdentical(t *testing.T) {
	run := func(streaming bool) (Metrics, []string, int64) {
		c := streamCluster(streaming)
		streamFixture(c)
		m, err := c.Run(streamedWordCount("in", "out"))
		if err != nil {
			t.Fatalf("streaming=%v: %v", streaming, err)
		}
		return m.Volumes(), readLines(t, c, "out"), c.FS.TotalStoredBytes("out")
	}
	mat, matOut, matStored := run(false)
	str, strOut, strStored := run(true)
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
	identity := func(in, out string) *Job {
		return &Job{
			Name:   "ident",
			Inputs: []string{in},
			Output: out,
			NewMapper: func(tc *TaskContext) Mapper {
				return MapperFunc(func(rec []byte, emit Emit) error {
					emit("", append([]byte(nil), rec...))
					return nil
				})
			},
			StreamOutput: true,
		}
	}
	run := func(streaming bool) (Metrics, []string) {
		c := streamCluster(streaming)
		streamFixture(c)
		m, err := c.Run(identity("in", "out"))
		if err != nil {
			t.Fatal(err)
		}
		return m.Volumes(), readLines(t, c, "out")
	}
	mat, matOut := run(false)
	str, strOut := run(true)
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

// TestStreamOverflowMaterializes: a tiny StreamSpillBytes forces the
// overflow path; the output must land in the backend byte-identically
// with the streamed counters reset.
func TestStreamOverflowMaterializes(t *testing.T) {
	c := streamCluster(true)
	c.Config.StreamSpillBytes = 32
	streamFixture(c)
	m, err := c.Run(streamedWordCount("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if m.StreamedRecords != 0 || m.StreamedBatches != 0 {
		t.Errorf("overflowed run still reports streaming: %+v", m)
	}
	if c.FS.TotalStoredBytes("out") == 0 {
		t.Error("overflowed output has no stored bytes")
	}
	want := readLines(t, streamRunPlain(t), "out")
	got := readLines(t, c, "out")
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("output diverged after overflow:\n%v\nvs\n%v", want, got)
	}
}

// streamRunPlain runs the reference non-streamed word count.
func streamRunPlain(t *testing.T) *Cluster {
	t.Helper()
	c := streamCluster(false)
	streamFixture(c)
	if _, err := c.Run(streamedWordCount("in", "out")); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamingRequiresOptIn: Config.Streaming alone must not stream jobs
// that did not mark their output safe.
func TestStreamingRequiresOptIn(t *testing.T) {
	c := streamCluster(true)
	streamFixture(c)
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
	chain := func(streaming bool) (*Cluster, *WorkflowMetrics) {
		c := streamCluster(streaming)
		streamFixture(c)
		j1 := streamedWordCount("in", "mid")
		j2 := wordCountJob("mid", "out", true)
		j2.SideInputs = []string{"mid"}
		wm, err := c.RunWorkflow([]*Job{j1, j2})
		if err != nil {
			t.Fatalf("streaming=%v: %v", streaming, err)
		}
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

// TestStreamedDeterminismMatrix extends the determinism contract to the
// streaming knob: worker counts x streaming modes x batch sizes must
// produce identical bytes.
func TestStreamedDeterminismMatrix(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		for _, streaming := range []bool{false, true} {
			for _, rows := range []int{0, 3, 64} {
				cfg := DefaultConfig()
				cfg.ExecSplitBytes = 256
				cfg.Streaming = streaming
				cfg.StreamBatchRows = rows
				c := NewCluster(cfg)
				c.testReduceWorkers = workers
				streamFixture(c)
				if _, err := c.Run(streamedWordCount("in", "out")); err != nil {
					t.Fatalf("w=%d s=%v rows=%d: %v", workers, streaming, rows, err)
				}
				got := strings.Join(readLines(t, c, "out"), "\n")
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("w=%d s=%v rows=%d: output diverged", workers, streaming, rows)
				}
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

// TestDecodeKVCopiesValue: the decoded value must survive mutation of the
// source record — the retention window of reduce groups outlives any
// buffer-reusing iterator the record came from.
func TestDecodeKVCopiesValue(t *testing.T) {
	rec := encodeKV(kv{key: "k", value: []byte("payload")})
	e, err := decodeKV(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		rec[i] = 0xff
	}
	if e.key != "k" || string(e.value) != "payload" {
		t.Fatalf("decoded kv aliases source record: key %q value %q", e.key, e.value)
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
