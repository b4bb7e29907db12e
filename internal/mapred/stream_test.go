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
		wm, err := c.RunWorkflow([]*Job{streamedWordCount("in", "mid", stream), j2})
		if err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
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

// TestStreamedDeterminismMatrix extends the determinism contract to
// streamed output: worker counts x StreamOutput must produce identical
// bytes.
func TestStreamedDeterminismMatrix(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		c := streamCluster()
		c.testReduceWorkers = workers
		for _, stream := range []bool{false, true} {
			out := fmt.Sprintf("out-%v", stream)
			if _, err := c.Run(streamedWordCount("in", out, stream)); err != nil {
				t.Fatalf("w=%d stream=%v: %v", workers, stream, err)
			}
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

// TestDecodeKVCopiesValue: the decoded value must not alias the source
// record — reduce groups retain it until the partition is reduced.
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
