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

// copyToBackend writes the records of the file from to a backend file
// to, of the same compression ratio, through FS.Create.
func copyToBackend(t *testing.T, c *Cluster, from, to string) {
	t.Helper()
	f, err := c.FS.Open(from)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := c.FS.Create(to, f.CompressionRatio())
	if err != nil {
		t.Fatal(err)
	}
	for it := f.Records(0); it.Next(); {
		w.Write(it.Record())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkRegistered fails t unless the job output out lives in the FS's
// in-memory registry, not the backend, and its snapshot reports the
// volumes m does.
func checkRegistered(t *testing.T, c *Cluster, out string, m *Metrics) {
	t.Helper()
	if got := c.FS.List(out); len(got) != 0 {
		t.Errorf("output %s reached the backend: %v", out, got)
	}
	f, err := c.FS.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if int64(f.NumRecords()) != m.OutputRecords || f.Bytes() != m.OutputBytes || f.StoredBytes() != m.OutputStoredBytes {
		t.Errorf("output %s: %d records, %d bytes, %d stored; metrics say %d, %d, %d",
			out, f.NumRecords(), f.Bytes(), f.StoredBytes(), m.OutputRecords, m.OutputBytes, m.OutputStoredBytes)
	}
}

// TestStreamedOutputByteIdentical: a reduce job's output lives in the
// FS's registry and reads back exactly like a backend file of its records:
// the same records, record count, logical and stored bytes, the latter
// being what the metrics report.
func TestStreamedOutputByteIdentical(t *testing.T) {
	c := streamCluster()
	job := wordCountJob("in", "out", false)
	job.OutputCompression = 0.5
	m, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	checkHandles(t, c)
	checkRegistered(t, c, "out", m)
	copyToBackend(t, c, "out", "ref")
	if got, want := readLines(t, c, "out"), readLines(t, c, "ref"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("output diverged from its backend copy:\n%v\nvs\n%v", got, want)
	}
	f, err := c.FS.Open("ref")
	if err != nil {
		t.Fatal(err)
	}
	if f.StoredBytes() != m.OutputStoredBytes {
		t.Errorf("backend copy stores %d bytes, the metrics charge %d", f.StoredBytes(), m.OutputStoredBytes)
	}
	f.Close()
	checkHandles(t, c)
}

// TestStreamedMapOnlyJob covers the direct map-output write site: an
// identity job's output holds its input's records, in the registry.
func TestStreamedMapOnlyJob(t *testing.T) {
	c := streamCluster()
	m, err := c.Run(&Job{
		Name:   "ident",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				emit("", append([]byte(nil), rec...))
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkHandles(t, c)
	checkRegistered(t, c, "out", m)
	if got, want := readLines(t, c, "out"), readLines(t, c, "in"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Error("map-only output differs from its input")
	}
	if m.OutputRecords != m.MapInputRecords || m.OutputBytes != m.MapInputBytes {
		t.Errorf("volumes: %+v", m)
	}
}

// TestStreamedChainedJobs: a downstream job consumes a registered
// intermediate through the normal split machinery and as a broadcast side
// input; its output and volumes must equal those of the same job over a
// backend copy of the intermediate.
func TestStreamedChainedJobs(t *testing.T) {
	c := streamCluster()
	consumer := func(mid, out string) *Job {
		j := wordCountJob(mid, out, true)
		j.SideInputs = []string{mid}
		return j
	}
	m1, err := c.Run(wordCountJob("in", "mid", false))
	if err != nil {
		t.Fatal(err)
	}
	checkRegistered(t, c, "mid", m1)
	copyToBackend(t, c, "mid", "mid-ref")
	got, err := c.Run(consumer("mid", "out"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(consumer("mid-ref", "out-ref"))
	if err != nil {
		t.Fatal(err)
	}
	checkHandles(t, c)
	if g, w := readLines(t, c, "out"), readLines(t, c, "out-ref"); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("chained output diverged:\n%v\nvs\n%v", g, w)
	}
	if got.Volumes() != want.Volumes() {
		t.Errorf("volumes diverged:\n%+v\nvs\n%+v", got.Volumes(), want.Volumes())
	}
}

// TestStreamedDeterminismMatrix extends the determinism contract to the
// registry: worker counts must produce identical bytes.
func TestStreamedDeterminismMatrix(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		c := streamCluster()
		c.testWorkers = workers
		if _, err := c.Run(wordCountJob("in", "out", false)); err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		checkHandles(t, c)
		got := strings.Join(readLines(t, c, "out"), "\n")
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("w=%d: output diverged", workers)
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
