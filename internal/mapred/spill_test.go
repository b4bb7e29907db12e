package mapred

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/rdf"
)

// spillFixture writes enough input lines that a small threshold forces
// several spill runs per map task.
func spillFixture(c *Cluster) {
	lines := make([]string, 400)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%d w%d w%d w%d", i%7, i%3, i%11, i%29)
	}
	writeLines(c, "in", 1, lines...)
}

func spillCluster(threshold int64) *Cluster {
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 256 // several map tasks
	cfg.SpillThresholdBytes = threshold
	return NewCluster(cfg)
}

// Output must be byte-identical with spilling on and off; with no
// combiner every deterministic volume metric except the Spill* counters
// must match too.
func TestSpillOutputIdentical(t *testing.T) {
	run := func(threshold int64) (Metrics, []string) {
		c := spillCluster(threshold)
		spillFixture(c)
		m, err := c.Run(wordCountJob("in", "out", false))
		if err != nil {
			t.Fatalf("threshold=%d: %v", threshold, err)
		}
		checkHandles(t, c)
		return m.Volumes(), readLines(t, c, "out")
	}
	base, baseOut := run(0)
	spilled, spilledOut := run(64)
	if spilled.SpillRuns == 0 || spilled.SpillRecords == 0 || spilled.SpillBytes == 0 {
		t.Fatalf("spill path not exercised: %+v", spilled)
	}
	if base.SpillRuns != 0 {
		t.Fatalf("threshold 0 spilled: %+v", base)
	}
	if strings.Join(baseOut, "\n") != strings.Join(spilledOut, "\n") {
		t.Errorf("output diverged:\n%v\nvs\n%v", baseOut, spilledOut)
	}
	// Spill counters are the only volumes allowed to differ.
	spilled.SpillRuns, spilled.SpillRecords, spilled.SpillBytes = 0, 0, 0
	if base != spilled {
		t.Errorf("volumes diverged:\n%+v\nvs\n%+v", base, spilled)
	}
}

// With a combiner, combining happens per spill run, so shuffle volumes
// may legitimately differ — but the reduced output must not.
func TestSpillWithCombinerOutputIdentical(t *testing.T) {
	run := func(threshold int64) []string {
		c := spillCluster(threshold)
		spillFixture(c)
		m, err := c.Run(wordCountJob("in", "out", true))
		if err != nil {
			t.Fatalf("threshold=%d: %v", threshold, err)
		}
		if threshold > 0 && m.SpillRuns == 0 {
			t.Fatalf("spill path not exercised with combiner")
		}
		checkHandles(t, c)
		return readLines(t, c, "out")
	}
	if a, b := run(0), run(64); strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("combiner output diverged:\n%v\nvs\n%v", a, b)
	}
}

// Spilling must bound resident shuffle memory: the per-task buffered
// high-water mark stays within one record's emits of the threshold.
func TestSpillBoundsBufferedBytes(t *testing.T) {
	const threshold = 256
	c := spillCluster(threshold)
	c.testSpillHighWater = new(atomic.Int64)
	spillFixture(c)
	if _, err := c.Run(wordCountJob("in", "out", false)); err != nil {
		t.Fatal(err)
	}
	hw := c.testSpillHighWater.Load()
	if hw == 0 {
		t.Fatal("high-water mark not recorded")
	}
	// One input line emits four single-byte-value pairs (~30 logical kv
	// bytes); allow that overshoot on top of the threshold.
	if slack := int64(64); hw > threshold+slack {
		t.Errorf("buffered high-water = %d, want <= %d", hw, threshold+slack)
	}
}

// Spill runs are temporary: the FS must hold none after the job, on the
// mem and disk backends alike.
func TestSpillRunsCleanedUp(t *testing.T) {
	backends := map[string]*dfs.FS{"mem": dfs.New()}
	disk, err := dfs.NewDisk(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	backends["disk"] = disk
	for name, fs := range backends {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ExecSplitBytes = 256
			cfg.SpillThresholdBytes = 64
			c := NewClusterFS(cfg, fs)
			spillFixture(c)
			m, err := c.Run(wordCountJob("in", "out", false))
			if err != nil {
				t.Fatal(err)
			}
			if m.SpillRuns == 0 {
				t.Fatal("spill path not exercised")
			}
			if left := fs.List("_spill/"); len(left) != 0 {
				t.Errorf("spill runs left behind: %v", left)
			}
			checkHandles(t, c)
		})
	}
}

// The full matrix: worker counts x spill thresholds x backends x entry
// pages from a fresh free list or a poisoned one must all produce the same
// output bytes (the determinism contract extended to storage and
// spilling), for the word count and for a job whose decoded ID fields are
// views of its records and values (idJoinJob).
func TestSpillDeterminismMatrix(t *testing.T) {
	d := idDict()
	for _, job := range []func() *Job{
		func() *Job { return wordCountJob("in", "out", true) },
		func() *Job { return idJoinJob(d) },
	} {
		var want string
		for _, workers := range []int{1, 4} {
			for _, threshold := range []int64{0, 16, 64, 1 << 20} {
				for _, backend := range []string{"mem", "disk", "mem-poisoned"} {
					cfg := DefaultConfig()
					cfg.ExecSplitBytes = 256
					cfg.SpillThresholdBytes = threshold
					fs := dfs.New()
					if backend == "disk" {
						var err error
						if fs, err = dfs.NewDisk(t.TempDir(), 3); err != nil {
							t.Fatal(err)
						}
					}
					c := NewClusterFS(cfg, fs)
					c.testWorkers = workers
					if backend == "mem-poisoned" {
						c = c.WithContext(context.Background())
						c.free.poison = true
					}
					spillFixture(c)
					idFixture(c, d)
					j := job()
					if _, err := c.Run(j); err != nil {
						t.Fatalf("%s w=%d t=%d %s: %v", j.Name, workers, threshold, backend, err)
					}
					checkHandles(t, c)
					got := strings.Join(readLines(t, c, "out"), "\n")
					if want == "" {
						want = got
					} else if got != want {
						t.Errorf("%s w=%d t=%d %s: output diverged", j.Name, workers, threshold, backend)
					}
				}
			}
		}
	}
}

// idDict holds the term IDs 0..299: one- and two-byte ID-strings.
func idDict() *rdf.Dict {
	d := rdf.NewDict()
	for i := range 299 {
		d.Add("L" + strconv.Itoa(i))
	}
	return d
}

// idFixture writes the ID-tuples idJoinJob reads: 13 first fields, each
// with about 30 second fields.
func idFixture(c *Cluster, d *rdf.Dict) {
	id := func(i int) string { s, _ := d.IDString(uint64(i)); return s }
	recs := make([]string, 400)
	for i := range recs {
		recs[i] = string(codec.Tuple{id(i % 13 * 23), id(i * 7 % 300)}.EncodeIDs())
	}
	writeLines(c, "ids", 1, recs...)
}

// idJoinJob self-joins the ID-tuples of "ids" on their first field. The
// mapper emits each record under its decoded first field, a view of the
// record; the reducer decodes its whole key group into views of the values
// before it emits a row, so every decoded field must stay valid until the
// group is done.
func idJoinJob(d *rdf.Dict) *Job {
	return &Job{
		Name:   "idjoin",
		Inputs: []string{"ids"},
		Output: "out",
		NewMapper: func(*TaskContext) Mapper {
			var t codec.Tuple
			return MapperFunc(func(rec []byte, emit Emit) error {
				var err error
				if t, err = codec.AppendDecodeIDTuple(t[:0], rec, d); err != nil {
					return err
				}
				emit(t[0], rec)
				return nil
			})
		},
		NewReducer: func() Reducer {
			var (
				fields codec.Tuple
				buf    []byte
			)
			return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
				fields = fields[:0]
				for _, v := range values {
					var err error
					if fields, err = codec.AppendDecodeIDTuple(fields, v, d); err != nil {
						return err
					}
				}
				for i := 0; i < len(fields); i += 2 {
					for j := 0; j < len(fields); j += 2 {
						buf = codec.Tuple{fields[i], fields[i+1], fields[j+1]}.AppendEncodeIDs(buf[:0])
						emit(key, buf)
					}
				}
				return nil
			})
		},
	}
}

// errInjectedOpen is the failure openCountingBackend injects.
var errInjectedOpen = errors.New("injected open failure")

// openCountingBackend records every spill run opened through it. At the
// failAt-th open it cancels the job (cancel set) or fails the open.
type openCountingBackend struct {
	dfs.Backend
	failAt int
	cancel context.CancelFunc
	opened []*dfs.File
}

func (b *openCountingBackend) Open(name string) (*dfs.File, error) {
	if !strings.HasPrefix(name, "_spill/") {
		return b.Backend.Open(name)
	}
	if b.cancel == nil && len(b.opened)+1 == b.failAt {
		return nil, errInjectedOpen
	}
	f, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	b.opened = append(b.opened, f)
	if b.cancel != nil && len(b.opened) == b.failAt {
		b.cancel()
	}
	return f, nil
}

// Regression: a spill run's file was closed only once the merge exhausted
// it, so a cancellation mid-merge, or a failed open of a later run, left
// every other opened run open — a file descriptor each on the disk
// backend. Every opened run must be closed on every path: closing it again
// must report it closed already.
func TestSpillRunsClosedOnMergeErrors(t *testing.T) {
	for _, cancelled := range []bool{true, false} {
		t.Run(fmt.Sprintf("cancelled=%v", cancelled), func(t *testing.T) {
			disk, err := dfs.NewDiskBackend(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b := &openCountingBackend{Backend: disk, failAt: 2}
			want := errInjectedOpen
			if cancelled {
				b.cancel, want = cancel, context.Canceled
			}
			cfg := DefaultConfig()
			cfg.ExecSplitBytes = 256
			cfg.SpillThresholdBytes = 64
			c := NewClusterFS(cfg, dfs.NewWithBackend(b))
			c.testWorkers = 1
			spillFixture(c)
			if _, err := c.WithContext(ctx).Run(wordCountJob("in", "out", false)); !errors.Is(err, want) {
				t.Fatalf("Run error = %v, want %v", err, want)
			}
			if len(b.opened) == 0 {
				t.Fatal("no spill run was opened")
			}
			leaked := 0
			for _, f := range b.opened {
				if err := f.Close(); !errors.Is(err, os.ErrClosed) {
					leaked++
				}
			}
			if leaked > 0 {
				t.Errorf("%d of %d opened spill runs were left open", leaked, len(b.opened))
			}
			checkHandles(t, c)
		})
	}
}
