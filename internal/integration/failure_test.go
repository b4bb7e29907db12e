package integration

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/leaktest"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/vec"
)

// Failure injection: jobs must surface mapper/reducer errors and corrupt
// records instead of silently dropping data.

func TestMapperErrorAbortsJob(t *testing.T) {
	c, _ := setup(t, ecommerceGraph())
	boom := errors.New("boom")
	job := &mapred.Job{
		Name:   "failing",
		Inputs: []string{"test/tg/" + firstFile(t, c, "test/tg/")},
		Output: "out",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error { return boom })
		},
	}
	_, err := c.Run(job)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("mapper error not propagated: %v", err)
	}
	// The failed job must not leave a usable output file behind the
	// caller's back... it may exist but the error is authoritative.
}

func TestReducerErrorAbortsJob(t *testing.T) {
	c, _ := setup(t, ecommerceGraph())
	job := &mapred.Job{
		Name:   "failing-reduce",
		Inputs: []string{"test/tg/" + firstFile(t, c, "test/tg/")},
		Output: "out",
		NewMapper: func(tc *mapred.TaskContext) mapred.Mapper {
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				emit("k", rec)
				return nil
			})
		},
		NewReducer: func() mapred.Reducer {
			return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
				return errors.New("reduce exploded")
			})
		},
	}
	if _, err := c.Run(job); err == nil || !strings.Contains(err.Error(), "reduce exploded") {
		t.Fatalf("reducer error not propagated: %v", err)
	}
}

func firstFile(t *testing.T, c *mapred.Cluster, prefix string) string {
	t.Helper()
	names := c.FS.List(prefix)
	if len(names) == 0 {
		t.Fatalf("no files under %s", prefix)
	}
	return strings.TrimPrefix(names[0], prefix)
}

// Corrupt triplegroup records in the store must fail the NTGA engines
// loudly, not skew aggregates.
func TestCorruptTriplegroupDetected(t *testing.T) {
	g := ecommerceGraph()
	c, ds := setup(t, g)
	// Append garbage to every triplegroup file.
	for _, name := range c.FS.List("test/tg/") {
		f, err := c.FS.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := f.AllRecords()
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		w, err := c.FS.Create(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			w.Write(rec)
		}
		w.Write([]byte{0xFF, 0xFE, 0x01})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	aq := buildAQ(t, queries["mg1"])
	for _, e := range engines()[2:] { // the NTGA engines read these files
		if _, _, err := engine.Execute(c, ds, e, aq); err == nil {
			t.Errorf("%s accepted corrupt triplegroup records", e.Name())
		}
	}
}

// A query over data that simply lacks the queried properties must return
// cleanly (empty or default rows), not error.
func TestQueryOverForeignData(t *testing.T) {
	g := &rdf.Graph{}
	g.Add(rdf.T(iri("x"), iri("unrelated"), lit("1")))
	aq := buildAQ(t, queries["mg1"])
	for _, e := range engines() {
		c, ds := setup(t, g)
		res, _, err := engine.Execute(c, ds, e, aq)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: rows = %v, want none (grouped side empty)", e.Name(), res.Rows)
		}
	}
}

// Engines must not mutate the base dataset: running one engine then
// another over the same loaded dataset yields identical results (the
// harness relies on this).
func TestEnginesDoNotCorruptSharedDataset(t *testing.T) {
	g := ecommerceGraph()
	c, ds := setup(t, g)
	aq := buildAQ(t, queries["mg3"])
	var first *engine.Result
	for round := 0; round < 2; round++ {
		for _, e := range engines() {
			got, _, err := engine.Execute(c, ds, e, aq)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, e.Name(), err)
			}
			if first == nil {
				first = got
				continue
			}
			if diff := first.Diff(got); diff != "" {
				t.Fatalf("round %d %s drifted: %s", round, e.Name(), diff)
			}
		}
	}
}

// errInjected is the failure faultBackend injects.
var errInjected = errors.New("injected fault")

// faultBackend wraps a backend so that its failAt-th call among Create,
// AppendBatch, writer Close, Open and Delete fails (failAt 0 fails none). It
// also counts the backend writers it hands out until they are closed: the
// handles beneath the FS's own count: a layout's or a spill run's backend
// writer.
type faultBackend struct {
	dfs.Backend
	failAt  atomic.Int64
	calls   atomic.Int64
	writers atomic.Int64

	mu           sync.Mutex
	failedDelete []string // names whose Delete was made to fail
}

// arm makes the n-th call from now fail.
func (b *faultBackend) arm(n int64) {
	b.calls.Store(0)
	b.failAt.Store(n)
}

// takeFailedDeletes returns and forgets the names whose Delete failed.
func (b *faultBackend) takeFailedDeletes() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := b.failedDelete
	b.failedDelete = nil
	return names
}

// fault counts one call and reports whether it is the one to fail.
func (b *faultBackend) fault() bool { return b.calls.Add(1) == b.failAt.Load() }

func (b *faultBackend) Create(name string, ratio float64) (dfs.FileWriter, error) {
	if b.fault() {
		return nil, fmt.Errorf("create %s: %w", name, errInjected)
	}
	fw, err := b.Backend.Create(name, ratio)
	if err != nil {
		return nil, err
	}
	b.writers.Add(1)
	return &faultWriter{FileWriter: fw, b: b}, nil
}

func (b *faultBackend) Open(name string) (*dfs.File, error) {
	if b.fault() {
		return nil, fmt.Errorf("open %s: %w", name, errInjected)
	}
	return b.Backend.Open(name)
}

func (b *faultBackend) Delete(name string) error {
	if b.fault() {
		b.mu.Lock()
		b.failedDelete = append(b.failedDelete, name)
		b.mu.Unlock()
		return fmt.Errorf("delete %s: %w", name, errInjected)
	}
	return b.Backend.Delete(name)
}

// faultWriter is a backend writer of faultBackend; a failed Close still
// releases the writer.
type faultWriter struct {
	dfs.FileWriter
	b      *faultBackend
	closed bool
}

func (w *faultWriter) AppendBatch(b *vec.Batch) error {
	if w.b.fault() {
		return errInjected
	}
	return w.FileWriter.AppendBatch(b)
}

func (w *faultWriter) Close() error {
	if !w.closed {
		w.closed = true
		w.b.writers.Add(-1)
	}
	if w.b.fault() {
		return errInjected
	}
	return w.FileWriter.Close()
}

// faultCluster returns a cluster whose DFS runs on a fault-injecting mem
// backend; it spills map output, so the spill write, read-back and
// cleanup paths see faults too.
func faultCluster() (*faultBackend, *mapred.Cluster) {
	b := &faultBackend{Backend: dfs.NewMemBackend()}
	cfg := mapred.DefaultConfig()
	cfg.ExecSplitBytes = 256
	cfg.SpillThresholdBytes = 128
	return b, mapred.NewClusterFS(cfg, dfs.NewWithBackend(b))
}

// checkFaultRun disarms b and fails t unless the run left the FS as a
// clean run does — checkClean's conditions, and no backend writer open —
// or returned an error other than the injected one. The file whose delete
// failed, if any, is the one allowed leftover; it is removed so the next
// run starts clean.
func checkFaultRun(t *testing.T, b *faultBackend, c *mapred.Cluster, what string, err error) {
	t.Helper()
	b.arm(0)
	if err != nil && !errors.Is(err, errInjected) {
		t.Errorf("%s: error without the injected fault: %v", what, err)
	}
	if n := b.writers.Load(); n != 0 {
		t.Errorf("%s: %d backend writers left open", what, n)
	}
	undeletable := b.takeFailedDeletes()
	checkClean(t, c, what, undeletable...)
	for _, name := range undeletable {
		if err := c.FS.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultSweep drives every error path a load and an execution can take
// through the DFS: a clean run counts the backend calls made, then one run
// per call N fails the N-th. Each run must return the oracle's rows or an
// injected error, and leave the FS as a clean run does. Executions are
// swept on every engine over three queries: a final join over a GROUP BY
// ALL side, the same with the default-row repair, and an ORDER BY ...
// LIMIT cycle.
func TestFaultSweep(t *testing.T) {
	leaktest.Check(t)
	g := ecommerceGraph()

	b, c := faultCluster()
	if _, err := engine.Load(c, "test", rdf.Intern(g, rdf.NewDict())); err != nil {
		t.Fatal(err)
	}
	loadCalls := b.calls.Load()
	for n := int64(1); n <= loadCalls && !t.Failed(); n++ {
		b, c := faultCluster()
		b.arm(n)
		_, err := engine.Load(c, "test", rdf.Intern(g, rdf.NewDict()))
		checkFaultRun(t, b, c, fmt.Sprintf("load: fault at call %d of %d", n, loadCalls), err)
	}

	for _, q := range []struct{ name, text string }{
		{"mg1", queries["mg1"]},
		{"empty-all-side", queries["empty-all-side"]},
		{"top-ratio", topRatioQuery},
	} {
		aq := buildAQ(t, q.text)
		want := oracle(t, g, q.text)
		for _, e := range engines() {
			b, c := faultCluster()
			ds, err := engine.Load(c, "test", rdf.Intern(g, rdf.NewDict()))
			if err != nil {
				t.Fatal(err)
			}
			b.arm(0)
			if _, _, err := engine.Execute(c, ds, e, aq); err != nil {
				t.Fatalf("%s/%s: clean run: %v", q.name, e.Name(), err)
			}
			calls := b.calls.Load()
			for n := int64(1); n <= calls && !t.Failed(); n++ {
				what := fmt.Sprintf("%s/%s: fault at call %d of %d", q.name, e.Name(), n, calls)
				b.arm(n)
				got, _, err := engine.Execute(c, ds, e, aq)
				if err == nil {
					if diff := want.Diff(got); diff != "" {
						t.Errorf("%s: differs from oracle: %s", what, diff)
					}
				}
				checkFaultRun(t, b, c, what, err)
			}
		}
	}
}
