package mapred

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunAbortsOnPreCancelledContext(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "in", 1, "a b", "b c")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.WithContext(ctx).Run(wordCountJob("in", "out", false))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled context: err = %v; want context.Canceled", err)
	}
	if c.FS.Exists("out") {
		t.Fatal("aborted job materialised its output")
	}
	checkHandles(t, c)
}

func TestRunWithoutContextIsUnbound(t *testing.T) {
	c := newTestCluster()
	if got := c.Context(); got != context.Background() {
		t.Fatalf("unbound Context() = %v; want Background", got)
	}
	writeLines(c, "in", 1, "a b", "b c")
	if _, err := c.Run(wordCountJob("in", "out", false)); err != nil {
		t.Fatalf("unbound Run: %v", err)
	}
}

func TestWorkflowStopsAfterMidRunCancellation(t *testing.T) {
	c := newTestCluster()
	// Enough tiny splits that most map tasks are still queued when the
	// first record triggers cancellation; queued tasks must abort at their
	// first context check instead of draining their splits.
	var lines []string
	for i := 0; i < 16*ctxCheckInterval; i++ {
		lines = append(lines, "w")
	}
	writeLines(c, "in", 1, lines...)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := c.WithContext(ctx)

	var mapped atomic.Int64
	cancellingJob := func(name, in, out string) *Job {
		return &Job{
			Name:   name,
			Inputs: []string{in},
			Output: out,
			NewMapper: func(tc *TaskContext) Mapper {
				return MapperFunc(func(rec []byte, emit Emit) error {
					if mapped.Add(1) == 1 {
						cancel() // simulate the client disconnecting mid-cycle
					}
					emit("k", rec)
					return nil
				})
			},
			NewReducer: func() Reducer {
				return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
					emit(key, []byte("v"))
					return nil
				})
			},
		}
	}
	wm, err := runWorkflow(bound, []*Job{
		cancellingJob("cycle1", "in", "mid"),
		cancellingJob("cycle2", "mid", "out"),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("workflow err = %v; want context.Canceled", err)
	}
	if len(wm.Jobs) != 0 {
		t.Fatalf("cancelled workflow completed %d cycles; want 0", len(wm.Jobs))
	}
	if got := mapped.Load(); got >= 16*int64(ctxCheckInterval) {
		t.Fatalf("mapper consumed all %d records despite cancellation", got)
	}
	if c.FS.Exists("out") {
		t.Fatal("second cycle ran after cancellation")
	}
	checkHandles(t, c)
}

func TestWithContextCopyLeavesOriginalUnbound(t *testing.T) {
	c := newTestCluster()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bound := c.WithContext(ctx)
	if bound == c {
		t.Fatal("WithContext must return a copy")
	}
	if c.err() != nil {
		t.Fatal("binding a copy must not bind the original cluster")
	}
	if bound.FS != c.FS {
		t.Fatal("bound copy must share the file system")
	}
}
