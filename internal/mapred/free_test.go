package mapred

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// freeListCluster returns a cluster whose map tasks spill at a small
// threshold over several splits of four inputs, in0 to in3, each of other
// words, on a poisoned free list, or on none when poisoned is false.
func freeListCluster(poisoned bool) *Cluster {
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 256
	cfg.SpillThresholdBytes = 64
	c := NewCluster(cfg)
	c.testWorkers = 2
	if poisoned {
		c.free.poison = true
	} else {
		c.free = nil
	}
	for q := range 4 {
		lines := make([]string, 200)
		for i := range lines {
			lines[i] = fmt.Sprintf("q%dw%d q%dw%d w%d", q, i%7, q, i%13, i%(q+2))
		}
		writeLines(c, fmt.Sprintf("in%d", q), 1, lines...)
	}
	return c
}

// runFreeListQuery runs query q's jobs in c bound to a context of its own
// and returns their outputs. The jobs take and hand back every kind of
// scratch the free list holds: a word count without a combiner (pages,
// entry and values scratch, reduce builders, spill builders), one with a
// combiner (the combines' values scratch) and a map-only job (its builders).
func runFreeListQuery(c *Cluster, q int) ([][]string, error) {
	in := fmt.Sprintf("in%d", q)
	out := func(name string) string { return fmt.Sprintf("q%d/%s", q, name) }
	jobs := []*Job{
		wordCountJob(in, out("wc"), false),
		wordCountJob(in, out("wcc"), true),
		{
			Name: "upper", Inputs: []string{in}, Output: out("upper"),
			NewMapper: func(*TaskContext) Mapper {
				return MapperFunc(func(rec []byte, emit Emit) error {
					emit("", bytes.ToUpper(rec))
					return nil
				})
			},
		},
	}
	qc := c.WithContext(context.Background())
	var outs [][]string
	for _, job := range jobs {
		if _, err := qc.Run(job); err != nil {
			return nil, err
		}
		f, err := qc.FS.Open(job.Output)
		if err != nil {
			return nil, err
		}
		var lines []string
		for it := f.Records(0); it.Next(); {
			lines = append(lines, string(it.Record()))
		}
		f.Close()
		outs = append(outs, lines)
	}
	return outs, nil
}

// freeListWant returns every query's outputs on a cluster without a free
// list.
func freeListWant(t *testing.T) [][][]string {
	t.Helper()
	c := freeListCluster(false)
	want := make([][][]string, 4)
	for q := range want {
		var err error
		if want[q], err = runFreeListQuery(c, q); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func equalOutputs(got, want [][]string) bool {
	return slices.EqualFunc(got, want, func(g, w []string) bool { return slices.Equal(g, w) })
}

// Queries run one after another on one cluster take the scratch the ones
// before them handed back to its free list, poisoned: each query's rows
// must equal those of a cluster without a list.
func TestFreeListSequentialQueries(t *testing.T) {
	want := freeListWant(t)
	c := freeListCluster(true)
	for q := range want {
		got, err := runFreeListQuery(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalOutputs(got, want[q]) {
			t.Errorf("query %d after %d others on one poisoned list:\n%q\nwant\n%q", q, q, got, want[q])
		}
	}
	if len(c.free.pages) == 0 || len(c.free.builders) == 0 || len(c.free.entries) == 0 || len(c.free.values) == 0 {
		t.Errorf("the list holds %d pages, %d builders, %d entry and %d values scratches; want some of each",
			len(c.free.pages), len(c.free.builders), len(c.free.entries), len(c.free.values))
	}
}

// Queries run at once on one cluster share its poisoned free list (run
// this under -race): each query's rows must equal those of a cluster
// without a list.
func TestFreeListConcurrentQueries(t *testing.T) {
	want := freeListWant(t)
	c := freeListCluster(true)
	got := make([][][]string, len(want))
	errs := make([]error, len(want))
	var wg sync.WaitGroup
	for q := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if got[q], errs[q] = runFreeListQuery(c, q); errs[q] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for q := range want {
		if errs[q] != nil {
			t.Fatal(errs[q])
		}
		if !equalOutputs(got[q], want[q]) {
			t.Errorf("query %d among concurrent ones on one poisoned list:\n%q\nwant\n%q", q, got[q], want[q])
		}
	}
}

// One key group far larger than maxScratchBytes grows a values scratch
// (the reduce) and an entry scratch (the combine of the one map task's
// partition) past it; the free list drops both when they are handed back,
// so what it keeps stays under the bound of one scratch.
func TestFreeListDropsOversizedScratch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExecSplitBytes = 1 << 30
	c := NewCluster(cfg)
	const n = 300_000 // n values of 24 bytes, n entries of 32: both over 4 MiB
	writeLines(c, "in", 1, slices.Repeat([]string{"k"}, n)...)
	for _, combiner := range []bool{false, true} {
		out := fmt.Sprintf("out-%v", combiner)
		if _, err := c.Run(wordCountJob("in", out, combiner)); err != nil {
			t.Fatal(err)
		}
		if got := readLines(t, c, out); len(got) != 1 || got[0] != fmt.Sprintf("k=%d", n) {
			t.Fatalf("combiner %v: output %q", combiner, got)
		}
		if _, entries, values, _ := c.RetainedScratch(); entries+values >= maxScratchBytes {
			t.Errorf("combiner %v: the free list keeps %d bytes of entry and %d of values scratch, bound %d", combiner, entries, values, maxScratchBytes)
		}
	}
}
