package share

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/leaktest"
)

// writeFile materialises n records "rec-i" under name.
func writeFile(t *testing.T, fs *dfs.FS, name string, n int) {
	t.Helper()
	w, err := fs.Create(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w.Write([]byte(fmt.Sprintf("rec-%04d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// drain reads an iterator to completion, returning the records.
func drain(t *testing.T, it dfs.RecordIterator) [][]byte {
	t.Helper()
	var recs [][]byte
	for it.Next() {
		recs = append(recs, it.Record())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return recs
}

func TestSharedCycleServesAllConsumers(t *testing.T) {
	leaktest.Check(t)
	fs := dfs.New()
	writeFile(t, fs, "store/1/vp/p", 100)
	s := New(fs, Options{Window: 20 * time.Millisecond, Prefix: "store/"})

	const consumers = 8
	var wg sync.WaitGroup
	results := make([][][]byte, consumers)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = drain(t, s.Scan("store/1/vp/p", 0, 100))
		}(i)
	}
	wg.Wait()

	for i, recs := range results {
		if len(recs) != 100 {
			t.Fatalf("consumer %d: got %d records, want 100", i, len(recs))
		}
		for j, rec := range recs {
			if want := fmt.Sprintf("rec-%04d", j); string(rec) != want {
				t.Fatalf("consumer %d record %d: got %q, want %q", i, j, rec, want)
			}
		}
	}
	st := s.Stats()
	if st.Cycles != 1 {
		t.Errorf("Cycles = %d, want 1 (all consumers inside one window)", st.Cycles)
	}
	if st.SharedCycles != 1 {
		t.Errorf("SharedCycles = %d, want 1", st.SharedCycles)
	}
	if st.Consumers != consumers {
		t.Errorf("Consumers = %d, want %d", st.Consumers, consumers)
	}
	if st.RecordsScanned != 100 || st.RecordsServed != 100*consumers {
		t.Errorf("RecordsScanned/Served = %d/%d, want 100/%d", st.RecordsScanned, st.RecordsServed, 100*consumers)
	}
}

func TestDistinctRangesGetDistinctCycles(t *testing.T) {
	fs := dfs.New()
	writeFile(t, fs, "store/1/vp/p", 10)
	s := New(fs, Options{Window: 10 * time.Millisecond})

	a := drain(t, s.Scan("store/1/vp/p", 0, 5))
	b := drain(t, s.Scan("store/1/vp/p", 5, 5))
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("got %d/%d records, want 5/5", len(a), len(b))
	}
	if string(a[0]) != "rec-0000" || string(b[0]) != "rec-0005" {
		t.Fatalf("range starts wrong: %q, %q", a[0], b[0])
	}
	st := s.Stats()
	if st.Cycles != 2 || st.SharedCycles != 0 {
		t.Errorf("Cycles/Shared = %d/%d, want 2/0", st.Cycles, st.SharedCycles)
	}
}

func TestPrefixDeclinesOtherNames(t *testing.T) {
	fs := dfs.New()
	writeFile(t, fs, "tmp/q/x", 3)
	s := New(fs, Options{Prefix: "store/"})
	if it := s.Scan("tmp/q/x", 0, 3); it != nil {
		t.Fatalf("Scan of non-prefixed name returned an iterator; want nil (declined)")
	}
	if st := s.Stats(); st.Cycles != 0 || st.Consumers != 0 {
		t.Errorf("declined scan touched counters: %+v", st)
	}
}

func TestMissingFilePropagatesError(t *testing.T) {
	s := New(dfs.New(), Options{Window: -1})
	it := s.Scan("store/absent", 0, 1)
	if it.Next() {
		t.Fatal("Next on missing file = true")
	}
	if it.Err() == nil {
		t.Fatal("Err on missing file = nil")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
}

func TestMaxFanoutSealsEarly(t *testing.T) {
	leaktest.Check(t)
	fs := dfs.New()
	writeFile(t, fs, "store/1/vp/p", 10)
	// A window far longer than the test: the pass can only run if the
	// fan-out cap seals the cycle.
	s := New(fs, Options{Window: time.Hour})
	s.maxFanout = 2

	it1 := s.Scan("store/1/vp/p", 0, 10)
	it2 := s.Scan("store/1/vp/p", 0, 10)
	if got := len(drain(t, it1)); got != 10 {
		t.Fatalf("consumer 1: got %d records, want 10", got)
	}
	if got := len(drain(t, it2)); got != 10 {
		t.Fatalf("consumer 2: got %d records, want 10", got)
	}
	st := s.Stats()
	if st.Cycles != 1 || st.SharedCycles != 1 {
		t.Errorf("Cycles/Shared = %d/%d, want 1/1", st.Cycles, st.SharedCycles)
	}
}

// TestCancelledConsumerDoesNotStallSiblings is the shared-scan cancellation
// property: consumers that abandon their iterator mid-cycle (as a
// cancelled query's map task does) must not corrupt or stall the
// remaining consumers. Run under -race.
func TestCancelledConsumerDoesNotStallSiblings(t *testing.T) {
	leaktest.Check(t)
	fs := dfs.New()
	writeFile(t, fs, "store/1/tg/c", 500)
	s := New(fs, Options{Window: 20 * time.Millisecond, Prefix: "store/"})

	const consumers = 10
	var wg sync.WaitGroup
	results := make([][][]byte, consumers)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			it := s.Scan("store/1/tg/c", 0, 500)
			if i%2 == 1 {
				// Simulate cancellation: read a few records, then walk away
				// without draining (no Close protocol to honour — exactly
				// what an aborted map task does).
				for j := 0; j < i && it.Next(); j++ {
					_ = it.Record()
				}
				return
			}
			results[i] = drain(t, it)
		}(i)
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("surviving consumers stalled after sibling cancellation")
	}

	for i := 0; i < consumers; i += 2 {
		if len(results[i]) != 500 {
			t.Fatalf("surviving consumer %d: got %d records, want 500", i, len(results[i]))
		}
		for j, rec := range results[i] {
			if want := fmt.Sprintf("rec-%04d", j); string(rec) != want {
				t.Fatalf("surviving consumer %d record %d corrupted: got %q, want %q", i, j, rec, want)
			}
		}
	}
}

func TestStreamRecordsSharedAsIs(t *testing.T) {
	fs := dfs.New()
	w, err := fs.CreateStream("store/1/streamed", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		w.Write([]byte(fmt.Sprintf("rec-%04d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(fs, Options{Window: -1})
	recs := drain(t, s.Scan("store/1/streamed", 0, 20))
	if len(recs) != 20 {
		t.Fatalf("got %d records, want 20", len(recs))
	}
	// The scheduler retains stream records uncopied; every one must still
	// be intact once the pass completes.
	for i, rec := range recs {
		if want := fmt.Sprintf("rec-%04d", i); string(rec) != want {
			t.Fatalf("record %d: got %q, want %q", i, rec, want)
		}
	}
}
