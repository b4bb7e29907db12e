package dfs

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The conformance suite runs every backend through the semantics the
// package documents: snapshot reads, truncate-on-Create, delete-while-open,
// sorted listing, compression accounting and concurrent writer safety.
// Both backends must pass identically — engines never know which one they
// run on.

func backends(t *testing.T) map[string]func() *FS {
	return map[string]func() *FS{
		"mem": New,
		"disk": func() *FS {
			fs, err := NewDisk(t.TempDir(), 4)
			if err != nil {
				t.Fatalf("NewDisk: %v", err)
			}
			return fs
		},
	}
}

func forEachBackend(t *testing.T, test func(t *testing.T, fs *FS)) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) { test(t, mk()) })
	}
}

func readAll(t *testing.T, f *File) []string {
	t.Helper()
	recs, err := f.AllRecords()
	if err != nil {
		t.Fatalf("AllRecords(%s): %v", f.Name(), err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func TestConformanceCreateWriteRead(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		writeFile(t, fs, "dir/f", 1, "alpha", "", "gamma")
		f, err := fs.Open("dir/f")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer f.Close()
		if got := readAll(t, f); !reflect.DeepEqual(got, []string{"alpha", "", "gamma"}) {
			t.Errorf("records = %q", got)
		}
		if f.NumRecords() != 3 || f.Bytes() != 10 {
			t.Errorf("NumRecords=%d Bytes=%d", f.NumRecords(), f.Bytes())
		}
		if f.CompressionRatio() != 1 || f.StoredBytes() != 10 {
			t.Errorf("ratio=%g stored=%d", f.CompressionRatio(), f.StoredBytes())
		}
	})
}

func TestConformanceBadRatio(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		w, err := fs.Create("bad", 0)
		if !errors.Is(err, ErrCompressionRatio) {
			t.Errorf("err = %v, want ErrCompressionRatio", err)
		}
		if w != nil {
			w.Close()
		}
		if fs.Exists("bad") {
			t.Error("rejected Create left a file")
		}
	})
}

func TestConformanceCompressionAccounting(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		writeFile(t, fs, "t/orc", 0.12, string(make([]byte, 1000)))
		writeFile(t, fs, "t/raw", 1, string(make([]byte, 50)))
		f, err := fs.Open("t/orc")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer f.Close()
		if f.CompressionRatio() != 0.12 {
			t.Errorf("ratio = %g", f.CompressionRatio())
		}
		if f.StoredBytes() != 120 {
			t.Errorf("StoredBytes = %d", f.StoredBytes())
		}
		if got := fs.TotalStoredBytes("t/"); got != 170 {
			t.Errorf("TotalStoredBytes = %d", got)
		}
	})
}

func TestConformanceTruncate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		writeFile(t, fs, "f", 1, "old1", "old2")
		writeFile(t, fs, "f", 1, "new")
		f, err := fs.Open("f")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer f.Close()
		if got := readAll(t, f); !reflect.DeepEqual(got, []string{"new"}) {
			t.Errorf("records after truncate = %q", got)
		}
	})
}

func TestConformanceSnapshotAfterTruncate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		writeFile(t, fs, "f", 1, "v1a", "v1b")
		snap, err := fs.Open("f")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer snap.Close()
		writeFile(t, fs, "f", 1, "v2")
		if got := readAll(t, snap); !reflect.DeepEqual(got, []string{"v1a", "v1b"}) {
			t.Errorf("snapshot corrupted by truncate: %q", got)
		}
	})
}

func TestConformanceDeleteWhileOpen(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		writeFile(t, fs, "f", 1, "a", "b", "c")
		snap, err := fs.Open("f")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer snap.Close()
		fs.Delete("f")
		if fs.Exists("f") {
			t.Fatal("file exists after delete")
		}
		if got := readAll(t, snap); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
			t.Errorf("snapshot unreadable after delete: %q", got)
		}
	})
}

func TestConformanceDeleteMissing(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		fs.Delete("never-created") // must not panic or create state
		if fs.Exists("never-created") {
			t.Error("delete created the file")
		}
	})
}

// TestConformanceOpenHandles: every File and Writer handed out counts as
// open until its first Close, whatever its kind; a failed Open counts
// nothing, and closing twice counts down once.
func TestConformanceOpenHandles(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		want := func(n int) {
			t.Helper()
			if got := fs.OpenHandles(); got != n {
				t.Fatalf("OpenHandles = %d, want %d", got, n)
			}
		}
		w := mustCreate(t, fs, "f", 1)
		sw, err := fs.CreateStream("s", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		want(2)
		w.Write([]byte("a"))
		sw.Write([]byte("b"))
		for _, w := range []*Writer{w, sw, w} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		want(0)
		f, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		s, err := fs.Open("s")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open("nope"); err == nil {
			t.Fatal("Open of missing file succeeded")
		}
		want(2)
		f.Close()
		f.Close()
		want(1)
		s.Close()
		want(0)
	})
}

func TestConformanceOpenMissing(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		if f, err := fs.Open("nope"); err == nil {
			f.Close()
			t.Error("Open of missing file succeeded")
		}
	})
}

func TestConformanceListOrdering(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		for _, name := range []string{"p/zz", "p/a", "q/x", "p/m/1"} {
			writeFile(t, fs, name, 1, "r")
		}
		if got := fs.List("p/"); !reflect.DeepEqual(got, []string{"p/a", "p/m/1", "p/zz"}) {
			t.Errorf("List(p/) = %v", got)
		}
		if got := fs.List(""); len(got) != 4 {
			t.Errorf("List(\"\") = %v", got)
		}
	})
}

func TestConformanceRecordsFrom(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		var recs []string
		for i := 0; i < 1000; i++ {
			recs = append(recs, fmt.Sprintf("record-%04d-%s", i, string(make([]byte, 100))))
		}
		writeFile(t, fs, "big", 1, recs...)
		f, err := fs.Open("big")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer f.Close()
		// Starts chosen to land mid-file (mid-block on disk: 100+ byte
		// records × 32KB blocks ≈ 300 records per block), at block-ish
		// boundaries, and past the end.
		for _, start := range []int{0, 1, 299, 300, 500, 999, 1000, 5000} {
			it := f.Records(start)
			n := 0
			for it.Next() {
				want := recs[start+n]
				if string(it.Record()) != want {
					t.Fatalf("Records(%d)[%d] = %.20q, want %.20q", start, n, it.Record(), want)
				}
				n++
			}
			if err := it.Err(); err != nil {
				t.Fatalf("Records(%d) err: %v", start, err)
			}
			wantN := len(recs) - start
			if wantN < 0 {
				wantN = 0
			}
			if n != wantN {
				t.Errorf("Records(%d) yielded %d records, want %d", start, n, wantN)
			}
		}
	})
}

// Concurrent writers to distinct files must be safe (the engine's reduce
// phase and parallel loads create files concurrently); run under -race.
func TestConformanceConcurrentWriters(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		const writers = 8
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				name := fmt.Sprintf("c/f%d", w)
				wr, err := fs.Create(name, 1)
				if err != nil {
					errs[w] = err
					return
				}
				for i := 0; i < 500; i++ {
					wr.Write([]byte(fmt.Sprintf("w%d-%d", w, i)))
				}
				errs[w] = wr.Close()
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("writer %d: %v", w, err)
			}
		}
		for w := 0; w < writers; w++ {
			f, err := fs.Open(fmt.Sprintf("c/f%d", w))
			if err != nil {
				t.Fatalf("Open writer %d: %v", w, err)
			}
			got := readAll(t, f)
			f.Close()
			if len(got) != 500 || got[0] != fmt.Sprintf("w%d-0", w) || got[499] != fmt.Sprintf("w%d-499", w) {
				t.Errorf("writer %d: %d records, first %q last %q", w, len(got), got[0], got[len(got)-1])
			}
		}
	})
}

// A concurrent reader drawing iterators from one shared File must be safe
// (shuffle tasks share input snapshots); run under -race.
func TestConformanceConcurrentReaders(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		var recs []string
		for i := 0; i < 2000; i++ {
			recs = append(recs, fmt.Sprintf("rec-%d", i))
		}
		writeFile(t, fs, "shared", 1, recs...)
		f, err := fs.Open("shared")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer f.Close()
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(start int) {
				defer wg.Done()
				it := f.Records(start)
				n := start
				for it.Next() {
					if string(it.Record()) != recs[n] {
						t.Errorf("reader@%d: record %d mismatch", start, n)
						return
					}
					n++
				}
				if err := it.Err(); err != nil {
					t.Errorf("reader@%d: %v", start, err)
				}
			}(r * 250)
		}
		wg.Wait()
	})
}
