package dfs

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rapidanalytics/internal/vec"
)

// The conformance suite runs every column through the semantics the
// package documents: snapshot reads, truncate-on-Create, delete-while-open,
// sorted listing, compression accounting and concurrent writer safety. The
// columns are the two backends and the FS's in-memory registry. All must
// pass identically — engines never know which one they run on — except
// that a registered file is not listed, so it counts in no stored total.

// column is one column of the suite: an FS and how its files are created.
type column struct {
	*FS
	create func(name string, ratio float64) (*Writer, error)
	// listed reports whether a file with content appears in List.
	listed bool
}

func columns(t *testing.T) map[string]func() column {
	return map[string]func() column{
		"mem": func() column {
			fs := New()
			return column{fs, fs.Create, true}
		},
		"disk": func() column {
			fs, err := NewDisk(t.TempDir(), 4)
			if err != nil {
				t.Fatalf("NewDisk: %v", err)
			}
			return column{fs, fs.Create, true}
		},
		"stream": func() column {
			fs := New()
			return column{fs, fs.CreateStream, false}
		},
	}
}

func forEachBackend(t *testing.T, test func(t *testing.T, c column)) {
	for name, mk := range columns(t) {
		t.Run(name, func(t *testing.T) { test(t, mk()) })
	}
}

// write creates (or truncates) name in c and writes recs to it.
func (c column) write(t *testing.T, name string, ratio float64, recs ...string) {
	t.Helper()
	w, err := c.create(name, ratio)
	if err != nil {
		t.Fatalf("create(%q): %v", name, err)
	}
	for _, r := range recs {
		w.Write([]byte(r))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close(%q): %v", name, err)
	}
}

// storedUnder sums the stored size of the files fs lists under prefix.
func storedUnder(t *testing.T, fs *FS, prefix string) int64 {
	t.Helper()
	var total int64
	for _, name := range fs.List(prefix) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		total += f.StoredBytes()
		f.Close()
	}
	return total
}

// readAll reads a snapshot's records through its iterator.
func readAll(t *testing.T, f *File) []string {
	t.Helper()
	var out []string
	it := f.Records(0)
	for it.Next() {
		out = append(out, string(it.Record()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("Records(%s): %v", f.Name(), err)
	}
	return out
}

func TestConformanceCreateWriteRead(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		c.write(t, "dir/f", 1, "alpha", "", "gamma")
		if !c.Exists("dir/f") {
			t.Fatal("written file does not Exist")
		}
		f, err := c.Open("dir/f")
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

// TestConformanceEmptyFile: a file without records still Exists and Opens
// with zero records — downstream jobs depend on empty intermediates being
// present.
func TestConformanceEmptyFile(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		c.write(t, "empty", 1)
		if !c.Exists("empty") {
			t.Fatal("empty file does not Exist")
		}
		f, err := c.Open("empty")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer f.Close()
		if f.NumRecords() != 0 || f.Bytes() != 0 {
			t.Errorf("empty file: %d records, %d bytes", f.NumRecords(), f.Bytes())
		}
		if it := f.Records(0); it.Next() {
			t.Error("empty file yielded a record")
		}
	})
}

// Out-of-range ratios must be rejected, not silently clamped: a clamped
// ratio would corrupt every stored-byte metric downstream.
func TestConformanceBadRatio(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		for _, ratio := range []float64{0, -3, 1.5} {
			w, err := c.create("bad", ratio)
			if !errors.Is(err, ErrCompressionRatio) {
				t.Errorf("ratio %g: err = %v, want ErrCompressionRatio", ratio, err)
			}
			if w != nil {
				t.Errorf("ratio %g: got a writer", ratio)
				w.Close()
			}
		}
		if c.Exists("bad") {
			t.Error("rejected create left a file")
		}
	})
}

func TestConformanceCompressionAccounting(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		c.write(t, "t/orc", 0.12, string(make([]byte, 1000)))
		c.write(t, "t/raw", 1, string(make([]byte, 50)))
		f, err := c.Open("t/orc")
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
		want := int64(170)
		if !c.listed {
			want = 0 // the write was elided
		}
		if got := storedUnder(t, c.FS, "t/"); got != want {
			t.Errorf("listed files store %d bytes, want %d", got, want)
		}
	})
}

func TestConformanceTruncate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		c.write(t, "f", 1, "old1", "old2")
		c.write(t, "f", 1, "new")
		f, err := c.Open("f")
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
	forEachBackend(t, func(t *testing.T, c column) {
		c.write(t, "f", 1, "v1a", "v1b")
		snap, err := c.Open("f")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer snap.Close()
		c.write(t, "f", 1, "v2")
		if got := readAll(t, snap); !reflect.DeepEqual(got, []string{"v1a", "v1b"}) {
			t.Errorf("snapshot corrupted by truncate: %q", got)
		}
	})
}

func TestConformanceDeleteWhileOpen(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		c.write(t, "f", 1, "a", "b", "c")
		snap, err := c.Open("f")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer snap.Close()
		c.Delete("f")
		if c.Exists("f") {
			t.Fatal("file exists after delete")
		}
		if got := readAll(t, snap); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
			t.Errorf("snapshot unreadable after delete: %q", got)
		}
	})
}

func TestConformanceDeleteMissing(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		c.Delete("never-created") // must not panic or create state
		if c.Exists("never-created") {
			t.Error("delete created the file")
		}
	})
}

// TestConformanceOpenHandles: every File and Writer handed out counts as
// open until its first Close, whatever its kind; a failed Open counts
// nothing, and closing twice counts down once.
func TestConformanceOpenHandles(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		want := func(n int) {
			t.Helper()
			if got := c.OpenHandles(); got != n {
				t.Fatalf("OpenHandles = %d, want %d", got, n)
			}
		}
		w, err := c.create("f", 1)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := c.CreateStream("s", 1)
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
		f, err := c.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Open("s")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Open("nope"); err == nil {
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
	forEachBackend(t, func(t *testing.T, c column) {
		if f, err := c.Open("nope"); err == nil {
			f.Close()
			t.Error("Open of missing file succeeded")
		}
	})
}

func TestConformanceListOrdering(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		for _, name := range []string{"p/zz", "p/a", "q/x", "p/m/1"} {
			c.write(t, name, 1, "r")
		}
		want, all := []string{"p/a", "p/m/1", "p/zz"}, 4
		if !c.listed {
			want, all = nil, 0
		}
		if got := c.List("p/"); !reflect.DeepEqual(got, want) {
			t.Errorf("List(p/) = %v, want %v", got, want)
		}
		if got := c.List(""); len(got) != all {
			t.Errorf("List(\"\") = %v", got)
		}
	})
}

func TestConformanceRecordsFrom(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		const rows = vec.DefaultBatchRows
		var recs []string
		for i := 0; i < 2*rows+3; i++ {
			recs = append(recs, fmt.Sprintf("record-%04d-%s", i, string(make([]byte, 100))))
		}
		c.write(t, "big", 1, recs...)
		f, err := c.Open("big")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer f.Close()
		// Starts chosen to land mid-file (mid-block on disk: 100+ byte
		// records × 32KB blocks ≈ 300 records per block), at block-ish
		// boundaries, inside and across batch boundaries, and past the
		// end.
		for _, start := range []int{0, 1, 299, 300, 500, rows - 1, rows, rows + 1, 2*rows + 2, 2*rows + 3, 3 * rows} {
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
			if want := max(len(recs)-start, 0); n != want {
				t.Errorf("Records(%d) yielded %d records, want %d", start, n, want)
			}
		}
	})
}

// TestWriteCopies: Write copies its record, so a caller may reuse the slice
// at once, whatever the column does with the batch it is handed.
func TestWriteCopies(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		w, err := c.create("f", 1)
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte("abc")
		w.Write(buf)
		buf[0] = 'X'
		w.Write([]byte("def"))
		buf[1] = 'Y'
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		buf[2] = 'Z'
		f, err := c.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if got := readAll(t, f); !reflect.DeepEqual(got, []string{"abc", "def"}) {
			t.Errorf("records = %q, want the bytes as written", got)
		}
	})
}

// Concurrent writers to distinct files must be safe (the engine's reduce
// phase and parallel loads create files concurrently); run under -race.
func TestConformanceConcurrentWriters(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c column) {
		const writers = 8
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				name := fmt.Sprintf("c/f%d", w)
				wr, err := c.create(name, 1)
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
			f, err := c.Open(fmt.Sprintf("c/f%d", w))
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
	forEachBackend(t, func(t *testing.T, c column) {
		var recs []string
		for i := 0; i < 2000; i++ {
			recs = append(recs, fmt.Sprintf("rec-%d", i))
		}
		c.write(t, "shared", 1, recs...)
		f, err := c.Open("shared")
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
