package dfs

import (
	"errors"
	"reflect"
	"testing"
)

func mustCreate(t *testing.T, fs *FS, name string, ratio float64) *Writer {
	t.Helper()
	w, err := fs.Create(name, ratio)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	return w
}

func writeFile(t *testing.T, fs *FS, name string, ratio float64, recs ...string) {
	t.Helper()
	w := mustCreate(t, fs, name, ratio)
	for _, r := range recs {
		w.Write([]byte(r))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close(%q): %v", name, err)
	}
}

func TestCreateWriteOpen(t *testing.T) {
	fs := New()
	writeFile(t, fs, "a/b", 1, "hello", "world!")
	f, err := fs.Open("a/b")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if f.Bytes() != 11 || f.NumRecords() != 2 {
		t.Errorf("Bytes=%d NumRecords=%d", f.Bytes(), f.NumRecords())
	}
	if f.StoredBytes() != 11 {
		t.Errorf("StoredBytes = %d", f.StoredBytes())
	}
}

func TestCompressionRatio(t *testing.T) {
	fs := New()
	writeFile(t, fs, "orc", 0.2, string(make([]byte, 1000)))
	f, _ := fs.Open("orc")
	defer f.Close()
	if f.StoredBytes() != 200 {
		t.Errorf("StoredBytes = %d, want 200", f.StoredBytes())
	}
}

// Out-of-range ratios must be rejected, not silently clamped: a clamped
// ratio would corrupt every stored-byte metric downstream.
func TestCreateBadRatio(t *testing.T) {
	fs := New()
	for _, ratio := range []float64{0, -3, 1.5} {
		w, err := fs.Create("bad", ratio)
		if !errors.Is(err, ErrCompressionRatio) {
			t.Errorf("Create(ratio=%g) err = %v, want ErrCompressionRatio", ratio, err)
		}
		if w != nil {
			t.Errorf("Create(ratio=%g) returned a writer", ratio)
			w.Close()
		}
	}
	if fs.Exists("bad") {
		t.Error("rejected Create left a file behind")
	}
}

func TestListAndDelete(t *testing.T) {
	fs := New()
	writeFile(t, fs, "x/1", 1, "a")
	writeFile(t, fs, "x/2", 1, "bb")
	writeFile(t, fs, "y/1", 1, "c")
	if got := fs.List("x/"); !reflect.DeepEqual(got, []string{"x/1", "x/2"}) {
		t.Errorf("List = %v", got)
	}
	if got := storedUnder(t, fs, "x/"); got != 3 {
		t.Errorf("x/ stores %d bytes", got)
	}
	fs.Delete("x/1")
	if fs.Exists("x/1") {
		t.Error("x/1 still exists after delete")
	}
	fs.Delete("x/1") // idempotent
	if f, err := fs.Open("x/1"); err == nil {
		f.Close()
		t.Error("Open of deleted file succeeded")
	}
}

func TestRecordsFrom(t *testing.T) {
	fs := New()
	writeFile(t, fs, "f", 1, "r0", "r1", "r2", "r3")
	f, err := fs.Open("f")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	it := f.Records(2)
	var got []string
	for it.Next() {
		got = append(got, string(it.Record()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if !reflect.DeepEqual(got, []string{"r2", "r3"}) {
		t.Errorf("Records(2) = %v", got)
	}
}
