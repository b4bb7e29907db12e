package dfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rapidanalytics/internal/vec"
)

// idRec builds a canonical uvarint ID-tuple record.
func idRec(ids ...uint64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
	}
	return buf
}

func writeStream(t *testing.T, fs *FS, name string, ratio float64, recs ...[]byte) {
	t.Helper()
	w, err := fs.CreateStream(name, ratio)
	if err != nil {
		t.Fatalf("CreateStream(%s): %v", name, err)
	}
	for _, rec := range recs {
		w.Write(rec)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close(%s): %v", name, err)
	}
}

func streamRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = idRec(uint64(i), uint64(i*7), 0)
	}
	return recs
}

// TestStreamRecordsStable: like backend records, every record a stream
// iterator hands out stays intact after later Next calls.
func TestStreamRecordsStable(t *testing.T) {
	fs := New()
	recs := streamRecords(vec.DefaultBatchRows + 6)
	writeStream(t, fs, "s", 1, recs...)
	f, err := fs.Open("s")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kept [][]byte
	for it := f.Records(0); it.Next(); {
		kept = append(kept, it.Record())
	}
	if len(kept) != len(recs) {
		t.Fatalf("records = %d, want %d", len(kept), len(recs))
	}
	for i := range kept {
		if !bytes.Equal(kept[i], recs[i]) {
			t.Fatalf("record %d = %x after the walk, want %x", i, kept[i], recs[i])
		}
	}
}

// failingDeleteBackend fails every delete; everything else passes through.
type failingDeleteBackend struct{ Backend }

func (failingDeleteBackend) Delete(string) error { return errors.New("injected delete failure") }

// TestCreateStreamFailedDeleteKeepsBackendFile: a CreateStream whose stale
// backend delete fails must not register a stream that shadows the intact
// backend file.
func TestCreateStreamFailedDeleteKeepsBackendFile(t *testing.T) {
	fs := NewWithBackend(failingDeleteBackend{NewMemBackend()})
	writeFile(t, fs, "f", 1, "a", "b")
	if w, err := fs.CreateStream("f", 1); err == nil {
		w.Close()
		t.Fatal("CreateStream succeeded over a failing delete")
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, _ := f.AllRecords(); len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "b" {
		t.Errorf("Open after failed CreateStream = %q, want the backend file [a b]", got)
	}
}

// TestStreamSnapshotSemantics: Open snapshots the committed batches;
// truncation by Create and deletion leave snapshots readable, exactly as
// for backend files.
func TestStreamSnapshotSemantics(t *testing.T) {
	fs := New()
	writeStream(t, fs, "f", 1, []byte("v1a"), []byte("v1b"))
	snap, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	// Create over the streamed name truncates to a backend file.
	writeFile(t, fs, "f", 1, "v2")
	got, err := snap.AllRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "v1a" {
		t.Errorf("snapshot corrupted by truncate: %q", got)
	}
	f2, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if recs, _ := f2.AllRecords(); len(recs) != 1 || string(recs[0]) != "v2" {
		t.Errorf("re-Open after truncate = %q", recs)
	}

	writeStream(t, fs, "g", 1, []byte("a"))
	gsnap, err := fs.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	defer gsnap.Close()
	if err := fs.Delete("g"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("g") {
		t.Error("streamed file exists after Delete")
	}
	if recs, _ := gsnap.AllRecords(); len(recs) != 1 {
		t.Errorf("stream snapshot unreadable after delete: %q", recs)
	}
}

// TestStreamWriteBatchOrdering mixes row appends with wholesale batch
// transfers; record order must be exactly the call order.
func TestStreamWriteBatchOrdering(t *testing.T) {
	fs := New()
	w, err := fs.CreateStream("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	w.Write(idRec(1))
	want = append(want, idRec(1))
	bu := vec.NewBuilder(8)
	for i := uint64(2); i < 5; i++ {
		bu.Append(idRec(i))
		want = append(want, idRec(i))
	}
	w.WriteBatch(bu.Flush())
	w.Write(idRec(9))
	want = append(want, idRec(9))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != int64(len(want)) {
		t.Errorf("Records = %d, want %d", w.Records(), len(want))
	}
	f, err := fs.Open("s")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.AllRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("records = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %x, want %x", i, got[i], want[i])
		}
	}
}

// TestWriteBatchOnBackendFile: WriteBatch on a backend file's writer appends
// the batch's rows with identical bytes.
func TestWriteBatchOnBackendFile(t *testing.T) {
	fs := New()
	w, err := fs.Create("f", 1)
	if err != nil {
		t.Fatal(err)
	}
	bu := vec.NewBuilder(8)
	bu.Append(idRec(5, 6))
	bu.Append(idRec(7, 8))
	w.WriteBatch(bu.Flush())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, _ := f.AllRecords()
	if len(got) != 2 || !bytes.Equal(got[0], idRec(5, 6)) || !bytes.Equal(got[1], idRec(7, 8)) {
		t.Errorf("records = %x", got)
	}
}

// TestAttachedContentOutlivesItsFile: the content taken from a registered
// file stays readable after the file is deleted, and attaching it under
// other names serves its records, counts and ratio there, as a stream of
// the FS, until each name is deleted.
func TestAttachedContentOutlivesItsFile(t *testing.T) {
	fs := New()
	recs := streamRecords(vec.DefaultBatchRows + 3)
	writeStream(t, fs, "out", 0.5, recs...)
	c, err := fs.Content("out")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("out"); err != nil {
		t.Fatal(err)
	}
	other := New()
	for _, name := range []string{"a", "b"} {
		if err := other.Attach(name, c); err != nil {
			t.Fatal(err)
		}
	}
	if n := other.LiveStreams(); n != 2 {
		t.Errorf("%d live streams, want the two attached", n)
	}
	f, err := other.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := f.AllRecords()
	if len(got) != len(recs) || !bytes.Equal(got[len(got)-1], recs[len(recs)-1]) {
		t.Errorf("attached content reads %d records, want %d", len(got), len(recs))
	}
	if f.Bytes() != c.Bytes() || f.CompressionRatio() != 0.5 || other.List("") != nil {
		t.Errorf("attached: %d bytes (content %d), ratio %g, listed %v", f.Bytes(), c.Bytes(), f.CompressionRatio(), other.List(""))
	}
	f.Close()
	for _, name := range []string{"a", "b"} {
		if err := other.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	if n := other.LiveStreams(); n != 0 {
		t.Errorf("%d live streams after the deletes", n)
	}
	if _, err := fs.Content("out"); err == nil {
		t.Error("Content of a deleted file succeeded")
	}
}

// batchOf seals recs into one batch.
func batchOf(recs ...[]byte) *vec.Batch {
	var bu vec.Builder
	for _, r := range recs {
		bu.Append(r)
	}
	return bu.Flush()
}

// TestContentIsASnapshot: batches committed after Content was taken do not
// reach it.
func TestContentIsASnapshot(t *testing.T) {
	fs := New()
	w, err := fs.CreateStream("f", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteBatch(batchOf(idRec(1)))
	c, err := fs.Content("f")
	if err != nil {
		t.Fatal(err)
	}
	w.WriteBatch(batchOf(idRec(2)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Attach("g", c); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumRecords() != 1 {
		t.Errorf("content holds %d records, want the 1 committed when taken", f.NumRecords())
	}
}

// TestBackendLookupAllocationFree: finding a backend file passes through
// the registry's table without allocating.
func TestBackendLookupAllocationFree(t *testing.T) {
	fs := New()
	writeFile(t, fs, "layout", 1, "a")
	writeStream(t, fs, "out", 1, idRec(1))
	if n := testing.AllocsPerRun(100, func() { fs.Exists("layout") }); n != 0 {
		t.Errorf("Exists of a backend file allocates %g times", n)
	}
}
