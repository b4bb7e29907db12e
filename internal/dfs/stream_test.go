package dfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
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
	w, err := fs.CreateStream(name, ratio, 0)
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

// TestStreamRoundTrip: a streamed file reads back byte-identically, with
// the same metadata a materialised file would report, and never touches
// the backend.
func TestStreamRoundTrip(t *testing.T) {
	fs := New()
	recs := streamRecords(10)
	var logical int64
	for _, r := range recs {
		logical += int64(len(r))
	}
	writeStream(t, fs, "tmp/s", 0.5, recs...)

	if !fs.Exists("tmp/s") {
		t.Fatal("streamed file does not Exist")
	}
	if got := fs.List("tmp/"); len(got) != 0 {
		t.Errorf("List shows streamed file: %v", got)
	}
	if got := fs.TotalStoredBytes(""); got != 0 {
		t.Errorf("TotalStoredBytes = %d, want 0 (write elided)", got)
	}

	f, err := fs.Open("tmp/s")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumRecords() != 10 || f.Bytes() != logical || f.CompressionRatio() != 0.5 {
		t.Errorf("metadata = %d recs, %d bytes, ratio %g", f.NumRecords(), f.Bytes(), f.CompressionRatio())
	}
	if want := int64(float64(logical) * 0.5); f.StoredBytes() != want {
		t.Errorf("StoredBytes = %d, want %d", f.StoredBytes(), want)
	}
	it := f.Records(0)
	for i := 0; it.Next(); i++ {
		if !bytes.Equal(it.Record(), recs[i]) {
			t.Fatalf("record %d = %x, want %x", i, it.Record(), recs[i])
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRecordsFrom: positioned iteration must match the backend
// contract, including starts inside and across batch boundaries.
func TestStreamRecordsFrom(t *testing.T) {
	fs := New()
	const rows = vec.DefaultBatchRows
	recs := streamRecords(2*rows + 3)
	writeStream(t, fs, "s", 1, recs...)
	f, err := fs.Open("s")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, start := range []int{0, 1, rows - 1, rows, rows + 1, 2*rows + 2, 2*rows + 3, 3 * rows} {
		it := f.Records(start)
		n := 0
		for it.Next() {
			if !bytes.Equal(it.Record(), recs[start+n]) {
				t.Fatalf("Records(%d)[%d] mismatch", start, n)
			}
			n++
		}
		want := len(recs) - start
		if want < 0 {
			want = 0
		}
		if n != want {
			t.Errorf("Records(%d) yielded %d, want %d", start, n, want)
		}
	}
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
	if w, err := fs.CreateStream("f", 1, 0); err == nil {
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

// TestStreamOverflowToBackend: crossing the spill threshold demotes the
// stream to a regular backend file with identical content and metadata.
func TestStreamOverflowToBackend(t *testing.T) {
	fs := New()
	recs := streamRecords(3 * vec.DefaultBatchRows)
	var logical int64
	for _, r := range recs {
		logical += int64(len(r))
	}
	// The first sealed batch crosses 64 bytes; later appends go straight
	// to the backend.
	w, err := fs.CreateStream("big", 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		w.Write(rec)
	}
	if w.StreamedBatches() != 0 {
		t.Error("writer still reports streamed batches after overflow")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.StreamedBatches() != 0 {
		t.Errorf("StreamedBatches = %d after overflow, want 0", w.StreamedBatches())
	}
	if got := fs.List(""); !reflect.DeepEqual(got, []string{"big"}) {
		t.Errorf("List = %v, want the materialised file", got)
	}
	if fs.TotalStoredBytes("") != logical {
		t.Errorf("TotalStoredBytes = %d, want %d", fs.TotalStoredBytes(""), logical)
	}
	f, err := fs.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumRecords() != len(recs) || f.Bytes() != logical {
		t.Errorf("overflowed metadata = %d recs %d bytes", f.NumRecords(), f.Bytes())
	}
	it := f.Records(0)
	for i := 0; it.Next(); i++ {
		if !bytes.Equal(it.Record(), recs[i]) {
			t.Fatalf("record %d mismatch after overflow", i)
		}
	}
}

// TestStreamWriteBatchOrdering mixes row appends with wholesale batch
// transfers; record order must be exactly the call order.
func TestStreamWriteBatchOrdering(t *testing.T) {
	fs := New()
	w, err := fs.CreateStream("s", 1, 0)
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

// TestWriteBatchOnBackendFile: WriteBatch on a non-streamed writer appends
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
	if w.StreamedBatches() != 0 {
		t.Errorf("backend writer reports streamed batches")
	}
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

// TestStreamEmptyFile: an empty stream still Exists and Opens with zero
// records — downstream jobs depend on empty intermediates being present.
func TestStreamEmptyFile(t *testing.T) {
	fs := New()
	writeStream(t, fs, "empty", 1)
	if !fs.Exists("empty") {
		t.Fatal("empty stream does not Exist")
	}
	f, err := fs.Open("empty")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumRecords() != 0 || f.Bytes() != 0 {
		t.Errorf("empty stream metadata: %d recs %d bytes", f.NumRecords(), f.Bytes())
	}
	if it := f.Records(0); it.Next() {
		t.Error("empty stream yielded a record")
	}
}

// TestStreamBadRatio matches the Create contract.
func TestStreamBadRatio(t *testing.T) {
	fs := New()
	if w, err := fs.CreateStream("bad", 0, 0); err == nil {
		w.Close()
		t.Fatal("CreateStream accepted ratio 0")
	}
	if fs.Exists("bad") {
		t.Error("rejected CreateStream left a file")
	}
}

// TestStreamConcurrentReaders: many iterators over one stream snapshot
// must be independent; run under -race.
func TestStreamConcurrentReaders(t *testing.T) {
	fs := New()
	recs := streamRecords(500)
	writeStream(t, fs, "shared", 1, recs...)
	f, err := fs.Open("shared")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 8)
	for r := 0; r < 8; r++ {
		go func(start int) {
			it := f.Records(start)
			n := start
			for it.Next() {
				if !bytes.Equal(it.Record(), recs[n]) {
					done <- fmt.Errorf("reader@%d: record %d mismatch", start, n)
					return
				}
				n++
			}
			done <- it.Err()
		}(r * 50)
	}
	for r := 0; r < 8; r++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
