package blockstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func openStore(t *testing.T, dir string, shards int) *Store {
	t.Helper()
	s, err := Open(dir, shards)
	if err != nil {
		t.Fatalf("Open(%q, %d): %v", dir, shards, err)
	}
	return s
}

func writeSegment(t *testing.T, s *Store, name string, meta []byte, recs ...string) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	if meta != nil {
		w.SetMeta(meta)
	}
	for _, r := range recs {
		w.Append([]byte(r))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close(%q): %v", name, err)
	}
}

func readSegment(t *testing.T, s *Store, name string) []string {
	t.Helper()
	seg, err := s.Open(name)
	if err != nil {
		t.Fatalf("Open segment %q: %v", name, err)
	}
	defer seg.Close()
	var out []string
	it := seg.Iter(0)
	for it.Next() {
		out = append(out, string(it.Record()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterate %q: %v", name, err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir(), 4)
	writeSegment(t, s, "a/b/c", []byte("meta!"), "one", "", "three")
	seg, err := s.Open("a/b/c")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer seg.Close()
	if seg.Records() != 3 || seg.Bytes() != 8 {
		t.Errorf("Records=%d Bytes=%d", seg.Records(), seg.Bytes())
	}
	if string(seg.Meta()) != "meta!" {
		t.Errorf("Meta = %q", seg.Meta())
	}
	if got := readSegment(t, s, "a/b/c"); !reflect.DeepEqual(got, []string{"one", "", "three"}) {
		t.Errorf("records = %q", got)
	}
}

func TestMultiBlockIter(t *testing.T) {
	s := openStore(t, t.TempDir(), 1)
	var recs []string
	for i := 0; i < 3000; i++ {
		recs = append(recs, fmt.Sprintf("%04d-%s", i, strings.Repeat("x", 50)))
	}
	writeSegment(t, s, "big", nil, recs...)
	if got := readSegment(t, s, "big"); !reflect.DeepEqual(got, recs) {
		t.Fatalf("multi-block round trip mismatch: %d records", len(got))
	}
	seg, err := s.Open("big")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer seg.Close()
	for _, start := range []int64{1, 571, 572, 1500, 2999, 3000, 9999} {
		it := seg.Iter(start)
		n := start
		for it.Next() {
			if string(it.Record()) != recs[n] {
				t.Fatalf("Iter(%d): record %d mismatch", start, n)
			}
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("Iter(%d): %v", start, err)
		}
		want := int64(len(recs))
		if start > want {
			want = start
		}
		if n != want {
			t.Errorf("Iter(%d) ended at %d, want %d", start, n, want)
		}
	}
}

func TestListExistsDelete(t *testing.T) {
	s := openStore(t, t.TempDir(), 4)
	for _, n := range []string{"x/2", "x/1", "y/1"} {
		writeSegment(t, s, n, nil, "r")
	}
	if got := s.List("x/"); !reflect.DeepEqual(got, []string{"x/1", "x/2"}) {
		t.Errorf("List = %v", got)
	}
	if !s.Exists("x/1") || s.Exists("x/3") {
		t.Error("Exists wrong")
	}
	if err := s.Delete("x/1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Exists("x/1") {
		t.Error("x/1 survives delete")
	}
	if err := s.Delete("x/1"); err != nil {
		t.Errorf("second Delete: %v", err)
	}
}

func TestShardLayout(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	for i := 0; i < 32; i++ {
		writeSegment(t, s, fmt.Sprintf("f%d", i), nil, "r")
	}
	used := 0
	for i := 0; i < 4; i++ {
		ents, err := os.ReadDir(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			t.Fatalf("shard dir %d: %v", i, err)
		}
		if len(ents) > 0 {
			used++
		}
	}
	// 32 names over 4 shards: all shards should carry some segments.
	if used < 2 {
		t.Errorf("only %d of 4 shards used", used)
	}
}

// Reopening a store directory must rebuild the index from segment footers:
// the disk backend's persistence guarantee.
func TestReopenPersistence(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 2)
	writeSegment(t, s, "keep/me", []byte{1, 2}, "alpha", "beta")

	// Leave a stale temp file behind; reopen must clean it up.
	orphan := filepath.Join(dir, "shard-000", "orphan.123.tmp")
	if err := os.WriteFile(orphan, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 2)
	if !s2.Exists("keep/me") {
		t.Fatal("segment lost on reopen")
	}
	if got := readSegment(t, s2, "keep/me"); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Errorf("records after reopen = %q", got)
	}
	seg, err := s2.Open("keep/me")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Records() != 2 || string(seg.Meta()) != "\x01\x02" {
		t.Errorf("after reopen: %d records, meta %q", seg.Records(), seg.Meta())
	}
	seg.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan temp file survived reopen")
	}
}

func TestShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	openStore(t, dir, 2)
	if _, err := Open(dir, 8); err == nil {
		t.Fatal("Open with different shard count succeeded")
	}
	// Same count (or the default-resolution 0 asking to reuse) reopens fine.
	openStore(t, dir, 2)
}

func TestPendingVisibility(t *testing.T) {
	s := openStore(t, t.TempDir(), 2)
	w, err := s.Create("pending")
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("not yet committed"))
	if !s.Exists("pending") {
		t.Error("pending segment invisible to Exists")
	}
	seg, err := s.Open("pending")
	if err != nil {
		t.Fatalf("Open pending: %v", err)
	}
	if seg.Records() != 0 {
		t.Errorf("pending segment shows %d records before Close", seg.Records())
	}
	seg.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readSegment(t, s, "pending"); !reflect.DeepEqual(got, []string{"not yet committed"}) {
		t.Errorf("records after commit = %q", got)
	}
}

func TestCorruptSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1)
	writeSegment(t, s, "victim", nil, strings.Repeat("z", 500))
	// Flip a payload byte on disk; the block CRC must catch it.
	path := filepath.Join(dir, "shard-000", "victim.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, 1)
	seg, err := s2.Open("victim")
	if err != nil {
		return // rejected at open: fine
	}
	defer seg.Close()
	it := seg.Iter(0)
	for it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("corrupt block read back without error")
	}
}
