package dfs

import (
	"bytes"
	"fmt"
	"testing"

	"rapidanalytics/internal/vec"
)

// refFile is the mem backend before batches, kept as the reference
// FuzzWriterMatchesReference compares every column with: a file is one
// []byte per record, Write copies the record into a slice of its own,
// WriteBatch appends the batch's rows, and a snapshot sees every record
// written so far.
type refFile struct {
	recs  [][]byte
	bytes int64
}

func (f *refFile) write(rec []byte) {
	f.recs = append(f.recs, append([]byte{}, rec...))
	f.bytes += int64(len(rec))
}

func (f *refFile) writeBatch(b *vec.Batch) {
	if b == nil {
		return
	}
	for r := range b.Rows() {
		f.write(b.Record(r))
	}
}

// snapshot returns the records written so far.
func (f *refFile) snapshot() [][]byte { return f.recs[:len(f.recs):len(f.recs)] }

// checkRecords compares f's records from start with want[start:].
func checkRecords(t *testing.T, what string, f *File, start int, want [][]byte) {
	t.Helper()
	it := f.Records(start)
	n := 0
	for ; it.Next(); n++ {
		if start+n >= len(want) || !bytes.Equal(it.Record(), want[start+n]) {
			t.Fatalf("%s: Records(%d)[%d] = %q, want %d records %q", what, start, n, it.Record(), len(want), want)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("%s: Records(%d): %v", what, start, err)
	}
	if want := max(len(want)-start, 0); n != want {
		t.Fatalf("%s: Records(%d) yielded %d records, want %d", what, start, n, want)
	}
}

// checkSnapshot checks f against records: metadata and a few positioned
// reads, pos among them.
func checkSnapshot(t *testing.T, what string, f *File, records [][]byte, pos int) {
	t.Helper()
	var logical int64
	for _, r := range records {
		logical += int64(len(r))
	}
	if f.NumRecords() != len(records) || f.Bytes() != logical {
		t.Fatalf("%s: %d records of %d bytes, want %d of %d", what, f.NumRecords(), f.Bytes(), len(records), logical)
	}
	n := len(records)
	for _, start := range []int{0, 1, n / 2, n - 1, n, n + 1, pos % (n + 2)} {
		checkRecords(t, what, f, max(start, 0), records)
	}
}

// FuzzWriterMatchesReference drives a random sequence of writes through a
// Writer on every conformance column and through refFile: single records
// (zero-length ones among them) from one reused buffer, sealed, partial and
// empty batches, bursts that cross a batch boundary, Opens in the middle
// of the write and after Close, and positioned Records. A snapshot taken
// mid-write holds a prefix of the reference's records at that moment (a
// disk file is not visible before Close) and never changes; after Close
// every column holds exactly the reference's records.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 2, 1, 2, 7, 2, 9})
	f.Add([]byte{4, 230, 2, 5, 1, 3, 0, 12, 4, 1, 3, 200})
	f.Add([]byte{1, 4, 1, 0, 2, 0, 0, 0, 3, 2})
	f.Add([]byte{4, 255, 4, 255, 2, 0, 1, 2, 3, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for name, mk := range columns(t) {
			c := mk()
			w, err := c.create("f", 0.5)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refFile{}
			type snap struct {
				f    *File
				want [][]byte
			}
			var snaps []snap
			var buf []byte
			arg := func(i int) int {
				if 0 <= i && i < len(ops) {
					return int(ops[i])
				}
				return 0
			}
			// rec fills buf with a record of length n that names its
			// position, overwriting the last record written from it.
			rec := func(n int) []byte {
				buf = buf[:0]
				for len(buf) < n {
					buf = fmt.Appendf(buf, "%d.", len(ref.recs))
				}
				return buf[:n]
			}
			for i := 0; i < len(ops); i += 2 {
				switch ops[i] % 5 {
				case 0: // one record
					r := rec(arg(i+1) % 40)
					w.Write(r)
					ref.write(r)
				case 1: // rows in batches of up to 4, the last partial or nil
					bu := vec.NewBuilder(1 + arg(i+1)%4)
					for range arg(i+1) % 11 {
						r := rec(arg(i+1) % 7)
						if b := bu.Append(r); b != nil {
							w.WriteBatch(b)
							ref.writeBatch(b)
						}
					}
					b := bu.Flush()
					w.WriteBatch(b)
					ref.writeBatch(b)
				case 2: // Open mid-write
					f, err := c.Open("f")
					if err != nil {
						if name != "disk" {
							t.Fatalf("%s: Open mid-write: %v", name, err)
						}
						continue
					}
					defer f.Close()
					got := readAll(t, f)
					want := ref.snapshot()
					if len(got) > len(want) {
						t.Fatalf("%s: mid-write snapshot has %d records, %d written", name, len(got), len(want))
					}
					checkSnapshot(t, name+" mid-write", f, want[:len(got)], arg(i+1))
					snaps = append(snaps, snap{f, want[:len(got)]})
				case 3, 4: // a burst of short records
					for range arg(i+1) * 5 {
						r := rec(arg(i+1) % 3)
						w.Write(r)
						ref.write(r)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
			if w.Records() != int64(len(ref.recs)) || w.Bytes() != ref.bytes || w.StoredBytes() != ref.bytes/2 {
				t.Fatalf("%s: writer counts %d records %d bytes %d stored, want %d, %d, %d",
					name, w.Records(), w.Bytes(), w.StoredBytes(), len(ref.recs), ref.bytes, ref.bytes/2)
			}
			f, err := c.Open("f")
			if err != nil {
				t.Fatalf("%s: Open after Close: %v", name, err)
			}
			defer f.Close()
			checkSnapshot(t, name+" after Close", f, ref.snapshot(), arg(len(ops)-1))
			for _, s := range snaps {
				checkSnapshot(t, name+" mid-write snapshot after Close", s.f, s.want, 0)
			}
		}
	})
}
