package vec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// encodeTuple builds the canonical uvarint ID-tuple encoding the dict
// plane uses (codec.EncodeIDs without the codec dependency).
func encodeTuple(ids ...uint64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
	}
	return buf
}

// build appends every record to a builder sealing at maxRows and returns
// all sealed batches, the flushed tail included.
func build(maxRows int, recs [][]byte) []*Batch {
	bu := NewBuilder(maxRows)
	var sealed []*Batch
	for _, rec := range recs {
		if b := bu.Append(rec); b != nil {
			sealed = append(sealed, b)
		}
	}
	if b := bu.Flush(); b != nil {
		sealed = append(sealed, b)
	}
	return sealed
}

// checkRoundTrip fails unless the batches hold exactly want, in order,
// through both Record and AppendRecord, with Bytes summing the lengths and
// every batch's arrays exactly as long as their capacity.
func checkRoundTrip(t testing.TB, batches []*Batch, want [][]byte) {
	t.Helper()
	i := 0
	for _, b := range batches {
		if cap(b.data) != len(b.data) || cap(b.offs) != len(b.offs) {
			t.Fatalf("batch data len %d cap %d, offs len %d cap %d: want exact sizes", len(b.data), cap(b.data), len(b.offs), cap(b.offs))
		}
		var logical int64
		for r := 0; r < b.Rows(); r++ {
			if i >= len(want) {
				t.Fatalf("more rows than the %d appended", len(want))
			}
			if got := b.Record(r); !bytes.Equal(got, want[i]) {
				t.Fatalf("Record(%d) of row %d = %x, want %x", r, i, got, want[i])
			}
			if got := b.AppendRecord([]byte("x"), r); !bytes.Equal(got[1:], want[i]) {
				t.Fatalf("AppendRecord(%d) of row %d = %x, want x%x", r, i, got, want[i])
			}
			logical += int64(len(want[i]))
			i++
		}
		if b.Bytes() != logical {
			t.Fatalf("Bytes = %d, want %d", b.Bytes(), logical)
		}
	}
	if i != len(want) {
		t.Fatalf("rows = %d, want %d", i, len(want))
	}
}

// TestBuilderRoundTripColumnar: fixed-arity ID tuples read back verbatim;
// batches seal at exactly maxRows and an empty builder flushes nothing.
func TestBuilderRoundTripColumnar(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 10; i++ {
		recs = append(recs, encodeTuple(uint64(i), uint64(i)*300, 0))
	}
	sealed := build(4, recs)
	if len(sealed) != 3 || sealed[0].Rows() != 4 || sealed[1].Rows() != 4 || sealed[2].Rows() != 2 {
		t.Fatalf("batches = %d, want 4+4+2 rows", len(sealed))
	}
	checkRoundTrip(t, sealed, recs)
	if NewBuilder(0).Flush() != nil {
		t.Error("empty builder flushed a batch")
	}
}

// TestBuilderRawFallback: records that are not canonical ID tuples —
// truncated and non-canonical encodings, empty records — read back
// verbatim like any other.
func TestBuilderRawFallback(t *testing.T) {
	raws := [][]byte{
		[]byte("lexical\x1frow"),
		{0x81},             // truncated uvarint
		{0x80, 0x00},       // non-canonical zero
		{0x01, 0x80, 0x01}, // non-canonical value encoding
		{0x02, 0x01},       // arity 2, one value: truncated tuple
		{0x00, 0x00},       // trailing byte after empty tuple
		{},                 // empty record
	}
	checkRoundTrip(t, build(DefaultBatchRows, raws), raws)
}

// TestBuilderShapeChangesSealBatches interleaves arities and raw records.
// A change of shape no longer seals: they share one batch, in order.
func TestBuilderShapeChangesSealBatches(t *testing.T) {
	recs := [][]byte{
		encodeTuple(1, 2),
		encodeTuple(3, 4),
		encodeTuple(5, 6, 7),
		[]byte("raw"),
		encodeTuple(8),
		{},
		encodeTuple(0),
		encodeTuple(300, 1<<40),
	}
	sealed := build(DefaultBatchRows, recs)
	if len(sealed) != 1 || sealed[0].Rows() != len(recs) {
		t.Fatalf("batches = %d, want one of %d rows", len(sealed), len(recs))
	}
	checkRoundTrip(t, sealed, recs)
}

// TestBuilderRandomRoundTrip drives random mixtures of canonical tuples
// and raw bytes through small batches; the reassembled stream must be
// byte-identical. Determinism: fixed seed.
func TestBuilderRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var want [][]byte
	for i := 0; i < 500; i++ {
		var rec []byte
		switch rng.Intn(3) {
		case 0:
			rec = encodeTuple(uint64(rng.Intn(1 << 20)))
		case 1:
			rec = encodeTuple(uint64(rng.Intn(5)), uint64(rng.Uint32()), uint64(rng.Intn(2)))
		default:
			rec = make([]byte, rng.Intn(9))
			rng.Read(rec)
		}
		want = append(want, rec)
	}
	checkRoundTrip(t, build(3, want), want)
}

// TestBuilderCopiesRecord mutates the appended slice afterwards; the batch
// must hold its own copy.
func TestBuilderCopiesRecord(t *testing.T) {
	bu := NewBuilder(8)
	rec := []byte{0xff, 0xfe}
	bu.Append(rec)
	rec[0] = 0
	if got := bu.Flush().Record(0); !bytes.Equal(got, []byte{0xff, 0xfe}) {
		t.Errorf("row aliased the appended slice: %x", got)
	}
}

// TestBatchRecordNoAlias: records stay valid after later appends seal new
// batches, and appending to a returned record never overwrites its
// neighbour in the arena.
func TestBatchRecordNoAlias(t *testing.T) {
	bu := NewBuilder(2)
	bu.Append([]byte("ab"))
	b := bu.Append([]byte("cd"))
	first := b.Record(0)
	for i := 0; i < 10; i++ {
		bu.Append([]byte("zz"))
	}
	_ = append(first, "XY"...)
	if string(b.Record(0)) != "ab" || string(b.Record(1)) != "cd" {
		t.Fatalf("records = %q %q, want ab cd", b.Record(0), b.Record(1))
	}
}

// FuzzBuilderRoundTrip: any record sequence, cut from the input by its own
// length bytes, reads back identically through batches of any capacity.
// One builder takes the input cut into several sequences, each flushed,
// and its scratch is poisoned after each flush: the batches of every
// sequence must still read back, so none shares the builder's scratch.
func FuzzBuilderRoundTrip(f *testing.F) {
	f.Add(uint8(4), []byte("\x02ab\x00\x03xyz\x01q"))
	f.Add(uint8(1), encodeTuple(1, 2, 3))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(2), []byte("\x12ab\x00\x13xyz\x21q\x02zz"))
	f.Fuzz(func(t *testing.T, maxRows uint8, in []byte) {
		var recs [][]byte
		var cuts []int // after which records a sequence ends
		for len(in) > 0 {
			n := min(int(in[0])%16, len(in)-1)
			recs = append(recs, in[1:1+n])
			if in[0]&0x10 != 0 {
				cuts = append(cuts, len(recs))
			}
			in = in[1+n:]
		}
		checkRoundTrip(t, build(int(maxRows), recs), recs)

		bu := NewBuilder(int(maxRows))
		var sealed []*Batch
		for i, rec := range recs {
			if b := bu.Append(rec); b != nil {
				sealed = append(sealed, b)
			}
			if len(cuts) > 0 && cuts[0] == i+1 {
				cuts = cuts[1:]
				if b := bu.Flush(); b != nil {
					sealed = append(sealed, b)
				}
				bu.Poison()
			}
		}
		if b := bu.Flush(); b != nil {
			sealed = append(sealed, b)
		}
		bu.Poison()
		checkRoundTrip(t, sealed, recs)
	})
}

// A batch's offsets are uint32, so the builder seals an open batch before
// a record that would take its bytes past 4 GiB − 1, and only then: never
// an empty batch, and not at exactly the limit.
func TestSealBeforeFourGiB(t *testing.T) {
	for _, c := range []struct {
		have, n uint64
		want    bool
	}{
		{0, 0, false},
		{0, maxBatchBytes, false},
		{1, maxBatchBytes - 1, false},
		{1, maxBatchBytes, true},
		{maxBatchBytes - 10, 10, false},
		{maxBatchBytes - 10, 11, true},
		{maxBatchBytes, 0, false},
		{maxBatchBytes, 1, true},
		{3 << 30, 1 << 30, true},
	} {
		if got := sealsFirst(c.have, c.n); got != c.want {
			t.Errorf("sealsFirst(%d, %d) = %v, want %v", c.have, c.n, got, c.want)
		}
	}
}

// Flush and Reset leave the builder's scratch in place for the next batch,
// and a reset drops the open batch.
func TestBuilderKeepsScratch(t *testing.T) {
	bu := NewBuilder(8)
	bu.Append([]byte("abcdef"))
	bu.Append([]byte("gh"))
	data := &bu.data[0]
	if b := bu.Flush(); b.Rows() != 2 {
		t.Fatalf("flushed %d rows, want 2", b.Rows())
	}
	bu.Append([]byte("xy"))
	if &bu.data[0] != data {
		t.Error("the next batch did not reuse the scratch")
	}
	bu.Reset()
	if bu.Flush() != nil {
		t.Error("a reset builder flushed a batch")
	}
}

// Reading a record allocates nothing, and appending one nothing beyond the
// sealed batch's arena, offsets and header once per DefaultBatchRows rows:
// averaged over fewer runs than a batch holds, that is zero.
func TestSteadyStateAllocs(t *testing.T) {
	bu := NewBuilder(DefaultBatchRows)
	rec := encodeTuple(1, 300, 70000)
	for bu.Append(rec) == nil {
	}
	b := build(4, [][]byte{rec, rec})[0]
	var dst []byte
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Builder.Append", func() { bu.Append(rec) }},
		{"Batch.Record", func() { dst = b.Record(1) }},
		{"Batch.AppendRecord", func() { dst = b.AppendRecord(dst[:0], 1) }},
	} {
		c.run()
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}
}
