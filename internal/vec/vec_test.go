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
// through both Record and AppendRecord, with Bytes summing the lengths.
func checkRoundTrip(t testing.TB, batches []*Batch, want [][]byte) {
	t.Helper()
	i := 0
	for _, b := range batches {
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
func FuzzBuilderRoundTrip(f *testing.F) {
	f.Add(uint8(4), []byte("\x02ab\x00\x03xyz\x01q"))
	f.Add(uint8(1), encodeTuple(1, 2, 3))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, maxRows uint8, in []byte) {
		var recs [][]byte
		for len(in) > 0 {
			n := min(int(in[0])%16, len(in)-1)
			recs = append(recs, in[1:1+n])
			in = in[1+n:]
		}
		checkRoundTrip(t, build(int(maxRows), recs), recs)
	})
}

// Reading a record allocates nothing, and appending one nothing beyond the
// next batch's arena, offsets and header once per DefaultBatchRows rows:
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
