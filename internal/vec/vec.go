// Package vec implements the columnar batch carrier of the streaming
// execution plane: fixed-capacity batches of term-ID tuples stored
// column-major ([]uint64 per column plus a validity bitset), built from and
// re-encoded to the canonical uvarint record encoding of ID-tuples
// (codec.EncodeIDs) without loss. Records that are not canonical ID
// tuples — lexical result rows, aggregation states, tagged join rows of
// mixed arity — fall back to a raw batch holding the record bytes verbatim
// in an arena, so a batch stream can carry any record stream byte-exactly.
//
// Batches flow between operators through the pull-based Iterator; the dfs
// stream registry buffers job outputs as batches so a single-consumer
// intermediate never round-trips through the DFS backend.
package vec

import "encoding/binary"

// DefaultBatchRows is the batch capacity used when a caller does not
// configure one (~1024 rows keeps a batch within a few KB in the ID plane
// and aligns with the engine's cancellation-poll interval).
const DefaultBatchRows = 1024

// maxColumns bounds the arity a columnar batch will hold; wider tuples
// (which do not occur in practice — plans stay under a few dozen columns)
// fall back to raw batches rather than allocating huge column sets.
const maxColumns = 64

// Batch is a sealed, immutable batch of records. A batch is either
// columnar — every record a canonical uvarint ID tuple of one shared arity,
// stored column-major with per-column validity bitsets — or raw, holding
// arbitrary record bytes in an arena. Row order is the exact append order,
// and re-encoding every row reproduces the appended records byte for byte.
type Batch struct {
	arity int // column count; -1 for raw batches
	rows  int
	cols  [][]uint64
	valid [][]uint64 // per-column bitsets; bit set = non-NULL (id != 0)
	data  []byte     // raw-batch arena
	offs  []int      // raw-batch record boundaries, len rows+1
	bytes int64      // sum of encoded record lengths
}

// Rows returns the number of records in the batch.
func (b *Batch) Rows() int { return b.rows }

// Bytes returns the total encoded length of the batch's records — the
// logical DFS bytes the batch stands in for.
func (b *Batch) Bytes() int64 { return b.bytes }

// Columnar reports whether the batch stores ID columns (true) or raw
// record bytes (false).
func (b *Batch) Columnar() bool { return b.arity >= 0 }

// Arity returns the column count of a columnar batch, or -1 for raw.
func (b *Batch) Arity() int { return b.arity }

// ID returns the term ID at (col, row) of a columnar batch.
func (b *Batch) ID(col, row int) uint64 { return b.cols[col][row] }

// Null reports whether (col, row) of a columnar batch holds the NULL term
// (ID 0), read from the validity bitset.
func (b *Batch) Null(col, row int) bool {
	return b.valid[col][row>>6]&(1<<(uint(row)&63)) == 0
}

// AppendRecord appends row's canonical record encoding to dst and returns
// the extended slice. For columnar batches this re-encodes the ID tuple
// (byte-identical to the appended record); for raw batches it copies the
// arena bytes.
//
//rapid:hot
func (b *Batch) AppendRecord(dst []byte, row int) []byte {
	if b.arity < 0 {
		return append(dst, b.data[b.offs[row]:b.offs[row+1]]...)
	}
	dst = binary.AppendUvarint(dst, uint64(b.arity))
	for c := 0; c < b.arity; c++ {
		dst = binary.AppendUvarint(dst, b.cols[c][row])
	}
	return dst
}

// RecordLen returns the encoded length of row, without materialising it.
//
//rapid:hot
func (b *Batch) RecordLen(row int) int {
	if b.arity < 0 {
		return b.offs[row+1] - b.offs[row]
	}
	n := uvarintLen(uint64(b.arity))
	for c := 0; c < b.arity; c++ {
		n += uvarintLen(b.cols[c][row])
	}
	return n
}

// uvarintLen returns the canonical uvarint encoding length of v.
//
//rapid:hot
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// parseIDTuple parses rec as a canonical uvarint ID tuple, appending the
// IDs to vals. ok is false when rec is not a tuple, exceeds maxColumns, is
// not minimally encoded, or has trailing bytes — any case where re-encoding
// would not reproduce rec exactly.
//
//rapid:hot
func parseIDTuple(rec []byte, vals []uint64) (_ []uint64, ok bool) {
	n, sz := binary.Uvarint(rec)
	if sz <= 0 || sz != uvarintLen(n) || n > maxColumns {
		return vals, false
	}
	pos := sz
	for i := uint64(0); i < n; i++ {
		v, vsz := binary.Uvarint(rec[pos:])
		if vsz <= 0 || vsz != uvarintLen(v) {
			return vals, false
		}
		vals = append(vals, v)
		pos += vsz
	}
	if pos != len(rec) {
		return vals, false
	}
	return vals, true
}

// Builder accumulates records into batches. Append seals and returns a
// batch when it fills (maxRows) or when the incoming record's shape is
// incompatible with the open batch (different arity, or columnar vs raw);
// Flush seals whatever remains. Builders copy everything out of the
// appended record, so callers may reuse the slice immediately.
type Builder struct {
	maxRows int
	cur     *Batch
	scratch []uint64
}

// NewBuilder returns a builder sealing batches at maxRows rows (<= 0
// selects DefaultBatchRows).
func NewBuilder(maxRows int) *Builder {
	if maxRows <= 0 {
		maxRows = DefaultBatchRows
	}
	return &Builder{maxRows: maxRows}
}

// Append adds one record, returning a sealed batch when the append
// completed one (shape change or capacity), else nil. The record is fully
// copied.
//
//rapid:hot
func (bu *Builder) Append(rec []byte) *Batch {
	vals, isTuple := parseIDTuple(rec, bu.scratch[:0])
	bu.scratch = vals
	var sealed *Batch
	if bu.cur != nil && bu.cur.rows > 0 {
		compatible := isTuple && bu.cur.arity == len(vals) || !isTuple && bu.cur.arity < 0
		if !compatible {
			sealed = bu.seal()
		}
	}
	if bu.cur == nil {
		bu.cur = bu.newBatch(isTuple, len(vals))
	}
	b := bu.cur
	if b.arity >= 0 {
		for c, v := range vals {
			b.cols[c] = append(b.cols[c], v)
			if v != 0 {
				b.valid[c][b.rows>>6] |= 1 << (uint(b.rows) & 63)
			}
		}
	} else {
		b.data = append(b.data, rec...)
		b.offs = append(b.offs, len(b.data))
	}
	b.rows++
	b.bytes += int64(len(rec))
	if b.rows >= bu.maxRows {
		full := bu.seal()
		if sealed == nil {
			return full
		}
		// A shape change and a fill in one append only happens with
		// maxRows == 1; the shape-sealed batch was empty then.
		return full
	}
	return sealed
}

// newBatch allocates an open batch shaped for the incoming record.
func (bu *Builder) newBatch(isTuple bool, arity int) *Batch {
	if !isTuple {
		return &Batch{arity: -1, offs: make([]int, 1, bu.maxRows+1)}
	}
	b := &Batch{
		arity: arity,
		cols:  make([][]uint64, arity),
		valid: make([][]uint64, arity),
	}
	words := (bu.maxRows + 63) / 64
	for c := range b.cols {
		b.cols[c] = make([]uint64, 0, bu.maxRows)
		b.valid[c] = make([]uint64, words)
	}
	return b
}

// seal detaches and returns the open batch.
func (bu *Builder) seal() *Batch {
	b := bu.cur
	bu.cur = nil
	return b
}

// Flush seals and returns the partially filled open batch, or nil when the
// builder is empty.
func (bu *Builder) Flush() *Batch {
	if bu.cur == nil || bu.cur.rows == 0 {
		bu.cur = nil
		return nil
	}
	return bu.seal()
}
