// Package vec implements the record batches of the streaming execution
// plane: fixed-capacity, immutable arenas of encoded records. A batch holds
// its records' bytes back to back in one arena with their boundaries, so a
// stream of any records — ID tuples, result rows, aggregation states —
// round-trips byte for byte, and a record read back is a sub-slice of the
// arena that stays valid for as long as the batch is reachable.
//
// Batches are the one in-memory record container: a dfs.Writer copies the
// records written to it into batches, an in-memory dfs file (streamed or
// not) holds the sealed batches themselves, and reduce partitions and
// map-only tasks buffer their output as batches before committing it.
package vec

// DefaultBatchRows is the batch capacity used when a caller does not
// configure one (~1024 rows keeps a batch within a few KB in the ID plane
// and aligns with the engine's cancellation-poll interval).
const DefaultBatchRows = 1024

// Batch is a sealed, immutable batch of records: their bytes back to back
// in one arena, in append order, with the record boundaries in offs. Both
// are exactly as long as their capacity: a batch owns nothing it does not
// hold.
type Batch struct {
	data []byte
	offs []uint32 // record boundaries into data, len rows+1
}

// Rows returns the number of records in the batch.
func (b *Batch) Rows() int { return len(b.offs) - 1 }

// Bytes returns the total encoded length of the batch's records — the
// logical DFS bytes the batch stands in for.
func (b *Batch) Bytes() int64 { return int64(len(b.data)) }

// Record returns row's record bytes. The slice aliases the batch's arena
// with its capacity clipped to the record, so appending to it never
// overwrites the next record; callers must not modify it.
func (b *Batch) Record(row int) []byte {
	end := b.offs[row+1]
	return b.data[b.offs[row]:end:end]
}

// AppendRecord appends row's record bytes to dst and returns the extended
// slice.
func (b *Batch) AppendRecord(dst []byte, row int) []byte {
	return append(dst, b.Record(row)...)
}

// maxBatchBytes is the most bytes a batch holds: its offsets are uint32.
const maxBatchBytes = 1<<32 - 1

// sealsFirst reports whether a record of n bytes must go to a new batch
// because an open batch holding have bytes cannot take it.
func sealsFirst(have, n uint64) bool { return have > 0 && have+n > maxBatchBytes }

// Builder accumulates records into batches. It appends into scratch of
// its own, which it keeps from batch to batch, and seals a batch by
// copying the scratch into exact-size arrays, so no sealed batch shares
// memory with the builder. Append seals and returns a batch when it fills
// (maxRows), or before a record that would take its bytes past
// maxBatchBytes; Flush seals whatever remains. Builders copy the appended
// record, so callers may reuse the slice immediately. The zero Builder
// seals at DefaultBatchRows.
type Builder struct {
	maxRows int
	// data and offs are the open batch: its records' bytes and their end
	// offsets.
	data []byte
	offs []uint32
}

// NewBuilder returns a builder sealing batches at maxRows rows (<= 0
// selects DefaultBatchRows).
func NewBuilder(maxRows int) *Builder { return &Builder{maxRows: maxRows} }

// Append copies one record into the open batch, returning the batch it
// sealed, else nil. A batch sealed before the record because of its size
// is never also full after it: it held fewer than maxRows rows.
func (bu *Builder) Append(rec []byte) *Batch {
	if bu.maxRows <= 0 {
		bu.maxRows = DefaultBatchRows
	}
	if uint64(len(rec)) > maxBatchBytes {
		panic("vec: record larger than a batch")
	}
	var sealed *Batch
	if sealsFirst(uint64(len(bu.data)), uint64(len(rec))) {
		sealed = bu.seal()
	}
	bu.data = append(bu.data, rec...)
	bu.offs = append(bu.offs, uint32(len(bu.data)))
	if len(bu.offs) >= bu.maxRows {
		return bu.seal()
	}
	return sealed
}

// seal copies the open batch into a new exact-size Batch and empties the
// scratch.
func (bu *Builder) seal() *Batch {
	b := &Batch{data: make([]byte, len(bu.data)), offs: make([]uint32, len(bu.offs)+1)}
	copy(b.data, bu.data)
	copy(b.offs[1:], bu.offs)
	bu.Reset()
	return b
}

// Flush seals and returns the partially filled open batch, or nil when the
// builder is empty.
func (bu *Builder) Flush() *Batch {
	if len(bu.offs) == 0 {
		return nil
	}
	return bu.seal()
}

// Reset drops the open batch and keeps the scratch, so a recycled builder
// starts empty.
func (bu *Builder) Reset() { bu.data, bu.offs = bu.data[:0], bu.offs[:0] }

// ScratchBytes returns the capacity of the builder's scratch in bytes: what
// it keeps from batch to batch.
func (bu *Builder) ScratchBytes() int { return cap(bu.data) + 4*cap(bu.offs) }

// Poison overwrites the whole of the builder's scratch with 0xFF bytes and
// drops the open batch. Tests of recycled builders poison every builder
// handed back, so a sealed batch that shared the scratch would read back
// 0xFF.
func (bu *Builder) Poison() {
	data, offs := bu.data[:cap(bu.data)], bu.offs[:cap(bu.offs)]
	for i := range data {
		data[i] = 0xff
	}
	for i := range offs {
		offs[i] = ^uint32(0)
	}
	bu.Reset()
}
