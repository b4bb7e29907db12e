// Package vec implements the record batches of the streaming execution
// plane: fixed-capacity, immutable arenas of encoded records. A batch holds
// its records' bytes back to back in one arena with their boundaries, so a
// stream of any records — ID tuples, result rows, aggregation states —
// round-trips byte for byte, and a record read back is a sub-slice of the
// arena that stays valid for as long as the batch is reachable.
//
// The dfs stream registry buffers job outputs as batches, so a
// single-consumer intermediate never round-trips through the DFS backend.
package vec

// DefaultBatchRows is the batch capacity used when a caller does not
// configure one (~1024 rows keeps a batch within a few KB in the ID plane
// and aligns with the engine's cancellation-poll interval).
const DefaultBatchRows = 1024

// Batch is a sealed, immutable batch of records: their bytes back to back
// in one arena, in append order, with the record boundaries in offs.
type Batch struct {
	data []byte
	offs []int // record boundaries into data, len rows+1
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

// Builder accumulates records into batches. Append seals and returns a
// batch when it fills (maxRows); Flush seals whatever remains. Builders
// copy the appended record, so callers may reuse the slice immediately.
type Builder struct {
	maxRows int
	cur     *Batch
	// arenaHint is the arena length of the last sealed batch; each new
	// arena starts at that capacity, so steady-state appends rarely regrow.
	arenaHint int
}

// NewBuilder returns a builder sealing batches at maxRows rows (<= 0
// selects DefaultBatchRows).
func NewBuilder(maxRows int) *Builder {
	if maxRows <= 0 {
		maxRows = DefaultBatchRows
	}
	return &Builder{maxRows: maxRows}
}

// Append copies one record into the open batch, returning the sealed batch
// when the append filled it, else nil.
func (bu *Builder) Append(rec []byte) *Batch {
	if bu.cur == nil {
		bu.cur = &Batch{
			data: make([]byte, 0, bu.arenaHint),
			offs: make([]int, 1, bu.maxRows+1),
		}
	}
	b := bu.cur
	b.data = append(b.data, rec...)
	b.offs = append(b.offs, len(b.data))
	if b.Rows() >= bu.maxRows {
		return bu.seal()
	}
	return nil
}

// seal detaches and returns the open batch.
func (bu *Builder) seal() *Batch {
	b := bu.cur
	bu.cur = nil
	bu.arenaHint = len(b.data)
	return b
}

// Flush seals and returns the partially filled open batch, or nil when the
// builder is empty.
func (bu *Builder) Flush() *Batch {
	if bu.cur == nil {
		return nil
	}
	return bu.seal()
}
