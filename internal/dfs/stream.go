package dfs

import (
	"fmt"
	"sync"

	"rapidanalytics/internal/vec"
)

// Streamed files: FS.CreateStream opens a file whose records buffer as
// vec.Batch record arenas in the FS's stream registry instead of being
// materialised into the storage backend. Open serves streamed files
// exactly like backend files — same snapshot semantics, same NumRecords /
// Bytes / StoredBytes metadata, re-iterable from any start, records
// immutable and valid indefinitely — so planners, split carving and
// side-input loading never know the DFS round-trip was elided. When a
// stream's buffered logical bytes cross its spill threshold it overflows:
// the buffered batches replay into a regular backend file under the same
// name and the writer degrades to plain backend appends (PR 6's spill
// machinery as the overflow path), after which the file behaves as if it
// had never streamed.
//
// One deliberate asymmetry with backend files: streamed files do not
// appear in List or TotalStoredBytes. They have no stored footprint —
// that is the point.

// streamFile is one streamed file's live state in the registry.
type streamFile struct {
	mu      sync.Mutex
	ratio   float64
	batches []*vec.Batch
	records int
	bytes   int64
}

// snapshot captures the committed batches for a reader.
func (sf *streamFile) snapshot() (batches []*vec.Batch, records int, bytes int64) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return sf.batches[:len(sf.batches):len(sf.batches)], sf.records, sf.bytes
}

// commit appends one sealed batch, returning the new total logical bytes.
func (sf *streamFile) commit(b *vec.Batch) int64 {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	sf.batches = append(sf.batches, b)
	sf.records += b.Rows()
	sf.bytes += b.Bytes()
	return sf.bytes
}

// CreateStream creates (or truncates) a streamed file: records buffer as
// batches of vec.DefaultBatchRows rows and no backend write happens unless
// the buffered logical bytes reach spillBytes (<= 0 disables the overflow,
// keeping the stream resident). The returned Writer is used exactly like
// one from Create; until an overflow the stream copies every appended
// record, and after one it hands them to the backend like Create's writer.
// Content becomes visible to Open batch by batch and the partial tail
// commits at Close.
func (fs *FS) CreateStream(name string, ratio float64, spillBytes int64) (*Writer, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("%w: %g for %q", ErrCompressionRatio, ratio, name)
	}
	// A stale backend file under the same name would resurface if the
	// stream is later deleted; clear it so the name has one owner. It goes
	// first, so a failed delete leaves the name as it was.
	if err := fs.b.Delete(name); err != nil {
		return nil, err
	}
	sf := &streamFile{ratio: ratio}
	fs.mu.Lock()
	if fs.streams == nil {
		fs.streams = map[string]*streamFile{}
	}
	fs.streams[name] = sf
	fs.mu.Unlock()
	sw := &streamWriter{
		fs:         fs,
		name:       name,
		ratio:      ratio,
		sf:         sf,
		builder:    vec.NewBuilder(vec.DefaultBatchRows),
		spillBytes: spillBytes,
	}
	return &Writer{fw: sw, name: name, ratio: ratio}, nil
}

// stream looks a name up in the stream registry.
func (fs *FS) stream(name string) *streamFile {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.streams[name]
}

// dropStream removes a name from the stream registry (Create over the
// name, Delete, or stream overflow). Snapshots already taken stay valid.
func (fs *FS) dropStream(name string) {
	fs.mu.Lock()
	delete(fs.streams, name)
	fs.mu.Unlock()
}

// openStream builds a snapshot File over the stream's committed batches.
func (fs *FS) openStream(name string, sf *streamFile) *File {
	batches, records, bytes := sf.snapshot()
	return &File{
		name:  name,
		nrec:  records,
		bytes: bytes,
		ratio: sf.ratio,
		src:   &streamSource{batches: batches},
	}
}

// streamWriter is the FileWriter behind CreateStream. Appends copy into
// the batch builder; sealed batches commit to the stream file. When the
// committed bytes cross spillBytes the writer overflows to a real backend
// file and every subsequent append goes straight through.
type streamWriter struct {
	fs         *FS
	name       string
	ratio      float64
	sf         *streamFile
	builder    *vec.Builder
	spillBytes int64

	batchCount int64
	overflowed FileWriter // non-nil once spilled to the backend
}

// Append implements FileWriter. Until an overflow the stream copies rec
// into the builder's arena rather than retaining it.
func (w *streamWriter) Append(rec []byte) error {
	if w.overflowed != nil {
		return w.overflowed.Append(rec)
	}
	if b := w.builder.Append(rec); b != nil {
		return w.commit(b)
	}
	return nil
}

// AppendBatch adds a sealed batch wholesale — the write path reduce
// output uses. Any partial builder rows commit first to preserve record
// order.
func (w *streamWriter) AppendBatch(b *vec.Batch) error {
	if w.overflowed != nil {
		return appendRows(w.overflowed, b)
	}
	if partial := w.builder.Flush(); partial != nil {
		if err := w.commit(partial); err != nil {
			return err
		}
	}
	if w.overflowed != nil { // the partial commit may have overflowed
		return appendRows(w.overflowed, b)
	}
	return w.commit(b)
}

// commit publishes one sealed batch and runs the overflow check.
func (w *streamWriter) commit(b *vec.Batch) error {
	total := w.sf.commit(b)
	w.batchCount++
	if w.spillBytes > 0 && total >= w.spillBytes {
		return w.overflow()
	}
	return nil
}

// overflow demotes the stream to a materialised backend file: the
// committed batches replay into a fresh backend writer under the same
// name, the registry entry drops, and later appends bypass the builder.
func (w *streamWriter) overflow() error {
	bw, err := w.fs.b.Create(w.name, w.ratio)
	if err != nil {
		return err
	}
	batches, _, _ := w.sf.snapshot()
	for _, b := range batches {
		if err := appendRows(bw, b); err != nil {
			bw.Close() // abandon the half-replayed file; the replay error wins
			return err
		}
	}
	w.overflowed = bw
	w.batchCount = 0
	w.fs.dropStream(w.name)
	return nil
}

// Close implements FileWriter: the partial tail batch commits (or, after
// an overflow, the backend file commits).
func (w *streamWriter) Close() error {
	if w.overflowed != nil {
		return w.overflowed.Close()
	}
	if b := w.builder.Flush(); b != nil {
		if err := w.commit(b); err != nil {
			return err
		}
		if w.overflowed != nil {
			return w.overflowed.Close()
		}
	}
	return nil
}

// streamedBatches reports the batches committed to the live stream, or 0
// after an overflow (the output materialised after all).
func (w *streamWriter) streamedBatches() int64 {
	if w.overflowed != nil {
		return 0
	}
	return w.batchCount
}

// streamSource adapts a batch snapshot to the recordSource contract.
type streamSource struct {
	batches []*vec.Batch
}

func (s *streamSource) iterate(start int) RecordIterator {
	if start < 0 {
		start = 0
	}
	return &streamRecordIterator{batches: s.batches, skip: start}
}

func (s *streamSource) close() error { return nil }

// streamRecordIterator walks batch rows as records. Each record is a
// sub-slice of its batch's immutable arena.
type streamRecordIterator struct {
	batches []*vec.Batch
	bi      int // current batch
	row     int // next row within batches[bi]
	skip    int // rows still to skip for a positioned start
	cur     []byte
}

func (it *streamRecordIterator) Next() bool {
	for it.bi < len(it.batches) {
		b := it.batches[it.bi]
		if it.skip >= b.Rows()-it.row {
			it.skip -= b.Rows() - it.row
			it.bi++
			it.row = 0
			continue
		}
		it.row += it.skip
		it.skip = 0
		it.cur = b.Record(it.row)
		it.row++
		if it.row >= b.Rows() {
			it.bi++
			it.row = 0
		}
		return true
	}
	it.cur = nil
	return false
}

func (it *streamRecordIterator) Record() []byte { return it.cur }

func (it *streamRecordIterator) Err() error { return nil }
