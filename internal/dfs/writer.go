package dfs

import (
	"sync"
	"sync/atomic"

	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/vec"
)

// Writer appends records to a file and commits them at Close. Writes are
// internally locked (each writing task still conventionally owns its
// writer); backend errors are sticky and surface at Close.
type Writer struct {
	fw    FileWriter
	name  string
	ratio float64
	span  *obs.Span
	open  *atomic.Int64 // the FS's handle count, decremented by the first Close

	mu      sync.Mutex
	records int64
	bytes   int64
	err     error
	closed  bool
}

// SetSpan attaches an observability span that accrues one record and the
// record's logical bytes per write. A nil span (the default) leaves writes
// untraced at no cost beyond a nil check.
func (w *Writer) SetSpan(s *obs.Span) { w.span = s }

// Name returns the name of the file being written.
func (w *Writer) Name() string { return w.name }

// Write appends one record. The record is copied.
func (w *Writer) Write(record []byte) {
	rec := make([]byte, len(record))
	copy(rec, record)
	w.WriteOwned(rec)
}

// WriteOwned appends one record without copying; the caller must not reuse
// the slice.
func (w *Writer) WriteOwned(record []byte) {
	w.mu.Lock()
	if w.err == nil && !w.closed {
		if err := w.fw.Append(record); err != nil {
			w.err = err
		} else {
			w.records++
			w.bytes += int64(len(record))
		}
	}
	w.mu.Unlock()
	w.span.AddRecords(1)
	w.span.AddBytes(int64(len(record)))
}

// appendRows appends every row of b to fw. Rows are sub-slices of the
// batch's immutable arena, so fw may retain them without a copy.
func appendRows(fw FileWriter, b *vec.Batch) error {
	for r := 0; r < b.Rows(); r++ {
		if err := fw.Append(b.Record(r)); err != nil {
			return err
		}
	}
	return nil
}

// WriteBatch appends every row of a sealed batch. On a streamed file the
// batch transfers as-is; backend files receive its rows as arena
// sub-slices, with no per-record copy. Volume and span accounting match
// row-at-a-time writes exactly. The batch must be sealed; the writer takes
// it over.
func (w *Writer) WriteBatch(b *vec.Batch) {
	rows, bytes := int64(b.Rows()), b.Bytes()
	w.mu.Lock()
	if w.err == nil && !w.closed {
		var err error
		if sw, ok := w.fw.(*streamWriter); ok {
			err = sw.AppendBatch(b)
		} else {
			err = appendRows(w.fw, b)
		}
		if err != nil {
			w.err = err
		} else {
			w.records += rows
			w.bytes += bytes
		}
	}
	w.mu.Unlock()
	w.span.AddRecords(rows)
	w.span.AddBytes(bytes)
}

// StreamedBatches returns the number of batches committed to a live
// stream: zero for backend writers and for streams that overflowed to the
// backend (their output materialised after all).
func (w *Writer) StreamedBatches() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if sw, ok := w.fw.(*streamWriter); ok {
		return sw.streamedBatches()
	}
	return 0
}

// Close commits the file, returning the first error of any write or of the
// commit itself. Close is idempotent. Every Writer must be closed on every
// path, failed writes included: FS.OpenHandles counts it until then.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	w.open.Add(-1)
	if err := w.fw.Close(); w.err == nil {
		w.err = err
	}
	return w.err
}

// Records returns the number of records written so far.
func (w *Writer) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Bytes returns the logical bytes written so far.
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// StoredBytes returns the stored (compressed) size of what has been
// written: logical bytes times the file's compression ratio.
func (w *Writer) StoredBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return storedSize(w.bytes, w.ratio)
}
