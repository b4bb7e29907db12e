package dfs

import (
	"sync/atomic"

	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/vec"
)

// Writer appends records to a file and commits them at Close. Records
// written one at a time are copied into the Writer's open batch, and the
// backend receives every record as part of a sealed batch. A Writer
// belongs to the one goroutine that writes it and has no lock, so none is
// held while the registry's file or the backend takes its own. Backend
// errors are sticky and surface at Close.
type Writer struct {
	fw    FileWriter
	bu    vec.Builder
	name  string
	ratio float64
	span  *obs.Span
	open  *atomic.Int64 // the FS's handle count, decremented by the first Close

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

// Write appends one record. The record is copied, so the caller may reuse
// the slice.
func (w *Writer) Write(record []byte) {
	if w.err == nil && !w.closed {
		if b := w.bu.Append(record); b != nil {
			w.append(b)
		}
		w.records++
		w.bytes += int64(len(record))
	}
	w.span.AddRecords(1)
	w.span.AddBytes(int64(len(record)))
}

// WriteBatch appends every row of a sealed batch, after the records
// written before it; a nil batch appends nothing. The backend takes the
// batch as it is. Volume and span accounting match row-at-a-time writes
// exactly. The writer takes the batch over.
func (w *Writer) WriteBatch(b *vec.Batch) {
	if b == nil {
		return
	}
	rows, bytes := int64(b.Rows()), b.Bytes()
	if w.err == nil && !w.closed {
		w.append(w.bu.Flush())
		w.append(b)
		w.records += rows
		w.bytes += bytes
	}
	w.span.AddRecords(rows)
	w.span.AddBytes(bytes)
}

// append hands a sealed batch (nil: none) to the backend unless an
// earlier append failed.
func (w *Writer) append(b *vec.Batch) {
	if b != nil && w.err == nil {
		w.err = w.fw.AppendBatch(b)
	}
}

// Close commits the open batch and then the file, returning the first
// error of any write or of the commit itself. Close is idempotent. Every
// Writer must be closed on every path, failed writes included:
// FS.OpenHandles counts it until then.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.open.Add(-1)
	w.append(w.bu.Flush())
	if err := w.fw.Close(); w.err == nil {
		w.err = err
	}
	return w.err
}

// Records returns the number of records written so far.
func (w *Writer) Records() int64 {
	return w.records
}

// Bytes returns the logical bytes written so far.
func (w *Writer) Bytes() int64 {
	return w.bytes
}

// StoredBytes returns the stored (compressed) size of what has been
// written: logical bytes times the file's compression ratio.
func (w *Writer) StoredBytes() int64 {
	return storedSize(w.bytes, w.ratio)
}
