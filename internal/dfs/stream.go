package dfs

import (
	"fmt"

	"rapidanalytics/internal/vec"
)

// Streamed files: FS.CreateStream opens a file whose sealed batches stay
// in the FS's stream registry instead of being materialised into the
// storage backend. A streamed file is an in-memory file (memFile) that is
// registered with the FS rather than the backend, so Open serves it
// exactly like a backend file — same snapshot semantics, same NumRecords /
// Bytes / StoredBytes metadata, re-iterable from any start, records
// immutable and valid indefinitely — and planners, split carving and
// side-input loading never know the DFS round-trip was elided. When a
// stream's logical bytes cross its spill threshold it overflows: its
// committed batches are appended to a regular backend file under the same
// name (on the mem backend, a pointer move) and later batches go straight
// to that file (the spill machinery as the overflow path), after which
// the file behaves as if it had never streamed.
//
// One deliberate asymmetry with backend files: streamed files do not
// appear in List or TotalStoredBytes. They have no stored footprint —
// that is the point.

// CreateStream creates (or truncates) a streamed file: no backend write
// happens unless the committed logical bytes reach spillBytes (<= 0
// disables the overflow, keeping the stream resident). The returned Writer
// is used exactly like one from Create. Content becomes visible to Open
// batch by batch and the partial tail commits at Close.
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
	f := &memFile{ratio: ratio}
	fs.mu.Lock()
	if fs.streams == nil {
		fs.streams = map[string]*memFile{}
	}
	fs.streams[name] = f
	fs.mu.Unlock()
	sw := &streamWriter{fs: fs, name: name, f: f, spillBytes: spillBytes}
	return fs.countWriter(&Writer{fw: sw, name: name, ratio: ratio}), nil
}

// stream looks a name up in the stream registry.
func (fs *FS) stream(name string) *memFile {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.streams[name]
}

// LiveStreams returns the number of streamed files in the registry: those
// created and neither deleted, truncated by Create, nor overflowed.
func (fs *FS) LiveStreams() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.streams)
}

// dropStream removes a name from the stream registry (Create over the
// name, Delete, or stream overflow). Snapshots already taken stay valid.
func (fs *FS) dropStream(name string) {
	fs.mu.Lock()
	delete(fs.streams, name)
	fs.mu.Unlock()
}

// streamWriter is the FileWriter behind CreateStream. Sealed batches
// commit to the registered file; when its bytes cross spillBytes the
// writer overflows to a backend file and every later batch goes there.
type streamWriter struct {
	fs         *FS
	name       string
	f          *memFile
	spillBytes int64

	batches    int64
	overflowed FileWriter // non-nil once spilled to the backend
}

// AppendBatch implements FileWriter.
func (w *streamWriter) AppendBatch(b *vec.Batch) error {
	if w.overflowed != nil {
		return w.overflowed.AppendBatch(b)
	}
	w.batches++
	if total := w.f.commit(b); w.spillBytes > 0 && total >= w.spillBytes {
		return w.overflow()
	}
	return nil
}

// overflow demotes the stream to a materialised backend file: the
// committed batches go to a fresh backend writer under the same name, and
// the registry entry drops.
func (w *streamWriter) overflow() error {
	bw, err := w.fs.b.Create(w.name, w.f.ratio)
	if err != nil {
		return err
	}
	for _, b := range w.f.open(w.name).batches {
		if err := bw.AppendBatch(b); err != nil {
			bw.Close() // abandon the half-written file; the append error wins
			return err
		}
	}
	w.overflowed = bw
	w.fs.dropStream(w.name)
	return nil
}

// Close implements FileWriter: after an overflow the backend file commits.
func (w *streamWriter) Close() error {
	if w.overflowed != nil {
		return w.overflowed.Close()
	}
	return nil
}

// streamedBatches reports the batches committed to the live stream, or 0
// after an overflow (the output materialised after all).
func (w *streamWriter) streamedBatches() int64 {
	if w.overflowed != nil {
		return 0
	}
	return w.batches
}
