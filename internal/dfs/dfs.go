// Package dfs implements the simulated HDFS the MapReduce engine reads job
// inputs from and materialises job outputs to: named files of byte records
// with exact byte accounting and per-file compression ratios (modelling
// columnar formats such as ORC, whose aggressive compression reduces stored
// bytes — and therefore map-task counts — while adding decompression work).
//
// Storage is pluggable through the Backend interface. Two backends exist:
// the default in-memory backend (every record held as a []byte, the
// original behavior) and a disk backend over internal/blockstore (sharded
// append-only segment files). Both present identical semantics:
//
//   - Open returns a snapshot: the records committed at Open time. A
//     snapshot stays readable after the name is deleted or truncated by a
//     new Create.
//   - A file's content is committed by Writer.Close. Writers are
//     append-only; Create truncates.
//   - Record slices handed out by iterators are immutable and remain
//     valid indefinitely; callers must not modify them.
//
// Streamed files (CreateStream, see stream.go) keep a job's output in an
// in-memory registry instead of the backend and present the same
// semantics.
package dfs

import (
	"errors"
	"fmt"
	"sync"
)

// ErrCompressionRatio reports a compression ratio outside (0, 1] passed to
// FS.Create. Test with errors.Is.
var ErrCompressionRatio = errors.New("dfs: compression ratio out of range (0, 1]")

// RecordIterator streams a file's records in write order. Not safe for
// concurrent use; create one iterator per consumer.
type RecordIterator interface {
	// Next advances to the next record, reporting false at end-of-file or
	// on error.
	Next() bool
	// Record returns the current record. The slice is shared and immutable:
	// it stays valid after Next but must not be modified.
	Record() []byte
	// Err returns the first read error, or nil after a clean end-of-file.
	Err() error
}

// Backend is the storage engine behind an FS. Implementations must be safe
// for concurrent use and provide the snapshot semantics documented on the
// package.
type Backend interface {
	// Create starts writing a new (or truncated) file; the content commits
	// at FileWriter.Close. The ratio is validated by FS.Create before it
	// reaches the backend.
	Create(name string, ratio float64) (FileWriter, error)
	// Open returns a snapshot read handle, or an error including the name
	// if the file does not exist.
	Open(name string) (*File, error)
	// Exists reports whether the named file exists.
	Exists(name string) bool
	// Delete removes the named file; deleting a missing file is a no-op.
	Delete(name string) error
	// List returns the names of all files with the given prefix, sorted.
	List(prefix string) []string
	// TotalStoredBytes sums the stored (compressed) size of all files with
	// the prefix.
	TotalStoredBytes(prefix string) int64
}

// FileWriter is a backend's append-only write handle. Implementations are
// not required to be concurrency-safe; the Writer wrapper serialises.
type FileWriter interface {
	// Append adds one record, taking ownership of the slice.
	Append(rec []byte) error
	// Close commits the file. Errors from earlier Appends may surface here.
	Close() error
}

// recordSource is a backend's snapshot read payload inside a File.
type recordSource interface {
	iterate(start int) RecordIterator
	close() error
}

// File is a snapshot read handle on a named file.
type File struct {
	name  string
	nrec  int
	bytes int64
	ratio float64
	src   recordSource
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// NumRecords returns the snapshot's record count.
func (f *File) NumRecords() int { return f.nrec }

// Bytes returns the uncompressed logical size: the sum of record lengths.
func (f *File) Bytes() int64 { return f.bytes }

// CompressionRatio returns stored-size / logical-size, in (0, 1].
func (f *File) CompressionRatio() float64 { return f.ratio }

// StoredBytes returns the on-disk size after compression.
func (f *File) StoredBytes() int64 { return storedSize(f.bytes, f.ratio) }

// Records returns an iterator positioned at record index start (0-based; 0
// streams the whole file). Many iterators may be drawn from one File.
func (f *File) Records(start int) RecordIterator { return f.src.iterate(start) }

// AllRecords materialises the whole snapshot. Prefer Records for
// record-at-a-time consumers; this is for side inputs and small files.
func (f *File) AllRecords() ([][]byte, error) {
	recs := make([][]byte, 0, f.nrec)
	it := f.Records(0)
	for it.Next() {
		recs = append(recs, it.Record())
	}
	return recs, it.Err()
}

// Close releases backend resources (the segment file descriptor on the
// disk backend; a no-op in memory). Closing is optional — unclosed handles
// are reclaimed at GC — but tidy for long-lived processes.
func (f *File) Close() error { return f.src.close() }

// storedSize is the one compression-accounting formula both backends and
// the Writer share.
func storedSize(bytes int64, ratio float64) int64 {
	return int64(float64(bytes) * ratio)
}

// FS is a flat file system over a pluggable storage backend. All methods
// are safe for concurrent use.
type FS struct {
	b Backend

	// mu guards streams, the registry of live streamed files (CreateStream)
	// that Open and Exists consult before the backend.
	mu      sync.Mutex
	streams map[string]*streamFile
}

// New returns an FS over a fresh in-memory backend.
func New() *FS { return &FS{b: NewMemBackend()} }

// NewWithBackend returns an FS over the given backend.
func NewWithBackend(b Backend) *FS { return &FS{b: b} }

// NewDisk returns an FS over a disk backend rooted at dir with the given
// shard count (<= 0 selects the blockstore default).
func NewDisk(dir string, shards int) (*FS, error) {
	b, err := NewDiskBackend(dir, shards)
	if err != nil {
		return nil, err
	}
	return &FS{b: b}, nil
}

// Backend returns the FS's storage backend.
func (fs *FS) Backend() Backend { return fs.b }

// Create creates (or truncates) a file with the given compression ratio
// and returns a writer for it. The ratio must be in (0, 1] — pass 1 for
// uncompressed data — otherwise Create fails with ErrCompressionRatio.
// Creating over a streamed name drops the stream (truncate semantics);
// snapshots already taken stay readable.
func (fs *FS) Create(name string, ratio float64) (*Writer, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("%w: %g for %q", ErrCompressionRatio, ratio, name)
	}
	fw, err := fs.b.Create(name, ratio)
	if err != nil {
		return nil, err
	}
	fs.dropStream(name)
	return &Writer{fw: fw, name: name, ratio: ratio}, nil
}

// Open returns a snapshot of the named file. Streamed files are served
// from the stream registry with identical snapshot semantics and
// metadata.
func (fs *FS) Open(name string) (*File, error) {
	if sf := fs.stream(name); sf != nil {
		return fs.openStream(name, sf), nil
	}
	return fs.b.Open(name)
}

// Exists reports whether the named file exists (streamed or stored).
func (fs *FS) Exists(name string) bool {
	if fs.stream(name) != nil {
		return true
	}
	return fs.b.Exists(name)
}

// Delete removes the named file — the stream registry entry, the backend
// file, or both. Deleting a missing file is a no-op, matching
// `hadoop fs -rm -f`. Snapshots stay readable. The returned error is the
// backend's: on the disk backend a failed segment delete leaks storage,
// which callers (e.g. the engine's spill cleanup) must surface.
func (fs *FS) Delete(name string) error {
	fs.dropStream(name)
	return fs.b.Delete(name)
}

// List returns the names of all stored files with the given prefix,
// sorted. Streamed files are excluded: they have no storage footprint.
func (fs *FS) List(prefix string) []string { return fs.b.List(prefix) }

// TotalStoredBytes sums the stored size of all backend files with the
// prefix. Streamed files contribute nothing: their materialisation was
// elided.
func (fs *FS) TotalStoredBytes(prefix string) int64 { return fs.b.TotalStoredBytes(prefix) }
