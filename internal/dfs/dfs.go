// Package dfs implements the simulated HDFS the MapReduce engine reads job
// inputs from and writes job outputs to: named files of byte records with
// exact byte accounting and per-file compression ratios (modelling
// columnar formats such as ORC, whose aggressive compression reduces stored
// bytes — and therefore map-task counts — while adding decompression work).
//
// Records travel as sealed vec.Batch arenas: a Writer copies the records
// written to it into batches, and every write reaches storage as one
// sealed batch (FileWriter.AppendBatch). Storage is pluggable through the
// Backend interface. Two backends exist: the default in-memory backend,
// whose files hold the sealed batches themselves, and a disk backend over
// internal/blockstore (sharded append-only segment files). Both present
// identical semantics:
//
//   - Open returns a snapshot: the records committed at Open time. A
//     snapshot stays readable after the name is deleted or truncated by a
//     new Create.
//   - A file's content is committed by Writer.Close; an in-memory file
//     also shows each batch as it is sealed. Writers are append-only;
//     Create truncates.
//   - Record slices handed out by iterators are immutable and remain
//     valid indefinitely; callers must not modify them.
//
// Beside the backend, the FS keeps an in-memory registry (CreateStream,
// Attach; see stream.go) with the same semantics. Job outputs live there
// on either backend; the backend holds the layouts and the spill runs.
package dfs

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"rapidanalytics/internal/blockstore"
	"rapidanalytics/internal/vec"
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
}

// FileWriter is a backend's append-only write handle. Implementations are
// not required to be concurrency-safe; the Writer wrapper serialises.
type FileWriter interface {
	// AppendBatch adds a sealed batch's rows, in order. The batch is
	// immutable, so the writer may keep it.
	AppendBatch(b *vec.Batch) error
	// Close commits the file. Errors from earlier appends may surface here.
	Close() error
}

// File is a snapshot read handle on a named file: an in-memory file's
// sealed batches, or a disk file's open segment.
type File struct {
	name    string
	nrec    int
	bytes   int64
	ratio   float64
	batches []*vec.Batch
	seg     *blockstore.Segment

	// open is the handle count of the FS that handed the File out (nil for
	// a File straight from a Backend); closed makes the first Close the
	// one that counts it down.
	open   *atomic.Int64
	closed atomic.Bool
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
func (f *File) Records(start int) RecordIterator {
	start = max(start, 0)
	if f.seg != nil {
		return f.seg.Iter(int64(start))
	}
	return newBatchIterator(f.batches, start)
}

// AllRecords materialises the whole snapshot. Prefer Records, which
// copies nothing; only tests and the benchmark's probes call this.
func (f *File) AllRecords() ([][]byte, error) {
	recs := make([][]byte, 0, f.nrec)
	it := f.Records(0)
	for it.Next() {
		recs = append(recs, it.Record())
	}
	return recs, it.Err()
}

// Close releases backend resources (the segment file descriptor on the
// disk backend; a no-op in memory). Every File an FS hands out must be
// closed on every path: FS.OpenHandles counts it until then, and the
// workflow tests require that count to be zero after every execution.
// Close may be called more than once; the handle is counted down once.
func (f *File) Close() error {
	if !f.closed.Swap(true) && f.open != nil {
		f.open.Add(-1)
	}
	if f.seg != nil {
		return f.seg.Close()
	}
	return nil
}

// storedSize is the one compression-accounting formula both backends and
// the Writer share.
func storedSize(bytes int64, ratio float64) int64 {
	return int64(float64(bytes) * ratio)
}

// FS is a flat file system over a pluggable storage backend. All methods
// are safe for concurrent use.
type FS struct {
	b Backend

	// open counts the Files and Writers handed out and not yet closed.
	open atomic.Int64

	// streams is the in-memory registry (CreateStream, Attach) that Open
	// and Exists consult before the backend.
	streams memBackend
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

// Resolve is the one place a DFS backend is chosen: it returns an FS of
// the given kind, "mem" or "disk". An empty kind reads the RAPID_STORAGE
// environment variable, and memory is the default when that is unset too.
// A disk FS is rooted at dir; an empty dir gets a fresh directory under
// the RAPID_DATA_DIR environment variable, or under the OS temp dir when
// that is unset. Any other kind is an error, so a misspelt backend cannot
// quietly run in memory.
func Resolve(kind, dir string) (*FS, error) {
	if kind == "" {
		kind = os.Getenv("RAPID_STORAGE")
	}
	switch kind {
	case "", "mem":
		return New(), nil
	case "disk":
		if dir == "" {
			d, err := os.MkdirTemp(os.Getenv("RAPID_DATA_DIR"), "rapidfs-")
			if err != nil {
				return nil, err
			}
			dir = d
		}
		return NewDisk(dir, 0)
	default:
		return nil, fmt.Errorf("unknown storage backend %q (want %q or %q)", kind, "mem", "disk")
	}
}

// Dir returns the directory a disk-backed FS is rooted at, or "" in
// memory.
func (fs *FS) Dir() string {
	if d, ok := fs.b.(*diskBackend); ok {
		return d.store.Dir()
	}
	return ""
}

// Create creates (or truncates) a file with the given compression ratio
// and returns a writer for it. The ratio must be in (0, 1] — pass 1 for
// uncompressed data — otherwise Create fails with ErrCompressionRatio.
// Creating over a registered name drops it from the registry (truncate
// semantics); snapshots already taken stay readable.
func (fs *FS) Create(name string, ratio float64) (*Writer, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("%w: %g for %q", ErrCompressionRatio, ratio, name)
	}
	fw, err := fs.b.Create(name, ratio)
	if err != nil {
		return nil, err
	}
	fs.streams.Delete(name)
	return fs.countWriter(&Writer{fw: fw, name: name, ratio: ratio}), nil
}

// Open returns a snapshot of the named file. Registered files are served
// from the registry with identical snapshot semantics and metadata.
func (fs *FS) Open(name string) (*File, error) {
	if sf := fs.streams.file(name); sf != nil {
		return fs.countFile(sf.open(name)), nil
	}
	f, err := fs.b.Open(name)
	if err != nil {
		return nil, err
	}
	return fs.countFile(f), nil
}

// OpenHandles returns the number of Files (Open) and Writers (Create,
// CreateStream) the FS has handed out that are not yet closed. A query
// that returns, successfully or not, leaves it where it found it.
func (fs *FS) OpenHandles() int { return int(fs.open.Load()) }

// countFile counts f as open until its first Close.
func (fs *FS) countFile(f *File) *File {
	fs.open.Add(1)
	f.open = &fs.open
	return f
}

// countWriter counts w as open until its first Close.
func (fs *FS) countWriter(w *Writer) *Writer {
	fs.open.Add(1)
	w.open = &fs.open
	return w
}

// Exists reports whether the named file exists (registered or stored).
func (fs *FS) Exists(name string) bool {
	return fs.streams.Exists(name) || fs.b.Exists(name)
}

// Delete removes the named file — the registry entry, the backend file,
// or both. Deleting a missing file is a no-op, matching
// `hadoop fs -rm -f`. Snapshots stay readable. The returned error is the
// backend's: on the disk backend a failed segment delete leaks storage,
// which callers (e.g. the engine's spill cleanup) must surface.
func (fs *FS) Delete(name string) error {
	fs.streams.Delete(name)
	return fs.b.Delete(name)
}

// List returns the names of all backend files with the given prefix,
// sorted. Registered files are excluded: they have no storage footprint.
func (fs *FS) List(prefix string) []string { return fs.b.List(prefix) }
