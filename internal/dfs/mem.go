package dfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rapidanalytics/internal/vec"
)

// memFile is one in-memory file's live state: its sealed batches. It is
// the FileWriter of the mem backend and of the FS's registry.
type memFile struct {
	mu      sync.Mutex
	ratio   float64
	batches []*vec.Batch
	records int
	bytes   int64
}

// AppendBatch implements FileWriter: the batch becomes visible to later
// Opens.
func (f *memFile) AppendBatch(b *vec.Batch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, b)
	f.records += b.Rows()
	f.bytes += b.Bytes()
	return nil
}

// Close implements FileWriter; every batch is committed already.
func (f *memFile) Close() error { return nil }

// open returns a snapshot File of the committed batches: later commits
// grow the live file's slice without touching the one captured here.
func (f *memFile) open(name string) *File {
	f.mu.Lock()
	defer f.mu.Unlock()
	return &File{
		name:    name,
		nrec:    f.records,
		bytes:   f.bytes,
		ratio:   f.ratio,
		batches: f.batches[:len(f.batches):len(f.batches)],
	}
}

// memBackend is the default backend: every file its sealed batches on the
// heap.
type memBackend struct {
	mu    sync.RWMutex
	files map[string]*memFile
}

// NewMemBackend returns a fresh in-memory backend.
func NewMemBackend() Backend {
	return &memBackend{files: map[string]*memFile{}}
}

func (b *memBackend) Create(name string, ratio float64) (FileWriter, error) {
	f := &memFile{ratio: ratio}
	b.mu.Lock()
	b.files[name] = f
	b.mu.Unlock()
	return f, nil
}

func (b *memBackend) Open(name string) (*File, error) {
	b.mu.RLock()
	f, ok := b.files[name]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	return f.open(name), nil
}

func (b *memBackend) Exists(name string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.files[name]
	return ok
}

func (b *memBackend) Delete(name string) error {
	b.mu.Lock()
	delete(b.files, name)
	b.mu.Unlock()
	return nil
}

func (b *memBackend) List(prefix string) []string {
	b.mu.RLock()
	var names []string
	for n := range b.files {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	b.mu.RUnlock()
	sort.Strings(names)
	return names
}

// TotalStoredBytes snapshots the matching files under b.mu and sizes them
// after releasing it, so no path holds two locks of this package.
func (b *memBackend) TotalStoredBytes(prefix string) int64 {
	var files []*memFile
	b.mu.RLock()
	for n, f := range b.files {
		if strings.HasPrefix(n, prefix) {
			files = append(files, f)
		}
	}
	b.mu.RUnlock()
	var total int64
	for _, f := range files {
		f.mu.Lock()
		total += storedSize(f.bytes, f.ratio)
		f.mu.Unlock()
	}
	return total
}

// batchIterator walks the rows of a batch snapshot as records. Each record
// is a sub-slice of its batch's immutable arena.
type batchIterator struct {
	batches []*vec.Batch
	row     int // next row of batches[0]
	cur     []byte
}

// newBatchIterator positions an iterator at record start of batches.
func newBatchIterator(batches []*vec.Batch, start int) *batchIterator {
	for len(batches) > 0 && start >= batches[0].Rows() {
		start -= batches[0].Rows()
		batches = batches[1:]
	}
	return &batchIterator{batches: batches, row: start}
}

func (it *batchIterator) Next() bool {
	for len(it.batches) > 0 {
		if b := it.batches[0]; it.row < b.Rows() {
			it.cur = b.Record(it.row)
			it.row++
			return true
		}
		it.batches, it.row = it.batches[1:], 0
	}
	it.cur = nil
	return false
}

func (it *batchIterator) Record() []byte { return it.cur }

func (it *batchIterator) Err() error { return nil }
