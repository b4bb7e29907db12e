package dfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rapidanalytics/internal/vec"
)

// Content is what an in-memory file holds: its sealed batches, their
// record count and logical bytes, and the file's compression ratio. It is
// a value over immutable batches, so it outlives the file it was taken
// from (FS.Content) and FS.Attach registers it under any name, any number
// of times, without a copy.
type Content struct {
	batches []*vec.Batch
	records int
	bytes   int64
	ratio   float64
}

// Bytes returns the content's logical size: the sum of its record lengths.
func (c Content) Bytes() int64 { return c.bytes }

// memFile is one in-memory file's live state. It is the FileWriter of the
// mem backend and of the FS's registry.
type memFile struct {
	mu sync.Mutex
	c  Content
}

// AppendBatch implements FileWriter: the batch becomes visible to later
// Opens.
func (f *memFile) AppendBatch(b *vec.Batch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.c.batches = append(f.c.batches, b)
	f.c.records += b.Rows()
	f.c.bytes += b.Bytes()
	return nil
}

// Close implements FileWriter; every batch is committed already.
func (f *memFile) Close() error { return nil }

// content returns the committed batches, capped: later commits grow the
// live file's slice without touching the one captured here.
func (f *memFile) content() Content {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.c
	c.batches = c.batches[:len(c.batches):len(c.batches)]
	return c
}

// open returns a snapshot File of the committed batches.
func (f *memFile) open(name string) *File {
	c := f.content()
	return &File{name: name, nrec: c.records, bytes: c.bytes, ratio: c.ratio, batches: c.batches}
}

// memBackend is a table of in-memory files: the default backend, and the
// FS's registry. The zero value is empty and ready to use.
type memBackend struct {
	mu    sync.RWMutex
	files map[string]*memFile
}

// NewMemBackend returns a fresh in-memory backend.
func NewMemBackend() Backend { return &memBackend{} }

// put names f, replacing any file of that name.
func (b *memBackend) put(name string, f *memFile) {
	b.mu.Lock()
	if b.files == nil {
		b.files = map[string]*memFile{}
	}
	b.files[name] = f
	b.mu.Unlock()
}

// file looks a name up without allocating; nil when absent.
func (b *memBackend) file(name string) *memFile {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.files[name]
}

// len returns the number of files.
func (b *memBackend) len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.files)
}

func (b *memBackend) Create(name string, ratio float64) (FileWriter, error) {
	f := &memFile{c: Content{ratio: ratio}}
	b.put(name, f)
	return f, nil
}

func (b *memBackend) Open(name string) (*File, error) {
	f := b.file(name)
	if f == nil {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	return f.open(name), nil
}

func (b *memBackend) Exists(name string) bool { return b.file(name) != nil }

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
