package dfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// memFile is one in-memory file's live state.
type memFile struct {
	mu      sync.Mutex
	records [][]byte
	bytes   int64
	ratio   float64
}

// memBackend is the default backend: every record a []byte on the heap,
// the original dfs behavior.
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
	return (*memFileWriter)(f), nil
}

// memFileWriter appends into the live memFile; records become visible to
// snapshots taken by later Opens as they are written (Close is a no-op).
type memFileWriter memFile

func (w *memFileWriter) Append(rec []byte) error {
	w.mu.Lock()
	w.records = append(w.records, rec)
	w.bytes += int64(len(rec))
	w.mu.Unlock()
	return nil
}

func (w *memFileWriter) Close() error { return nil }

func (b *memBackend) Open(name string) (*File, error) {
	b.mu.RLock()
	f, ok := b.files[name]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	f.mu.Lock()
	recs := f.records
	bytes := f.bytes
	f.mu.Unlock()
	return &File{
		name:  name,
		nrec:  len(recs),
		bytes: bytes,
		ratio: f.ratio,
		// The slice header is the snapshot: appends after Open grow the
		// live file's slice without mutating the records captured here.
		src: memSource(recs),
	}, nil
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

// memSource is a snapshot of an in-memory file's records.
type memSource [][]byte

func (s memSource) iterate(start int) RecordIterator {
	if start < 0 {
		start = 0
	}
	return &memIterator{recs: s, pos: start}
}

func (s memSource) close() error { return nil }

// memIterator walks a record slice snapshot.
type memIterator struct {
	recs [][]byte
	pos  int
	cur  []byte
}

func (it *memIterator) Next() bool {
	if it.pos >= len(it.recs) {
		return false
	}
	it.cur = it.recs[it.pos]
	it.pos++
	return true
}

func (it *memIterator) Record() []byte { return it.cur }

func (it *memIterator) Err() error { return nil }
