package blockstore

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	// metaFile records the store's shard count so a directory is never
	// reopened with a different layout (which would strand segments in
	// shards the hash no longer routes to).
	metaFile = "BLOCKSTORE"
	// DefaultShards is the shard count used when Open is given zero.
	DefaultShards = 8
	segSuffix     = ".seg"
)

// entry is one name in the store index. A pending entry has been created
// but its writer has not committed yet, so the name exists with no
// readable content.
type entry struct {
	path      string
	committed bool
}

// Store is a sharded collection of named segments rooted at a directory.
// Names are flat strings (the DFS namespace, slashes included); each name
// is hashed to one of N shard directories and stored as a single segment
// file. All methods are safe for concurrent use.
type Store struct {
	dir    string
	shards int

	mu    sync.RWMutex
	index map[string]*entry
}

// Open opens (creating if needed) a sharded store rooted at dir. shards
// <= 0 selects DefaultShards; reopening an existing store directory with a
// different shard count is an error. Existing segments are scanned into
// the in-memory name index.
func Open(dir string, shards int) (*Store, error) {
	if shards <= 0 {
		shards = DefaultShards
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	metaPath := filepath.Join(dir, metaFile)
	if b, err := os.ReadFile(metaPath); err == nil {
		var existing int
		if _, err := fmt.Sscanf(string(b), "shards=%d", &existing); err != nil {
			return nil, fmt.Errorf("blockstore: unreadable %s: %q", metaFile, b)
		}
		if existing != shards {
			return nil, fmt.Errorf("blockstore: %s has %d shards, asked to open with %d", dir, existing, shards)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("blockstore: %w", err)
	} else if err := os.WriteFile(metaPath, fmt.Appendf(nil, "shards=%d\n", shards), 0o666); err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	s := &Store{dir: dir, shards: shards, index: map[string]*entry{}}
	for i := 0; i < shards; i++ {
		if err := os.MkdirAll(s.shardDir(i), 0o777); err != nil {
			return nil, fmt.Errorf("blockstore: %w", err)
		}
		if err := s.scanShard(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// scanShard indexes the committed segments already present in one shard
// directory, checking each segment's footer. Leftover .tmp
// files from interrupted writers are removed.
func (s *Store) scanShard(i int) error {
	ents, err := os.ReadDir(s.shardDir(i))
	if err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	for _, de := range ents {
		fn := de.Name()
		path := filepath.Join(s.shardDir(i), fn)
		if strings.HasSuffix(fn, ".tmp") {
			os.Remove(path)
			continue
		}
		if !strings.HasSuffix(fn, segSuffix) {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(fn, segSuffix))
		if err != nil {
			return fmt.Errorf("blockstore: unparseable segment file name %q: %w", fn, err)
		}
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("blockstore: %w", err)
		}
		fi, err := f.Stat()
		if err == nil {
			if _, err = parseSegment(f, fi.Size()); err == nil {
				s.index[name] = &entry{path: path, committed: true}
			}
		}
		f.Close()
		if err != nil {
			return fmt.Errorf("blockstore: scanning %s: %w", path, err)
		}
	}
	return nil
}

func (s *Store) shardDir(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%03d", i))
}

// shardOf routes a name to its shard with FNV-1a, the same hash the
// MapReduce layer partitions reduce keys with.
func (s *Store) shardOf(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(s.shards))
}

// pathOf returns the segment file path a name commits to.
func (s *Store) pathOf(name string) string {
	return filepath.Join(s.shardDir(s.shardOf(name)), url.PathEscape(name)+segSuffix)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Create starts writing a (new or truncated) segment under name. The name
// becomes visible (Exists, List) immediately, but its content commits
// atomically at SegmentWriter.Close; until then readers of the name see no
// records, and readers holding the previous segment open keep their
// snapshot.
func (s *Store) Create(name string) (*SegmentWriter, error) {
	final := s.pathOf(name)
	f, err := os.CreateTemp(filepath.Dir(final), filepath.Base(final)+".*.tmp")
	if err != nil {
		return nil, fmt.Errorf("blockstore: create %s: %w", name, err)
	}
	s.mu.Lock()
	if _, ok := s.index[name]; !ok {
		s.index[name] = &entry{path: final}
	}
	s.mu.Unlock()
	return &SegmentWriter{store: s, name: name, final: final, f: f, enc: newSegmentEncoder(f, 0)}, nil
}

// SegmentWriter streams records into a new segment. Not safe for
// concurrent use; errors are sticky and reported by Close.
type SegmentWriter struct {
	store *Store
	name  string
	final string
	f     *os.File
	enc   *segmentEncoder
	meta  []byte
	done  bool
}

// Append adds one record. The slice is consumed immediately; the caller
// may reuse it.
func (w *SegmentWriter) Append(rec []byte) { w.enc.append(rec) }

// SetMeta sets the opaque metadata blob stored in the segment footer.
func (w *SegmentWriter) SetMeta(meta []byte) { w.meta = meta }

// Records returns the number of records appended so far.
func (w *SegmentWriter) Records() int64 { return w.enc.records }

// Bytes returns the sum of record lengths appended so far.
func (w *SegmentWriter) Bytes() int64 { return w.enc.bytes }

// Close finishes the segment (footer, trailer) and atomically renames it
// into place, making the content visible to subsequent Opens. On error the
// temp file is removed and the segment is not committed.
func (w *SegmentWriter) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	err := w.enc.finish(w.meta)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(w.f.Name(), w.final)
	}
	if err != nil {
		os.Remove(w.f.Name())
		return fmt.Errorf("blockstore: writing %s: %w", w.name, err)
	}
	w.store.mu.Lock()
	w.store.index[w.name] = &entry{path: w.final, committed: true}
	w.store.mu.Unlock()
	return nil
}

// Open returns a read handle on the named segment. The handle holds the
// underlying file open, so it (and its iterators) keeps working after the
// name is deleted or truncated by a new Create. A pending name (created,
// not yet committed) opens as an empty segment.
func (s *Store) Open(name string) (*Segment, error) {
	s.mu.RLock()
	e, ok := s.index[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("blockstore: no such segment %q", name)
	}
	if !e.committed {
		return &Segment{name: name}, nil
	}
	f, err := os.Open(e.path)
	if err != nil {
		return nil, fmt.Errorf("blockstore: open %s: %w", name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockstore: open %s: %w", name, err)
	}
	m, err := parseSegment(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockstore: open %s: %w", name, err)
	}
	return &Segment{name: name, f: f, meta: m}, nil
}

// Exists reports whether the name exists (committed or pending).
func (s *Store) Exists(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[name]
	return ok
}

// Delete removes the named segment. Deleting a missing name is a no-op.
// Open handles on the segment keep reading their snapshot.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	e, ok := s.index[name]
	delete(s.index, name)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("blockstore: delete %s: %w", name, err)
	}
	return nil
}

// List returns the names with the given prefix, sorted.
func (s *Store) List(prefix string) []string {
	s.mu.RLock()
	var names []string
	for n := range s.index {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Segment is a read handle on one committed segment snapshot.
type Segment struct {
	name string
	f    *os.File // nil for pending (empty) segments
	meta *segMeta
}

// Name returns the segment's store name.
func (g *Segment) Name() string { return g.name }

// Records returns the segment's record count.
func (g *Segment) Records() int64 {
	if g.meta == nil {
		return 0
	}
	return g.meta.records
}

// Bytes returns the sum of the segment's record lengths.
func (g *Segment) Bytes() int64 {
	if g.meta == nil {
		return 0
	}
	return g.meta.bytes
}

// Meta returns the segment's opaque metadata blob.
func (g *Segment) Meta() []byte {
	if g.meta == nil {
		return nil
	}
	return g.meta.meta
}

// Close releases the underlying file. Iterators created earlier fail on
// their next block read. Unclosed handles are released by the runtime's
// os.File finalizer at GC.
func (g *Segment) Close() error {
	if g.f == nil {
		return nil
	}
	return g.f.Close()
}

// Iter returns an iterator positioned at record index start (0-based).
// Reads go through the handle's file descriptor with ReadAt, so many
// iterators may run concurrently over one Segment.
func (g *Segment) Iter(start int64) *Iterator {
	it := &Iterator{seg: g}
	if g.meta == nil {
		return it
	}
	// Seek the block containing record #start.
	var before int64
	for it.block < len(g.meta.blocks) {
		n := g.meta.blocks[it.block].records
		if before+n > start {
			break
		}
		before += n
		it.block++
	}
	it.skip = start - before
	if start >= g.meta.records {
		it.skip = 0
		it.block = len(g.meta.blocks)
	}
	return it
}

// Iterator streams a segment's records in order. Record slices remain
// valid after the iterator advances and after the segment is closed.
type Iterator struct {
	seg   *Segment
	block int
	skip  int64
	recs  [][]byte
	pos   int
	cur   []byte
	err   error
}

// Next advances to the next record, reporting false at the end of the
// segment or on error.
func (it *Iterator) Next() bool {
	if it.err != nil {
		return false
	}
	for it.pos >= len(it.recs) {
		m := it.seg.meta
		if m == nil || it.block >= len(m.blocks) {
			return false
		}
		bm := m.blocks[it.block]
		payload, err := readBlock(it.seg.f, bm)
		if err == nil {
			it.recs, err = blockRecords(payload, bm.records)
		}
		if err != nil {
			it.err = err
			return false
		}
		it.block++
		it.pos = int(it.skip)
		it.skip = 0
	}
	it.cur = it.recs[it.pos]
	it.pos++
	return true
}

// Record returns the current record.
func (it *Iterator) Record() []byte { return it.cur }

// Err returns the first error the iterator hit, if any.
func (it *Iterator) Err() error { return it.err }
