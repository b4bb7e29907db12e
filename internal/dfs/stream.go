package dfs

import "fmt"

// The FS's in-memory registry: FS.CreateStream opens a file whose sealed
// batches stay in a table of the FS, an in-memory backend of its own,
// instead of the storage backend. Every job output lives there, on either
// backend, and the storage backend holds only what outlives a query or
// must leave the heap (the layouts, the spill runs). A registered file is
// an in-memory file (memFile), so Open serves it exactly like a backend
// file — same snapshot semantics, same NumRecords / Bytes / StoredBytes
// metadata, re-iterable from any start, records immutable and valid
// indefinitely — and planners, split carving and side-input loading never
// know where it lives.
//
// Content is what a registered file holds, as a value: FS.Content takes
// it out and FS.Attach registers it under a new name, so what a cache
// keeps of an output is its batches, never a name of the FS.
//
// One deliberate asymmetry with backend files: registered files do not
// appear in List. They have no stored footprint.

// CreateStream creates (or truncates) a file in the FS's in-memory
// registry. The returned Writer is used exactly like one from Create.
// Content becomes visible to Open batch by batch and the partial tail
// commits at Close.
func (fs *FS) CreateStream(name string, ratio float64) (*Writer, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("%w: %g for %q", ErrCompressionRatio, ratio, name)
	}
	f := &memFile{c: Content{ratio: ratio}}
	if err := fs.register(name, f); err != nil {
		return nil, err
	}
	return fs.countWriter(&Writer{fw: f, name: name, ratio: ratio}), nil
}

// Attach registers c under name, replacing any file of that name, as
// CreateStream would after writing it.
func (fs *FS) Attach(name string, c Content) error {
	return fs.register(name, &memFile{c: c})
}

// register puts f in the registry under name. A stale backend file under
// the same name would resurface if the registered file is later deleted;
// it is cleared first, so the name has one owner and a failed delete
// leaves the name as it was.
func (fs *FS) register(name string, f *memFile) error {
	if err := fs.b.Delete(name); err != nil {
		return err
	}
	fs.streams.put(name, f)
	return nil
}

// Content returns what the registered file name holds: its committed
// batches. It fails for a name the registry does not hold.
func (fs *FS) Content(name string) (Content, error) {
	f := fs.streams.file(name)
	if f == nil {
		return Content{}, fmt.Errorf("dfs: no registered file %q", name)
	}
	return f.content(), nil
}

// LiveStreams returns the number of files in the registry: those created
// by CreateStream or Attach and neither deleted nor truncated by Create.
func (fs *FS) LiveStreams() int { return fs.streams.len() }
