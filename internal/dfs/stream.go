package dfs

import "fmt"

// The FS's in-memory registry: FS.CreateStream opens a file whose sealed
// batches stay in a registry of the FS instead of the storage backend.
// Every job output lives there, on either backend, and the backend holds
// only what outlives a query or must leave the heap (the layouts, the
// spill runs). A registered file is an in-memory file (memFile), so Open
// serves it exactly like a backend file — same snapshot semantics, same
// NumRecords / Bytes / StoredBytes metadata, re-iterable from any start,
// records immutable and valid indefinitely — and planners, split carving
// and side-input loading never know where it lives.
//
// One deliberate asymmetry with backend files: registered files do not
// appear in List or TotalStoredBytes. They have no stored footprint.

// CreateStream creates (or truncates) a file in the FS's in-memory
// registry. The returned Writer is used exactly like one from Create.
// Content becomes visible to Open batch by batch and the partial tail
// commits at Close.
func (fs *FS) CreateStream(name string, ratio float64) (*Writer, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("%w: %g for %q", ErrCompressionRatio, ratio, name)
	}
	// A stale backend file under the same name would resurface if the
	// registered file is later deleted; clear it so the name has one
	// owner. It goes first, so a failed delete leaves the name as it was.
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
	return fs.countWriter(&Writer{fw: f, name: name, ratio: ratio}), nil
}

// stream looks a name up in the registry.
func (fs *FS) stream(name string) *memFile {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.streams[name]
}

// LiveStreams returns the number of files in the registry: those created
// by CreateStream and neither deleted nor truncated by Create.
func (fs *FS) LiveStreams() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.streams)
}

// dropStream removes a name from the registry (Create over the name, or
// Delete). Snapshots already taken stay valid.
func (fs *FS) dropStream(name string) {
	fs.mu.Lock()
	delete(fs.streams, name)
	fs.mu.Unlock()
}
