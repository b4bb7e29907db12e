// Package closecheck_fx exercises the resource-leak analyzer: engine
// resources (dfs files and writers, blockstore segments)
// must reach Close on every path or visibly change owner.
package closecheck_fx

import "rapidanalytics/internal/dfs"

// LeakEarlyReturn forgets the file on the bail path: caught.
func LeakEarlyReturn(fs *dfs.FS, name string, bail bool) (int, error) {
	f, err := fs.Open(name) // want "not closed on every path"
	if err != nil {
		return 0, err
	}
	if bail {
		return 0, nil
	}
	n := f.NumRecords()
	if err := f.Close(); err != nil {
		return 0, err
	}
	return n, nil
}

// CleanDefer is the engine idiom and a true negative: the error-return
// path owes nothing (f is nil there) and the defer covers the rest.
func CleanDefer(fs *dfs.FS, name string) (int, error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.NumRecords(), nil
}

// TransferReturn hands the open file straight to the caller: true negative.
func TransferReturn(fs *dfs.FS, name string) (*dfs.File, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// holder keeps a file across calls; storing into it transfers ownership.
type holder struct {
	f *dfs.File
}

// Attach is a true negative: the field store moves the close obligation to
// the holder's lifecycle.
func (h *holder) Attach(fs *dfs.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	h.f = f
	return nil
}

// Consume takes ownership of f and closes it on every path; callers
// passing a file here are discharged.
func Consume(f *dfs.File) error {
	return f.Close()
}

// ConsumeVia closes f transitively through Consume — the fixpoint must
// propagate Consume's summary for ConsumeVia to earn its own.
func ConsumeVia(f *dfs.File) error {
	return Consume(f)
}

// Borrow only reads f; the close obligation stays with the caller.
func Borrow(f *dfs.File) int {
	return f.NumRecords()
}

// registry outlives any caller; files sunk here are owned by the package.
var registry []*dfs.File

// Sink stores f into package state, taking ownership.
func Sink(f *dfs.File) {
	registry = append(registry, f)
}

// Wrapped boxes an engine file behind a type defined outside the resource
// packages; only OpenWrapped's owns summary tells callers the box holds a
// live resource.
type Wrapped struct {
	F *dfs.File
}

// Close releases the boxed file.
func (w *Wrapped) Close() error {
	return w.F.Close()
}

// OpenWrapped acquires a file and returns it boxed.
func OpenWrapped(fs *dfs.FS, name string) (*Wrapped, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &Wrapped{F: f}, nil
}

// ConsumedByHelper is a true negative only through Consume's summary: it
// closes its parameter on every path.
func ConsumedByHelper(fs *dfs.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	return Consume(f)
}

// ConsumedTransitively leans on the fixpoint: ConsumeVia closes only via
// Consume, two hops from here.
func ConsumedTransitively(fs *dfs.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	return ConsumeVia(f)
}

// BorrowedNotClosed is the summary's catch: Borrow only reads the file, so
// the obligation never left this function.
func BorrowedNotClosed(fs *dfs.FS, name string) (int, error) {
	f, err := fs.Open(name) // want "not closed on every path"
	if err != nil {
		return 0, err
	}
	return Borrow(f), nil
}

// SunkIntoHelper is a true negative: Sink stores the file into package
// state, taking ownership.
func SunkIntoHelper(fs *dfs.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	Sink(f)
	return nil
}

// WrappedLeak leaks a resource whose static type (*Wrapped) is not from a
// resource package at all — only OpenWrapped's owns summary reveals the
// live file inside the box.
func WrappedLeak(fs *dfs.FS, name string) (int, error) {
	w, err := OpenWrapped(fs, name) // want "not closed on every path"
	if err != nil {
		return 0, err
	}
	return w.F.NumRecords(), nil
}

// WrappedClean closes the box: true negative.
func WrappedClean(fs *dfs.FS, name string) (int, error) {
	w, err := OpenWrapped(fs, name)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	return w.F.NumRecords(), nil
}

// overflowWriter has the shape of dfs's stream writer: on overflow it
// replays its buffered records into a backend file and keeps writing there.
type overflowWriter struct {
	fs       *dfs.FS
	buffered [][]byte
	backend  dfs.FileWriter
}

// overflowLeaky is the leak closecheck found in the stream writer's
// overflow: a replay error returns without closing the half-written file.
func (w *overflowWriter) overflowLeaky(name string) error {
	bw, err := w.fs.Backend().Create(name, 1.0) // want "not closed on every path"
	if err != nil {
		return err
	}
	for _, rec := range w.buffered {
		if err := bw.Append(rec); err != nil {
			return err
		}
	}
	w.backend = bw
	return nil
}

// overflowFixed is the fix: close the abandoned file in the error branch,
// then hand the writer to the struct.
func (w *overflowWriter) overflowFixed(name string) error {
	bw, err := w.fs.Backend().Create(name, 1.0)
	if err != nil {
		return err
	}
	for _, rec := range w.buffered {
		if err := bw.Append(rec); err != nil {
			bw.Close()
			return err
		}
	}
	w.backend = bw
	return nil
}

// continueLeaky skips non-empty files with a continue that leaves the
// iteration's snapshot open: the shape of a leak in the engines' finish
// path.
func continueLeaky(fs *dfs.FS, names []string) int {
	empty := 0
	for _, name := range names {
		f, err := fs.Open(name) // want "not closed on every path"
		if err != nil || f.NumRecords() > 0 {
			continue
		}
		f.Close()
		empty++
	}
	return empty
}

// continueClosed closes the snapshot before continuing: true negative.
func continueClosed(fs *dfs.FS, names []string) int {
	empty := 0
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			continue
		}
		if f.NumRecords() > 0 {
			f.Close()
			continue
		}
		f.Close()
		empty++
	}
	return empty
}

// Discarded drops the writer into the blank identifier: nothing can ever
// close it (and an unclosed dfs.Writer never commits its file).
func Discarded(fs *dfs.FS, name string) {
	_, _ = fs.Create(name, 1.0) // want "assigned to _"
}

// WriterClean closes the writer on both paths: true negative.
func WriterClean(fs *dfs.FS, name string, recs [][]byte, limit int64) error {
	w, err := fs.Create(name, 1.0)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		w.Write(rec)
		if w.Bytes() > limit {
			w.Close()
			return nil
		}
	}
	return w.Close()
}

// Suppressed documents a deliberate leak; the justified directive keeps
// the analyzer quiet.
func Suppressed(fs *dfs.FS, name string) int {
	f, _ := fs.Open(name) //lint:ignore closecheck handle is cached process-wide and reclaimed at shutdown
	if f == nil {
		return 0
	}
	return f.NumRecords()
}

// SuppressedBadly has a directive with no justification: the directive is
// itself reported, and the leak still escapes.
func SuppressedBadly(fs *dfs.FS, name string, bail bool) error {
	f, err := fs.Open(name) //lint:ignore closecheck // want "no justification" "not closed on every path"
	if err != nil {
		return err
	}
	if bail {
		return nil
	}
	return f.Close()
}

// MisspelledSuppression names an analyzer that does not exist: the
// directive suppresses nothing and is itself reported.
func MisspelledSuppression(fs *dfs.FS, name string) int {
	f, _ := fs.Open(name) //lint:ignore closechek handle is cached process-wide // want "closechek, which is no analyzer" "not closed on every path"
	if f == nil {
		return 0
	}
	return f.NumRecords()
}

// UnknownVerb carries a directive whose verb nothing reads, such as the
// alias of a retired analyzer: it suppresses nothing and is itself
// reported.
func UnknownVerb(fs *dfs.FS, name string) error {
	//lint:nocancel bounded // want "lint:nocancel is no directive"
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	return f.Close()
}
