// Package closecheck_fx exercises the resource-leak analyzer: engine
// resources (dfs files and writers, blockstore segments)
// must reach Close on every path or visibly change owner.
package closecheck_fx

import (
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/lint/closecheck/testdata/src/closecheck_fx/helper"
)

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

// ConsumedByHelper is a true negative only interprocedurally: Consume's
// serialized summary says it closes its parameter on every path.
func ConsumedByHelper(fs *dfs.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	return helper.Consume(f)
}

// ConsumedTransitively leans on the fixpoint: ConsumeVia closes only via
// Consume, two hops from here.
func ConsumedTransitively(fs *dfs.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	return helper.ConsumeVia(f)
}

// BorrowedNotClosed is the interprocedural catch: Borrow's summary says it
// only reads the file, so the obligation never left this function.
func BorrowedNotClosed(fs *dfs.FS, name string) (int, error) {
	f, err := fs.Open(name) // want "not closed on every path"
	if err != nil {
		return 0, err
	}
	return helper.Borrow(f), nil
}

// SunkIntoHelper is a true negative: Sink's summary says it stores the
// file into package state, taking ownership.
func SunkIntoHelper(fs *dfs.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	helper.Sink(f)
	return nil
}

// WrappedLeak leaks a resource whose static type (*helper.Wrapped) is not
// from a resource package at all — only OpenWrapped's OwnsFact summary
// reveals the live file inside the box.
func WrappedLeak(fs *dfs.FS, name string) (int, error) {
	w, err := helper.OpenWrapped(fs, name) // want "not closed on every path"
	if err != nil {
		return 0, err
	}
	return w.F.NumRecords(), nil
}

// WrappedClean closes the box: true negative.
func WrappedClean(fs *dfs.FS, name string) (int, error) {
	w, err := helper.OpenWrapped(fs, name)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	return w.F.NumRecords(), nil
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
