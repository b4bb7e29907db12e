package rapidanalytics

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors returned by Compile, Store.Prepare, Store.Query and
// (*PreparedQuery).Execute. They classify failures so callers (notably the
// HTTP serving layer in internal/server) can map them to a response without
// matching message strings. Test with errors.Is; the concrete cause stays
// on the wrap chain.
var (
	// ErrParse reports that the query text is not syntactically valid
	// SPARQL.
	ErrParse = errors.New("rapidanalytics: parse error")
	// ErrUnsupported reports a syntactically valid query outside the
	// analytical fragment the engines evaluate (star-shaped
	// grouping-aggregation queries).
	ErrUnsupported = errors.New("rapidanalytics: unsupported query")
	// ErrUnknownSystem reports a System value that names no engine.
	ErrUnknownSystem = errors.New("rapidanalytics: unknown system")
	// ErrTimeout reports that the execution context's deadline expired
	// mid-query. errors.Is(err, context.DeadlineExceeded) also holds.
	ErrTimeout = errors.New("rapidanalytics: query timed out")
	// ErrCanceled reports that the execution context was cancelled
	// mid-query. errors.Is(err, context.Canceled) also holds.
	ErrCanceled = errors.New("rapidanalytics: query canceled")
	// ErrStorage reports that the store's DFS backend could not be set up
	// or the storage layouts could not be materialised (e.g. an unwritable
	// DataDir with Options.Storage = StorageDisk).
	ErrStorage = errors.New("rapidanalytics: storage error")
	// ErrInternal reports a defect inside an engine: a map, combine or
	// reduce function panicked. The panic is contained to the query that
	// hit it, and the store keeps serving.
	ErrInternal = errors.New("rapidanalytics: internal error")
)

// wrapContextErr classifies a failure that happened while ctx was dead:
// deadline expiry becomes ErrTimeout, cancellation ErrCanceled. The original
// error remains on the chain.
func wrapContextErr(ctx context.Context, err error) error {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	case errors.Is(ctx.Err(), context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	default:
		return err
	}
}
