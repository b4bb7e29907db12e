// Package share implements serving-time shared scan cycles: a scheduler
// that batches concurrent in-flight queries scanning the same DFS file
// range into one physical pass.
//
// The paper's NTGA/MQO machinery shares scans only *within* one analytical
// query. Under concurrent traffic the same hot vertical-partition and
// triplegroup files are re-read by every in-flight request, so the
// serving layer batches them: the first request to ask for a (file, start,
// n) range opens a short cycle window; every request arriving inside the
// window joins the cycle; when the window closes (or the fan-out cap is
// reached) a single producer pass reads the range once and all consumers
// iterate the shared pass snapshot.
//
// Cancellation safety comes from the materialised-pass design: consumers
// hold no per-consumer producer state, so a consumer abandoning its
// iterator mid-cycle (context cancellation, sibling-task abort) cannot
// corrupt or stall the remaining consumers — they keep iterating the same
// immutable snapshot. This extends the PR 7 stream registry idea (one
// producer, per-consumer iterators) across query boundaries.
package share

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rapidanalytics/internal/dfs"
)

// DefaultWindow is the cycle collection window when Options.Window is 0:
// long enough for bursty concurrent arrivals to coalesce, short enough to
// be invisible next to a MapReduce cycle.
const DefaultWindow = 2 * time.Millisecond

// DefaultMaxFanout seals a cycle early once this many consumers joined,
// bounding the latency a popular range waits on its window.
const DefaultMaxFanout = 64

// Options configures a Scheduler.
type Options struct {
	// Window is how long the first consumer of a range waits for others to
	// join before the pass runs. 0 selects DefaultWindow; negative runs
	// every pass immediately (sharing only exactly-simultaneous arrivals).
	Window time.Duration
	// MaxFanout seals a cycle early at this many consumers. 0 selects
	// DefaultMaxFanout.
	MaxFanout int
	// Prefix restricts sharing to file names with this prefix (the store's
	// base layout files). Scans of other names are declined, so per-query
	// intermediates — unique names that can never be shared — skip the
	// window latency entirely. Empty shares every name.
	Prefix string
}

// Stats is a snapshot of a scheduler's counters.
type Stats struct {
	// Cycles counts physical scan passes executed.
	Cycles int64 `json:"cycles"`
	// SharedCycles counts passes that served two or more consumers.
	SharedCycles int64 `json:"sharedCycles"`
	// Consumers counts scan requests admitted to cycles.
	Consumers int64 `json:"consumers"`
	// RecordsScanned counts records physically read from the DFS.
	RecordsScanned int64 `json:"recordsScanned"`
	// RecordsServed counts records delivered across all consumers; the
	// difference to RecordsScanned×1 is the scan work sharing saved.
	RecordsServed int64 `json:"recordsServed"`
	// Errors counts passes that failed to open or read their file.
	Errors int64 `json:"errors"`
}

// Add returns the counter-wise sum of two snapshots. The store uses it to
// carry shared-scan totals across dataset rematerialisations (each load
// gets a fresh scheduler bound to its fresh DFS).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Cycles:         s.Cycles + o.Cycles,
		SharedCycles:   s.SharedCycles + o.SharedCycles,
		Consumers:      s.Consumers + o.Consumers,
		RecordsScanned: s.RecordsScanned + o.RecordsScanned,
		RecordsServed:  s.RecordsServed + o.RecordsServed,
		Errors:         s.Errors + o.Errors,
	}
}

// Scheduler batches concurrent scans of identical file ranges into shared
// cycles. All methods are safe for concurrent use.
type Scheduler struct {
	fs   *dfs.FS
	opts Options

	mu      sync.Mutex
	pending map[string]*cycle

	cycles, sharedCycles, consumers atomic.Int64
	recordsScanned, recordsServed   atomic.Int64
	errors                          atomic.Int64
}

// New returns a scheduler reading from fs. Zero option fields select the
// package defaults.
func New(fs *dfs.FS, opts Options) *Scheduler {
	if opts.Window == 0 {
		opts.Window = DefaultWindow
	}
	if opts.MaxFanout <= 0 {
		opts.MaxFanout = DefaultMaxFanout
	}
	return &Scheduler{fs: fs, opts: opts, pending: make(map[string]*cycle)}
}

// Scan requests records [start, start+n) of the named file and returns an
// iterator over them, possibly served from a cycle shared with other
// concurrent callers. The iterator's first Next blocks until the cycle's
// pass completes. Returns nil when the scheduler declines the name
// (Options.Prefix mismatch); the caller then scans by itself.
//
// Scan implements the mapred.ScanProvider seam.
func (s *Scheduler) Scan(name string, start, n int) dfs.RecordIterator {
	if s.opts.Prefix != "" && !hasPrefix(name, s.opts.Prefix) {
		return nil
	}
	key := name + "\x00" + strconv.Itoa(start) + "\x00" + strconv.Itoa(n)
	s.mu.Lock()
	cy := s.pending[key]
	if cy == nil {
		cy = &cycle{sched: s, key: key, name: name, start: start, n: n, done: make(chan struct{})}
		s.pending[key] = cy
		if s.opts.Window > 0 {
			cy.timer = time.AfterFunc(s.opts.Window, cy.produce)
		}
	}
	cy.joined++
	seal := cy.joined >= s.opts.MaxFanout || s.opts.Window <= 0
	s.mu.Unlock()
	s.consumers.Add(1)
	if seal {
		cy.produce()
	}
	return &Iterator{cy: cy}
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Cycles:         s.cycles.Load(),
		SharedCycles:   s.sharedCycles.Load(),
		Consumers:      s.consumers.Load(),
		RecordsScanned: s.recordsScanned.Load(),
		RecordsServed:  s.recordsServed.Load(),
		Errors:         s.errors.Load(),
	}
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// cycle is one shared scan pass: consumers join while it is pending, the
// pass seals it and materialises the range once, and close(done) publishes
// recs/err/shared to every consumer (the channel close orders the writes
// before any consumer read).
type cycle struct {
	sched *Scheduler
	key   string
	name  string
	start int
	n     int

	// joined is guarded by sched.mu until the cycle is sealed (removed
	// from pending); afterwards it is read-only.
	joined int
	timer  *time.Timer

	once   sync.Once
	done   chan struct{}
	recs   [][]byte
	err    error
	shared bool
}

// produce seals the cycle and runs its pass exactly once. Safe to call
// from both the window timer and an early-sealing consumer.
func (cy *cycle) produce() {
	cy.once.Do(func() {
		s := cy.sched
		s.mu.Lock()
		// Remove before reading, so arrivals during the pass start a fresh
		// cycle instead of joining a sealed one.
		if s.pending[cy.key] == cy {
			delete(s.pending, cy.key)
		}
		consumers := cy.joined
		s.mu.Unlock()
		if cy.timer != nil {
			cy.timer.Stop()
		}
		cy.shared = consumers > 1
		cy.run()
		s.cycles.Add(1)
		if cy.shared {
			s.sharedCycles.Add(1)
		}
		s.recordsScanned.Add(int64(len(cy.recs)))
		s.recordsServed.Add(int64(len(cy.recs)) * int64(consumers))
		if cy.err != nil {
			s.errors.Add(1)
		}
		close(cy.done)
	})
}

// run reads the cycle's range into a snapshot. dfs record slices are
// immutable and valid indefinitely, so they are shared as-is.
func (cy *cycle) run() {
	f, err := cy.sched.fs.Open(cy.name)
	if err != nil {
		cy.err = err
		return
	}
	defer f.Close()
	cy.recs = make([][]byte, 0, cy.n)
	it := f.Records(cy.start)
	for i := 0; i < cy.n && it.Next(); i++ {
		cy.recs = append(cy.recs, it.Record())
	}
	cy.err = it.Err()
}

// Iterator iterates one consumer's view of a cycle's pass snapshot. It
// implements dfs.RecordIterator; like every record iterator it is not safe
// for concurrent use, but distinct iterators on one cycle are independent.
type Iterator struct {
	cy  *cycle
	idx int
	cur []byte
}

// Next advances to the next record. The first call blocks until the
// cycle's pass completes.
func (it *Iterator) Next() bool {
	<-it.cy.done
	if it.idx >= len(it.cy.recs) {
		return false
	}
	it.cur = it.cy.recs[it.idx]
	it.idx++
	return true
}

// Record returns the current record; the slice is shared and immutable.
func (it *Iterator) Record() []byte { return it.cur }

// Err returns the pass's read error, blocking until the pass completes.
func (it *Iterator) Err() error {
	<-it.cy.done
	return it.cy.err
}

// Shared reports whether the cycle served more than one consumer,
// blocking until the pass completes. The mapred engine uses it to tag
// shared-scan spans.
func (it *Iterator) Shared() bool {
	<-it.cy.done
	return it.cy.shared
}
