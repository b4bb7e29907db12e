// Package obs is the execution observability layer: a zero-dependency
// hierarchical span tracer threaded through query execution via
// context.Context. A span tree mirrors the engine's execution hierarchy —
// query → planner → MapReduce cycle → map/shuffle-sort/reduce phase → NTGA
// (or relational) operator → task/partition — and every span carries a wall
// time plus record and byte counters.
//
// Tracing is strictly opt-in. When no span is bound to the context, every
// entry point returns a nil *Span, and all *Span methods are nil-safe
// no-ops, so the MapReduce hot path stays allocation-free with tracing
// disabled (instrumentation sites that would format a span name must guard
// on the parent being non-nil). Counter updates are atomic and child
// attachment is mutex-protected, so concurrent siblings — parallel map
// tasks, parallel reduce partitions — may record into one tree freely.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Kind classifies a span's level in the execution hierarchy.
type Kind string

// The span kinds, from root to leaf.
const (
	// KindQuery is the root span of one query execution.
	KindQuery Kind = "query"
	// KindPlanner covers plan construction (overlap detection, composite
	// rewriting, join ordering) inside an engine.
	KindPlanner Kind = "planner"
	// KindCycle covers one MapReduce cycle (one mapred.Job run).
	KindCycle Kind = "cycle"
	// KindPhase covers one execution phase of a cycle: map, shuffle-sort or
	// reduce.
	KindPhase Kind = "phase"
	// KindOperator covers the logical operator a phase executes (e.g.
	// TG_AlphaJoin, TG_AgJ.map, group-agg).
	KindOperator Kind = "operator"
	// KindTask covers one map task or one reduce/shuffle partition.
	KindTask Kind = "task"
	// KindIO covers DFS materialisation of a cycle's output.
	KindIO Kind = "io"
)

// Span is one node of the execution trace. Create roots with New and
// children with StartChild; a nil *Span is a valid no-op receiver for every
// method, which is what keeps disabled tracing free.
type Span struct {
	kind  Kind
	name  string
	start time.Time

	wallNs  atomic.Int64
	records atomic.Int64
	bytes   atomic.Int64

	mu       sync.Mutex
	children []*Span
	failure  string
}

// New starts a root span.
func New(kind Kind, name string) *Span {
	return &Span{kind: kind, name: name, start: time.Now()}
}

// StartChild starts and attaches a child span. On a nil receiver it returns
// nil without allocating; callers that compute span names (fmt.Sprintf)
// must therefore guard on the parent being non-nil to keep the disabled
// path allocation-free.
func (s *Span) StartChild(kind Kind, name string) *Span {
	if s == nil {
		return nil
	}
	c := New(kind, name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End records the span's wall time as the elapsed time since it started.
// The first of End/EndWith wins; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.wallNs.CompareAndSwap(0, int64(time.Since(s.start)))
}

// EndWith records an explicitly measured wall time, for spans that must
// agree exactly with an independently measured duration (the MapReduce
// phase walls in Metrics). The first of End/EndWith wins.
func (s *Span) EndWith(d time.Duration) {
	if s == nil {
		return
	}
	s.wallNs.CompareAndSwap(0, int64(d))
}

// AddRecords adds to the span's record counter.
func (s *Span) AddRecords(n int64) {
	if s == nil {
		return
	}
	s.records.Add(n)
}

// AddBytes adds to the span's byte counter.
func (s *Span) AddBytes(n int64) {
	if s == nil {
		return
	}
	s.bytes.Add(n)
}

// Fail records why the span's work failed — for a recovered panic, its
// value and stack — as the snapshot's Error. The first failure wins.
func (s *Span) Fail(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.failure == "" {
		s.failure = msg
	}
	s.mu.Unlock()
}

// ctxKey carries the current parent span in a context.
type ctxKey struct{}

// enableKey marks a context as requesting trace capture (set by the public
// API before a root span exists).
type enableKey struct{}

// NewContext binds a span to the context as the parent for StartChild.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span bound to the context, or nil when tracing is
// off. The nil return allocates nothing.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartChild starts a child of the context's span (nil, for free, when the
// context carries none).
func StartChild(ctx context.Context, kind Kind, name string) *Span {
	return FromContext(ctx).StartChild(kind, name)
}

// Enable marks the context as requesting trace capture. The execution entry
// point (Store.run) consults Enabled and creates the root span.
func Enable(ctx context.Context) context.Context {
	return context.WithValue(ctx, enableKey{}, true)
}

// Enabled reports whether Enable was called on the context.
func Enabled(ctx context.Context) bool {
	on, _ := ctx.Value(enableKey{}).(bool)
	return on
}

// Snapshot is an immutable copy of a span tree, safe to retain, render and
// serialise after the execution that produced it has finished.
type Snapshot struct {
	// Kind is the span's level in the execution hierarchy.
	Kind Kind `json:"kind"`
	// Name identifies the span within its level (job name, phase name,
	// operator name).
	Name string `json:"name"`
	// WallNs is the span's wall time in nanoseconds.
	WallNs int64 `json:"wallNs"`
	// Records is the span's record counter (semantics per kind: consumed for
	// phases and tasks, produced for operators and io spans).
	Records int64 `json:"records,omitempty"`
	// Bytes is the span's byte counter (same orientation as Records).
	Bytes int64 `json:"bytes,omitempty"`
	// Error is the failure recorded with Span.Fail, empty when none.
	Error string `json:"error,omitempty"`
	// Children are the nested spans, in attachment order.
	Children []*Snapshot `json:"children,omitempty"`
}

// Snapshot deep-copies the span tree. Spans still being written to by other
// goroutines snapshot their counters atomically, but the tree structure
// should be quiescent (the job finished) when it is taken.
func (s *Span) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	sn := &Snapshot{
		Kind:    s.kind,
		Name:    s.name,
		WallNs:  s.wallNs.Load(),
		Records: s.records.Load(),
		Bytes:   s.bytes.Load(),
	}
	s.mu.Lock()
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	sn.Error = s.failure
	s.mu.Unlock()
	for _, c := range kids {
		sn.Children = append(sn.Children, c.Snapshot())
	}
	return sn
}

// Wall returns the span's wall time as a duration.
func (sn *Snapshot) Wall() time.Duration { return time.Duration(sn.WallNs) }

// Walk visits the snapshot and every descendant in depth-first order.
func (sn *Snapshot) Walk(fn func(*Snapshot)) {
	if sn == nil {
		return
	}
	fn(sn)
	for _, c := range sn.Children {
		c.Walk(fn)
	}
}

// Find returns the first descendant (depth-first, including sn itself) with
// the given kind and name, or nil.
func (sn *Snapshot) Find(kind Kind, name string) *Snapshot {
	var out *Snapshot
	sn.Walk(func(n *Snapshot) {
		if out == nil && n.Kind == kind && n.Name == name {
			out = n
		}
	})
	return out
}

// JSON serialises the snapshot, indented, for -trace-out files and debug
// endpoints.
func (sn *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(sn, "", "  ")
}

// Tree renders the snapshot as an indented tree with aligned wall/record/
// byte columns:
//
//	query rapidanalytics        wall=12.41ms
//	├─ cycle composite-join0    wall=4.20ms  records=840  bytes=31200
//	│  └─ phase map             wall=2.10ms  records=600  bytes=45000
//	└─ ...
func (sn *Snapshot) Tree() string {
	if sn == nil {
		return ""
	}
	type line struct {
		label string
		node  *Snapshot
	}
	var lines []line
	var rec func(n *Snapshot, prefix string, childPrefix string)
	rec = func(n *Snapshot, prefix, childPrefix string) {
		lines = append(lines, line{label: prefix + string(n.Kind) + " " + n.Name, node: n})
		for i, c := range n.Children {
			if i == len(n.Children)-1 {
				rec(c, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				rec(c, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	rec(sn, "", "")
	// Pad by rune count, not bytes: the box-drawing prefixes are multibyte
	// but occupy one column each.
	width := 0
	for _, l := range lines {
		if n := utf8.RuneCountInString(l.label); n > width {
			width = n
		}
	}
	var b strings.Builder
	for _, l := range lines {
		pad := width - utf8.RuneCountInString(l.label)
		fmt.Fprintf(&b, "%s%s  wall=%s", l.label, strings.Repeat(" ", pad), fmtWall(l.node.WallNs))
		if l.node.Records != 0 {
			fmt.Fprintf(&b, "  records=%d", l.node.Records)
		}
		if l.node.Bytes != 0 {
			fmt.Fprintf(&b, "  bytes=%d", l.node.Bytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fmtWall renders a nanosecond wall time as fixed-point milliseconds, the
// unit every other trace surface uses.
func fmtWall(ns int64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/float64(time.Millisecond))
}
