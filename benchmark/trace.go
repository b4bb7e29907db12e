package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	ra "rapidanalytics"
	"rapidanalytics/internal/obs"
)

// span is one of the benchmark's own spans, recorded around its calls into
// the program: setup → gen | ntriples | ntriples_parse | load | prepare |
// oracle | warmup, and pass → cell → execute | rows. Spans stay in memory
// and are written out once, when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// StartNs and EndNs count from the start of the process.
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
	// Program is the program's own span tree for an execute span of the
	// first traced pass.
	Program *ra.TraceSpan `json:"program,omitempty"`
}

// tracer records spans. A nil *tracer records nothing, so untraced passes
// share the code of traced ones.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

func (t *tracer) attach(id int, program *ra.TraceSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Program = program
	t.mu.Unlock()
}

// duration is the wall time of the first span with the given name.
func (t *tracer) duration(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			return time.Duration(s.EndNs - s.StartNs)
		}
	}
	return 0
}

// write stores the spans and the environment stamp as one JSON document.
func (t *tracer) write(path string, env *envStamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Env   *envStamp `json:"env"`
		Spans []span    `json:"spans"`
	}{env, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerFold accumulates the program's span trees (Stats.Span) of traced
// executions into per-layer totals.
//
// obs.Snapshot carries a wall time but no start or end, so the rule is:
// self = max(0, wall − Σ children wall) on the levels whose children run
// one after the other (query → planner/cycle, cycle → phase/io, phase →
// operator). An operator's task children run in parallel, so the operator
// span is the layer's time and Σ task wall only feeds the efficiency
// ratio.
type layerFold struct {
	plannerNs    int64
	cycleSelfNs  int64
	phaseSelfNs  int64
	opNs         map[string]int64 // operator label → wall
	phaseRecords map[string]int64 // phase name → records consumed
	mapPhaseNs   int64
	mapTaskNs    int64
	ioNs         map[string]int64 // io span name → wall
	ioBytes      map[string]int64
	ioCount      map[string]int64
}

func newLayerFold() *layerFold {
	return &layerFold{
		opNs: map[string]int64{}, phaseRecords: map[string]int64{},
		ioNs: map[string]int64{}, ioBytes: map[string]int64{}, ioCount: map[string]int64{},
	}
}

// sequentialSelf is wall − Σ children wall, never negative.
func sequentialSelf(sn *ra.TraceSpan) int64 {
	self := sn.WallNs
	for _, c := range sn.Children {
		self -= c.WallNs
	}
	return max(0, self)
}

func (f *layerFold) add(root *ra.TraceSpan) {
	root.Walk(func(sn *ra.TraceSpan) {
		switch sn.Kind {
		case obs.KindPlanner:
			f.plannerNs += sn.WallNs
		case obs.KindCycle:
			f.cycleSelfNs += sequentialSelf(sn)
		case obs.KindPhase:
			f.phaseRecords[sn.Name] += sn.Records
			f.phaseSelfNs += phaseSelf(sn)
			if sn.Name == "map" {
				f.mapPhaseNs += sn.WallNs
				sn.Walk(func(t *ra.TraceSpan) {
					if t.Kind == obs.KindTask {
						f.mapTaskNs += t.WallNs
					}
				})
			}
		case obs.KindOperator:
			f.opNs[sn.Name] += sn.WallNs
		case obs.KindIO:
			f.ioNs[sn.Name] += sn.WallNs
			f.ioBytes[sn.Name] += sn.Bytes
			f.ioCount[sn.Name]++
		}
	})
}

// phaseSelf is a map or reduce phase's time outside its operator: the
// framework's own work around the operator. The shuffle-sort phase has no
// operator (its children are parallel partition tasks) and is reported
// whole as shuffle_sort_s, so it contributes nothing here.
func phaseSelf(sn *ra.TraceSpan) int64 {
	for _, c := range sn.Children {
		if c.Kind == obs.KindOperator {
			return sequentialSelf(sn)
		}
	}
	return 0
}
