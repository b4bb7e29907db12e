package rapidanalytics

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rapidanalytics/internal/obs"
)

func TestStatsTrace(t *testing.T) {
	s := apiStore()
	_, stats, err := s.Query(RAPIDAnalytics, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Jobs) != stats.MRCycles {
		t.Errorf("Jobs = %d, cycles = %d", len(stats.Jobs), stats.MRCycles)
	}
	tr := stats.Trace()
	if !strings.Contains(tr, "cycle") || !strings.Contains(tr, "map-only") {
		t.Errorf("Trace = %q", tr)
	}
	lines := strings.Split(strings.TrimSpace(tr), "\n")
	if len(lines) != stats.MRCycles+1 {
		t.Errorf("trace lines = %d, want %d", len(lines), stats.MRCycles+1)
	}
}

// TestStatsTraceAlignmentLongNames is the golden test for the column
// alignment bug: cycle labels longer than the old fixed 28-char column
// (typical of MQO plans with "(map-only)" suffixes) must widen the whole
// table instead of shifting their own row's numeric columns.
func TestStatsTraceAlignmentLongNames(t *testing.T) {
	stats := &Stats{
		Jobs: []JobStats{
			{Name: "comp-star0", SimulatedSeconds: 12, InputRecords: 100,
				ShuffleBytes: 2048, OutputBytes: 512, MapTasks: 2, ReduceTasks: 1,
				MapWall: 1500 * time.Microsecond, ShuffleSortWall: 250 * time.Microsecond,
				ReduceWall: 750 * time.Microsecond},
			{Name: "gp2-distinct-over-composite-materialization", MapOnly: true,
				SimulatedSeconds: 3, InputRecords: 40, OutputBytes: 64, MapTasks: 1,
				MapWall: 300 * time.Microsecond},
		},
	}
	got := stats.Trace()
	want := "" +
		"cycle                                                     sim-s    records    shuffle B     output B   maps   reds   map-ms  sort-ms   red-ms\n" +
		"comp-star0                                                   12        100         2048          512      2      1     1.50     0.25     0.75\n" +
		"gp2-distinct-over-composite-materialization (map-only)        3         40            0           64      1      0     0.30     0.00     0.00\n"
	if got != want {
		t.Fatalf("Trace golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Structural alignment: every numeric column starts at the same offset
	// in every row.
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	simCol := strings.Index(lines[0], "sim-s")
	for _, l := range lines[1:] {
		if len(l) < simCol {
			t.Fatalf("row shorter than header: %q", l)
		}
		// The name field must end (with padding) before the sim column.
		if strings.TrimSpace(l[:simCol]) == "" {
			t.Fatalf("empty name field: %q", l)
		}
	}
}

// TestQueryTracingCapturesSpanTree runs the API query under WithTracing and
// checks the acceptance criterion: the span tree's per-cycle phase walls
// match the Stats phase walls exactly, and the tree covers every cycle.
func TestQueryTracingCapturesSpanTree(t *testing.T) {
	s := apiStore()
	for _, sys := range Systems() {
		res, stats, err := s.QueryContext(WithTracing(context.Background()), sys, apiQuery)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Len() == 0 {
			t.Fatalf("%s: no rows", sys)
		}
		if stats.Span == nil {
			t.Fatalf("%s: no span captured under WithTracing", sys)
		}
		if stats.Span.Kind != obs.KindQuery || stats.Span.Name != string(sys) {
			t.Errorf("%s: root span = %s %s", sys, stats.Span.Kind, stats.Span.Name)
		}
		var cycles []*TraceSpan
		stats.Span.Walk(func(n *TraceSpan) {
			if n.Kind == obs.KindCycle {
				cycles = append(cycles, n)
			}
		})
		if len(cycles) != stats.MRCycles {
			t.Fatalf("%s: %d cycle spans, want %d\n%s", sys, len(cycles), stats.MRCycles, stats.Span.Tree())
		}
		// Per-cycle phase span walls must equal the JobStats walls exactly:
		// both sides publish the same measured duration.
		var mapSum, sortSum, reduceSum time.Duration
		for i, j := range stats.Jobs {
			cyc := cycles[i]
			if cyc.Name != j.Name {
				t.Fatalf("%s: cycle %d span %q, stats %q", sys, i, cyc.Name, j.Name)
			}
			checkPhase := func(phase string, want time.Duration) {
				ph := cyc.Find(obs.KindPhase, phase)
				if want == 0 && ph == nil {
					return
				}
				if ph == nil {
					t.Fatalf("%s %s: no %s phase span", sys, j.Name, phase)
				}
				if time.Duration(ph.WallNs) != want {
					t.Errorf("%s %s: %s span wall %v, stats wall %v", sys, j.Name, phase, time.Duration(ph.WallNs), want)
				}
			}
			checkPhase("map", j.MapWall)
			checkPhase("shuffle-sort", j.ShuffleSortWall)
			checkPhase("reduce", j.ReduceWall)
			mapSum += j.MapWall
			sortSum += j.ShuffleSortWall
			reduceSum += j.ReduceWall
		}
		if mapSum != stats.MapWall || sortSum != stats.ShuffleSortWall || reduceSum != stats.ReduceWall {
			t.Errorf("%s: per-cycle wall sums %v/%v/%v != stats walls %v/%v/%v",
				sys, mapSum, sortSum, reduceSum, stats.MapWall, stats.ShuffleSortWall, stats.ReduceWall)
		}
		// The root wall covers the whole workflow.
		if time.Duration(stats.Span.WallNs) < mapSum+sortSum+reduceSum {
			t.Errorf("%s: root wall %v < phase sum %v", sys, time.Duration(stats.Span.WallNs), mapSum+sortSum+reduceSum)
		}
		if tree := stats.TraceTree(); !strings.Contains(tree, "wall=") {
			t.Errorf("%s: TraceTree = %q", sys, tree)
		}
		raw, err := stats.TraceJSON()
		if err != nil {
			t.Fatalf("%s: TraceJSON: %v", sys, err)
		}
		var back TraceSpan
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: TraceJSON round trip: %v", sys, err)
		}
	}
}

// TestQueryWithoutTracingHasNoSpan pins the default: no WithTracing, no
// span tree.
func TestQueryWithoutTracingHasNoSpan(t *testing.T) {
	s := apiStore()
	_, stats, err := s.Query(RAPIDAnalytics, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Span != nil {
		t.Fatalf("Span captured without WithTracing:\n%s", stats.Span.Tree())
	}
	if stats.TraceTree() != "" {
		t.Errorf("TraceTree on untraced stats = %q", stats.TraceTree())
	}
	if raw, err := stats.TraceJSON(); err != nil || raw != nil {
		t.Errorf("TraceJSON on untraced stats = %q, %v", raw, err)
	}
}

// TestRAPIDAnalyticsTraceHasPlannerAndOperators checks the RAPIDAnalytics
// span tree shape the docs describe: composite-rewrite planner span, NTGA
// operator spans, and the final map-only join.
func TestRAPIDAnalyticsTraceHasPlannerAndOperators(t *testing.T) {
	s := apiStore()
	_, stats, err := s.QueryContext(WithTracing(context.Background()), RAPIDAnalytics, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	sn := stats.Span
	for _, want := range []struct {
		kind obs.Kind
		name string
	}{
		{obs.KindPlanner, "composite-rewrite"},
		{obs.KindPlanner, "join-order"},
		{obs.KindOperator, "TG_OptGrpFilter"},
		{obs.KindOperator, "TG_AlphaJoin"},
		{obs.KindOperator, "TG_AgJ.map"},
		{obs.KindOperator, "TG_AgJ.reduce"},
		{obs.KindOperator, "final-join"},
		{obs.KindIO, "stream-write"},
	} {
		if sn.Find(want.kind, want.name) == nil {
			t.Errorf("missing %s span %q in:\n%s", want.kind, want.name, sn.Tree())
		}
	}
}
