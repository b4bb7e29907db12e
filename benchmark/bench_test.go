package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"

	ra "rapidanalytics"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/rdf"
)

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	if a, b := passOrder(7, 3, 58), passOrder(7, 3, 58); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed and pass gave different orders:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(passOrder(7, 3, 58), passOrder(7, 4, 58)) {
		t.Error("the order must be reshuffled every pass")
	}
	if reflect.DeepEqual(passOrder(7, 3, 58), passOrder(8, 3, 58)) {
		t.Error("the order must depend on the seed")
	}
	seen := map[int]bool{}
	for _, i := range passOrder(1, 0, 58) {
		seen[i] = true
	}
	if len(seen) != 58 {
		t.Errorf("a pass must visit every cell once, visited %d of 58", len(seen))
	}

	if a, b := schedule(), schedule(); !reflect.DeepEqual(a, b) {
		t.Fatal("the schedule changed between two calls")
	}
	if n := len(schedule()); n != scheduleRequests {
		t.Errorf("schedule has %d requests, want %d", n, scheduleRequests)
	}
	// The miss sweep asks for every pair the schedule asks for, once, in the
	// order the schedule first does.
	pairs := map[[2]string]int{}
	for _, r := range schedule() {
		pairs[[2]string{r.TemplateID, r.System}]++
	}
	sweep := distinctRequests(schedule())
	if len(sweep) != len(pairs) || sweep[0] != schedule()[0] {
		t.Errorf("the sweep has %d requests for %d distinct pairs, the first %v", len(sweep), len(pairs), sweep[0])
	}
	for _, r := range sweep {
		if pairs[[2]string{r.TemplateID, r.System}] == 0 {
			t.Errorf("%s on %s is in the sweep twice, or not in the schedule", r.TemplateID, r.System)
		}
		pairs[[2]string{r.TemplateID, r.System}] = 0
	}

	// The graph is a pure function of the seed, and a set.
	a, b := generate(2, 40), generate(2, 40)
	if !reflect.DeepEqual(a.Triples, b.Triples) {
		t.Fatal("same seed gave different graphs")
	}
	if reflect.DeepEqual(a.Triples, generate(3, 40).Triples) {
		t.Error("the graph must depend on the seed")
	}
	seenTriple := map[rdf.Triple]bool{}
	for _, tr := range a.Triples {
		if seenTriple[tr] {
			t.Fatalf("statement %v is in the graph twice", tr)
		}
		seenTriple[tr] = true
	}
}

// TestPassCountIsFixedByTheFlag pins the run length: a later change that
// moves these numbers changes how many samples stand behind every median.
func TestPassCountIsFixedByTheFlag(t *testing.T) {
	want := map[string]int{"ntga-mem": 5, "hive-mem": 5, "disk-spill": 6, "serve-zipf": 4}
	for i := range workloads {
		w := &workloads[i]
		if got := w.timedPasses(14); got != want[w.name] {
			t.Errorf("%s makes %d passes at --seconds 14, want %d", w.name, got, want[w.name])
		}
		if got := w.timedPasses(1); got != minTimedPasses {
			t.Errorf("%s makes %d passes at --seconds 1, want the minimum %d", w.name, got, minTimedPasses)
		}
	}
}

// node builds a hand-made program span.
func node(kind obs.Kind, name string, wallNs, records, bytes int64, kids ...*ra.TraceSpan) *ra.TraceSpan {
	return &ra.TraceSpan{Kind: kind, Name: name, WallNs: wallNs, Records: records, Bytes: bytes, Children: kids}
}

func TestFoldSequentialAndParallelLevels(t *testing.T) {
	tree := node(obs.KindQuery, "q", 1000, 0, 0,
		node(obs.KindPlanner, "join-order", 50, 0, 0),
		node(obs.KindCycle, "c0", 800, 0, 0,
			node(obs.KindPhase, "map", 400, 70, 0,
				node(obs.KindOperator, "TG_OptGrpFilter", 380, 0, 0,
					// Two parallel tasks: together longer than the operator.
					node(obs.KindTask, "task-0", 300, 0, 0,
						node(obs.KindIO, "spill-write", 5, 3, 64)),
					node(obs.KindTask, "task-1", 350, 0, 0))),
			node(obs.KindPhase, "shuffle-sort", 100, 60, 0,
				node(obs.KindTask, "part-0", 90, 0, 0,
					node(obs.KindIO, "spill-read", 7, 3, 64)),
				node(obs.KindTask, "part-1", 95, 0, 0)),
			node(obs.KindPhase, "reduce", 200, 50, 0,
				node(obs.KindOperator, "mystery-op", 190, 0, 0)),
			node(obs.KindIO, "dfs-write", 40, 10, 512)),
		// A cycle whose children report more than the cycle itself (clock
		// granularity): self time must clamp at 0.
		node(obs.KindCycle, "c1", 10, 0, 0,
			node(obs.KindPhase, "map", 12, 5, 0)))
	f := newLayerFold()
	f.add(tree)

	check := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}
	check("planner", f.plannerNs, 50)
	check("cycle self (sequential, clamped)", f.cycleSelfNs, 800-400-100-200-40+0)
	check("phase self (map and reduce only)", f.phaseSelfNs, (400-380)+(200-190))
	check("operator is not reduced by its parallel tasks", f.opNs["TG_OptGrpFilter"], 380)
	check("map phase wall", f.mapPhaseNs, 400+12)
	check("map task wall", f.mapTaskNs, 300+350)
	check("map records", f.phaseRecords["map"], 75)
	check("shuffle records", f.phaseRecords["shuffle-sort"], 60)
	check("spill runs", f.ioCount["spill-write"], 1)
	check("spill bytes", f.ioBytes["spill-write"], 64)
	check("spill read", f.ioNs["spill-read"], 7)
	check("dfs write bytes", f.ioBytes["dfs-write"], 512)

	m := newMetricSet(perLayerNames())
	foldLayer(m, f, 2)
	if got, want := m.get("op.other.s"), 190e-9/2; math.Abs(got-want) > 1e-15 {
		t.Errorf("an unlisted operator label must fold into op.other.s: got %g, want %g", got, want)
	}
	if got := m.get("mapred.spill_runs"); got != 0.5 {
		t.Errorf("spill runs per pass = %g, want 0.5", got)
	}
	for name, v := range m.values {
		if v < 0 {
			t.Errorf("%s is negative: %g", name, v)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, err := percentile(xs, 90); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90", p, err)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it and must be refused")
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if p, err := percentile(big, 99); err != nil || p != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990", p, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3, err := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10, 20, 30]
	if q1, q2, q3, _ := quartiles([]float64{30, 10, 20}); q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles of three = %g %g %g, want 10 20 30", q1, q2, q3)
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("one value has no quartiles")
	}
}

func TestHashRowsIgnoresRowOrderOnly(t *testing.T) {
	a := [][]string{{"x", "1"}, {"y", "2"}, {"y", "2"}}
	b := [][]string{{"y", "2"}, {"x", "1"}, {"y", "2"}}
	if hashRows(a) != hashRows(b) {
		t.Error("the same rows in another order must hash equal")
	}
	for name, other := range map[string][][]string{
		"a row fewer":       {{"x", "1"}, {"y", "2"}},
		"a changed cell":    {{"x", "1"}, {"y", "2"}, {"y", "3"}},
		"cells moved over":  {{"x1", ""}, {"y", "2"}, {"y", "2"}},
		"columns exchanged": {{"1", "x"}, {"y", "2"}, {"y", "2"}},
	} {
		if hashRows(a) == hashRows(other) {
			t.Errorf("%s must change the hash", name)
		}
	}
}

// TestSpecNames checks BENCHMARK.json against the run: every listed name is
// well-formed, used once and produced, and nothing unlisted is produced.
func TestSpecNames(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !wellFormed.MatchString(n) {
			t.Errorf("name %q is not well-formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, lists := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, s := range lists {
			name(s.Name)
			if !unit.MatchString(s.Unit) {
				t.Errorf("%s: unit %q is not well-formed", s.Name, s.Unit)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: better is %q", s.Name, s.Better)
			}
		}
	}
	if err := newMetricSet(endToEndNames()).checkAgainst(spec.EndToEnd); err != nil {
		t.Error("end_to_end:", err)
	}
	if err := newMetricSet(perLayerNames()).checkAgainst(spec.PerLayer); err != nil {
		t.Error("per_layer:", err)
	}
	setup := false
	for _, s := range spec.EndToEnd {
		if s.Bound < 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside 0–0.25", s.Name, s.Bound)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in %s and %q in the program", i, w.Name, specFile, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

func TestMetricSetRejectsDrift(t *testing.T) {
	m := newMetricSet([]string{"a", "b"})
	if err := m.checkAgainst([]metricSpec{{Name: "a"}, {Name: "b"}}); err != nil {
		t.Errorf("equal lists: %v", err)
	}
	if err := m.checkAgainst([]metricSpec{{Name: "a"}}); err == nil {
		t.Error("an unlisted metric must be reported")
	}
	if err := m.checkAgainst([]metricSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}}); err == nil {
		t.Error("a listed metric the run does not produce must be reported")
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an unknown name must panic")
		}
	}()
	m.set("typo", 1)
}

// TestTinyWorkloadEndToEnd drives the harness itself — set-up, oracle,
// traced warm-up, timed passes, metric assembly — on a graph small enough
// for a unit test: every engine must agree with the reference on every
// pass, and the exact counts must repeat from pass to pass.
func TestTinyWorkloadEndToEnd(t *testing.T) {
	spec := &workloadSpec{
		name: "tiny", systems: ra.Systems(), queryIDs: []string{"G1", "MG1", "MG13"}, shrink: 20,
	}
	in, samples, err := setUpRepeatedly(spec, 3, t.TempDir(), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != setupRepeats {
		t.Errorf("%d set-up samples, want %d", len(samples), setupRepeats)
	}
	if got, want := len(in.cells), 3*len(ra.Systems()); got != want {
		t.Fatalf("%d cells, want %d", got, want)
	}
	if err := in.computeOracle(nil); err != nil {
		t.Fatal(err)
	}
	var tl tally
	warmUp(in, &tl)
	if tl.failed != 0 || len(tl.invalid) != 0 {
		t.Fatalf("warm-up: %d of %d failed, invalid: %v", tl.failed, tl.attempted, tl.invalid)
	}

	fold := newLayerFold()
	var untraced, traced passSet
	for pass := 0; pass < 4; pass++ {
		order := passOrder(3, pass, len(in.cells))
		untraced = append(untraced, in.batchPass(order, nil, nil, false))
		traced = append(traced, in.batchPass(order, fold, nil, false))
	}
	if a, f := append(untraced, traced...).operations(); f != 0 || a != 8*len(in.cells) {
		t.Fatalf("%d of %d operations failed", f, a)
	}
	for _, p := range untraced[1:] {
		first := untraced[0]
		if p.cycles != first.cycles || p.shuffle != first.shuffle ||
			p.materialized != first.materialized || p.simSeconds != first.simSeconds {
			t.Errorf("exact counts differ between passes: %+v vs %+v", p, first)
		}
	}

	m := newMetricSet(perLayerNames())
	untraced.engineLayer(m)
	foldLayer(m, fold, len(traced))
	for _, key := range engineKeys {
		wall := m.get("engine." + key + ".wall_s")
		parts := m.get("mapred."+key+".map_s") + m.get("mapred."+key+".shuffle_sort_s") +
			m.get("mapred."+key+".reduce_s") + m.get("engine."+key+".other_s")
		if wall <= 0 || math.Abs(wall-parts) > 0.01*wall {
			t.Errorf("%s: phases + other = %g, wall = %g", key, parts, wall)
		}
	}
	if m.get("op.TG_AgJ.map.s") <= 0 || m.get("op.partial-agg.s") <= 0 {
		t.Error("traced passes must attribute time to NTGA and Hive operators")
	}
	if m.get("mapred.spill_runs") != 0 {
		t.Error("a memory workload must not spill")
	}

	// The wrong oracle must be noticed.
	in.want["G1"]++
	if p := in.batchPass(passOrder(3, 0, len(in.cells)), nil, nil, false); p.failed != len(ra.Systems()) {
		t.Errorf("a wrong expected hash failed %d cells, want %d", p.failed, len(ra.Systems()))
	}
}
