package mapred

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rapidanalytics/internal/obs"
)

// tracedCluster binds a root span to a test cluster and returns both.
func tracedCluster(t *testing.T) (*Cluster, *obs.Span) {
	t.Helper()
	c := newTestCluster()
	root := obs.New(obs.KindQuery, "test")
	return c.WithContext(obs.NewContext(context.Background(), root)), root
}

// TestRunEmitsSpanTree checks the cycle → phase → operator → task hierarchy
// a traced reduce job produces, and that the phase span walls equal the
// job's Metrics phase walls exactly.
func TestRunEmitsSpanTree(t *testing.T) {
	c, root := tracedCluster(t)
	writeLines(c, "in", 1, "a b c a", "b a", "c c c")
	job := wordCountJob("in", "out", false)
	job.MapOperator = "wc-map"
	job.ReduceOperator = "wc-reduce"
	m, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	sn := root.Snapshot()

	cyc := sn.Find(obs.KindCycle, "wordcount")
	if cyc == nil {
		t.Fatalf("no cycle span in:\n%s", sn.Tree())
	}
	if cyc.Records != m.OutputRecords || cyc.Bytes != m.OutputBytes {
		t.Errorf("cycle records/bytes = %d/%d, want %d/%d",
			cyc.Records, cyc.Bytes, m.OutputRecords, m.OutputBytes)
	}

	wantPhaseWalls := map[string]int64{
		"map":          m.MapWallNs,
		"shuffle-sort": m.ShuffleSortWallNs,
		"reduce":       m.ReduceWallNs,
	}
	for name, wall := range wantPhaseWalls {
		ph := cyc.Find(obs.KindPhase, name)
		if ph == nil {
			t.Fatalf("no %s phase span in:\n%s", name, sn.Tree())
		}
		if ph.WallNs != wall {
			t.Errorf("%s phase span wall = %d ns, Metrics wall = %d ns", name, ph.WallNs, wall)
		}
	}

	mp := cyc.Find(obs.KindPhase, "map")
	if mp.Records != m.MapInputRecords || mp.Bytes != m.MapInputBytes {
		t.Errorf("map phase records/bytes = %d/%d, want %d/%d",
			mp.Records, mp.Bytes, m.MapInputRecords, m.MapInputBytes)
	}
	op := mp.Find(obs.KindOperator, "wc-map")
	if op == nil {
		t.Fatalf("no wc-map operator span in:\n%s", sn.Tree())
	}
	if op.Records != m.MapEmitRecords {
		t.Errorf("map operator records = %d, want %d", op.Records, m.MapEmitRecords)
	}
	var taskRecs, taskBytes int64
	for _, ch := range op.Children {
		if ch.Kind != obs.KindTask || !strings.HasPrefix(ch.Name, "task-") {
			t.Errorf("unexpected map operator child %s %s", ch.Kind, ch.Name)
		}
		taskRecs += ch.Records
		taskBytes += ch.Bytes
	}
	if taskRecs != m.MapInputRecords || taskBytes != m.MapInputBytes {
		t.Errorf("map task span sums = %d/%d, want %d/%d",
			taskRecs, taskBytes, m.MapInputRecords, m.MapInputBytes)
	}

	sh := cyc.Find(obs.KindPhase, "shuffle-sort")
	var shuffleRecs int64
	for _, ch := range sh.Children {
		shuffleRecs += ch.Records
	}
	if shuffleRecs != m.MapOutputRecords {
		t.Errorf("shuffle partition span sums = %d, want %d", shuffleRecs, m.MapOutputRecords)
	}

	rop := cyc.Find(obs.KindOperator, "wc-reduce")
	if rop == nil {
		t.Fatalf("no wc-reduce operator span in:\n%s", sn.Tree())
	}
	if rop.Records != m.ReduceGroups {
		t.Errorf("reduce operator records = %d, want %d", rop.Records, m.ReduceGroups)
	}
	var partOut int64
	for _, ch := range rop.Children {
		partOut += ch.Records
	}
	if partOut != m.OutputRecords {
		t.Errorf("reduce partition span sums = %d, want %d", partOut, m.OutputRecords)
	}

	io := cyc.Find(obs.KindIO, "stream-write")
	if io == nil {
		t.Fatalf("no stream-write span in:\n%s", sn.Tree())
	}
	if io.Records != m.OutputRecords || io.Bytes != m.OutputBytes {
		t.Errorf("io span = %d/%d, want %d/%d", io.Records, io.Bytes, m.OutputRecords, m.OutputBytes)
	}
}

// TestRunEmitsSpanTreeMapOnly checks the reduced hierarchy of a map-only
// job: map phase (incl. write wall), operator, io — no shuffle or reduce.
func TestRunEmitsSpanTreeMapOnly(t *testing.T) {
	c, root := tracedCluster(t)
	writeLines(c, "in", 1, "keep 1", "drop 2", "keep 3")
	job := &Job{
		Name:   "filter",
		Inputs: []string{"in"},
		Output: "out",
		NewMapper: func(tc *TaskContext) Mapper {
			return MapperFunc(func(rec []byte, emit Emit) error {
				if strings.HasPrefix(string(rec), "keep") {
					emit("k", rec)
				}
				return nil
			})
		},
	}
	m, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	sn := root.Snapshot()
	cyc := sn.Find(obs.KindCycle, "filter")
	if cyc == nil {
		t.Fatalf("no cycle span in:\n%s", sn.Tree())
	}
	mp := cyc.Find(obs.KindPhase, "map")
	if mp == nil || mp.WallNs != m.MapWallNs {
		t.Fatalf("map phase span = %+v, want wall %d", mp, m.MapWallNs)
	}
	if cyc.Find(obs.KindPhase, "shuffle-sort") != nil || cyc.Find(obs.KindPhase, "reduce") != nil {
		t.Fatalf("map-only job has shuffle/reduce spans:\n%s", sn.Tree())
	}
	if op := mp.Find(obs.KindOperator, "map"); op == nil {
		t.Fatalf("default operator label missing:\n%s", sn.Tree())
	}
	if io := cyc.Find(obs.KindIO, "stream-write"); io == nil || io.Records != m.OutputRecords {
		t.Fatalf("io span = %+v, want records %d", io, m.OutputRecords)
	}
}

// TestParallelReduceSiblingSpans runs a many-partition job with the full
// worker pool so parallel reduce workers attach sibling spans concurrently —
// the -race coverage the observability layer needs.
func TestParallelReduceSiblingSpans(t *testing.T) {
	c, root := tracedCluster(t)
	var lines []string
	for i := 0; i < 64; i++ {
		lines = append(lines, fmt.Sprintf("k%d v%d", i%16, i))
	}
	writeLines(c, "in", 1, lines...)
	job := wordCountJob("in", "out", false)
	job.Partitions = 16
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	root.End()
	sn := root.Snapshot()
	rop := sn.Find(obs.KindOperator, "reduce")
	if rop == nil {
		t.Fatalf("no reduce operator span:\n%s", sn.Tree())
	}
	if len(rop.Children) != 16 {
		t.Fatalf("got %d reduce partition spans, want 16", len(rop.Children))
	}
	seen := map[string]bool{}
	for _, ch := range rop.Children {
		seen[ch.Name] = true
	}
	for p := 0; p < 16; p++ {
		if !seen[fmt.Sprintf("part-%d", p)] {
			t.Fatalf("missing span part-%d; have %v", p, seen)
		}
	}
}

// TestUntracedRunEmitsNoSpans pins the disabled path: no context span means
// no cycle spans anywhere.
func TestUntracedRunEmitsNoSpans(t *testing.T) {
	c := newTestCluster()
	writeLines(c, "in", 1, "a b", "c d")
	if _, err := c.Run(wordCountJob("in", "out", false)); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert on spans (there is no root); the run must simply
	// succeed with tracing off, and the phase walls must still be measured.
	m, err := c.Run(wordCountJob("in", "out2", false))
	if err != nil {
		t.Fatal(err)
	}
	if m.MapWallNs <= 0 {
		t.Errorf("MapWallNs = %d, want > 0", m.MapWallNs)
	}
	_ = time.Duration(m.MapWallNs)
}
