package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
)

// planned is an engine whose plan the test builds.
type planned func(p *Plan)

func (planned) Name() string { return "planned" }

func (f planned) Plan(*mapred.Cluster, *Dataset, *algebra.AnalyticalQuery) (*Plan, error) {
	p := &Plan{}
	f(p)
	return p, nil
}

// copyJob is a map-only job copying every record of in to out.
func copyJob(name, in, out string) *mapred.Job {
	return &mapred.Job{
		Name: name, Inputs: []string{in}, Output: out,
		NewMapper: func(*mapred.TaskContext) mapred.Mapper {
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				emit("", rec)
				return nil
			})
		},
	}
}

// load is a stage copying the stored file name.
func load(name string) Stage {
	return Stage{Name: name, Op: "copy", Job: func(_ []string, out string) *mapred.Job {
		return copyJob(name, name, out)
	}}
}

// copyOf is a stage copying stage from's output.
func copyOf(name string, from int) Stage {
	return Stage{Name: name, Op: "copy", Reads: []int{from}, Job: func(paths []string, out string) *mapred.Job {
		return copyJob(name, paths[from], out)
	}}
}

// finish runs the finish path over stored aggregate files, each loaded by
// a stage of its own.
func finish(c *mapred.Cluster, aq *algebra.AnalyticalQuery, files []string) (*Result, *mapred.WorkflowMetrics, error) {
	return Execute(c, nil, planned(func(p *Plan) {
		aggs := make([]int, len(files))
		for i, f := range files {
			aggs[i] = p.Add(load(f))
		}
		p.Finish(aq, aggs...)
	}), aq)
}

const oneGrouped = `PREFIX e: <http://e/>
SELECT ?g (COUNT(?x) AS ?n) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g`

// checkClean fails t unless the execution left no intermediate, stream or
// handle behind but the streams kept.
func checkClean(t *testing.T, c *mapred.Cluster, keptStreams int) {
	t.Helper()
	if left := c.FS.List("tmp/"); len(left) != 0 {
		t.Errorf("intermediates left behind: %v", left)
	}
	if n := c.FS.LiveStreams(); n != keptStreams {
		t.Errorf("%d live streams, want %d", n, keptStreams)
	}
	if n := c.FS.OpenHandles(); n != 0 {
		t.Errorf("%d DFS handles left open", n)
	}
}

// An output streams exactly when one later stage reads it: read by none,
// one and two, it materialises, streams and materialises.
func TestStreamIffOneReader(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	res, wm, err := Execute(c, nil, planned(func(p *Plan) {
		p.Add(load("in"))     // 0: read by 1
		p.Add(copyOf("a", 0)) // 1: read by 2 and 3
		p.Add(copyOf("b", 1)) // 2: read by none
		p.Finish(aq, p.Add(copyOf("c", 1)))
	}), aq)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, false, false} {
		if got := wm.Jobs[i].StreamedRecords > 0; got != want {
			t.Errorf("stage %d streamed %v, want %v", i, got, want)
		}
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "3" {
		t.Errorf("rows = %v", res.Rows)
	}
	checkClean(t, c, 0)
}

// A kept output with one reader streams and outlives the execution; every
// other output goes.
func TestKeptOutputSurvives(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	var kept string
	_, wm, err := Execute(c, nil, planned(func(p *Plan) {
		st := load("in")
		st.Keep = true
		st.After = func(_ context.Context, out string, _ *mapred.Metrics) { kept = out }
		p.Add(st)
		p.Finish(aq, p.Add(copyOf("a", 0)))
	}), aq)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Jobs[0].StreamedRecords == 0 {
		t.Error("the kept output did not stream")
	}
	if !c.FS.Exists(kept) {
		t.Errorf("kept output %q deleted", kept)
	}
	checkClean(t, c, 1)
}

// A hook may change what the remaining stages build, here swapping the
// two jobs after it; the plan keeps its stages, and each runs once.
func TestHookReordersStages(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	names := []string{"x", "y"}
	var p *Plan
	_, wm, err := Execute(c, nil, planned(func(pl *Plan) {
		p = pl
		first := load("in")
		first.After = func(context.Context, string, *mapred.Metrics) { names[0], names[1] = names[1], names[0] }
		pl.Add(first)
		for i := range names {
			st := copyOf(fmt.Sprint(i), i)
			st.Job = func(paths []string, out string) *mapred.Job { return copyJob(names[i], paths[i], out) }
			pl.Add(st)
		}
		pl.Finish(aq, 2)
	}), aq)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Cycles() != len(p.Stages) {
		t.Errorf("%d cycles ran, the plan has %d stages", wm.Cycles(), len(p.Stages))
	}
	if got := wm.Jobs[1].Job + wm.Jobs[2].Job; got != "yx" {
		t.Errorf("jobs after the hook ran as %q, want yx", got)
	}
	checkClean(t, c, 0)
}

// Intermediates go after a failing stage too, kept ones included, with no
// handle left open; the failure is the stage's.
func TestFailedStageDeletesIntermediates(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	boom := errors.New("boom")
	_, _, err := Execute(c, nil, planned(func(p *Plan) {
		p.Add(load("in"))
		p.Add(copyOf("a", 0))
		bad := copyOf("bad", 1)
		bad.Keep = true
		bad.Job = func(paths []string, out string) *mapred.Job {
			job := copyJob("bad", paths[1], out)
			job.NewMapper = func(*mapred.TaskContext) mapred.Mapper {
				return mapred.MapperFunc(func([]byte, mapred.Emit) error { return boom })
			}
			return job
		}
		p.Finish(aq, p.Add(bad))
	}), aq)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the stage's", err)
	}
	checkClean(t, c, 0)
}

// A stage that reads an earlier output it does not list fails before it
// runs: the stream decision relies on the lists.
func TestUnlistedReadRejected(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	_, wm, err := Execute(c, nil, planned(func(p *Plan) {
		p.Add(load("in"))
		st := copyOf("a", 0)
		st.Reads = nil
		p.Finish(aq, p.Add(st))
	}), aq)
	if err == nil || !strings.Contains(err.Error(), "without listing stage 0") {
		t.Errorf("err = %v, want the unlisted read named", err)
	}
	if wm.Cycles() != 1 {
		t.Errorf("%d cycles ran, want 1", wm.Cycles())
	}
	checkClean(t, c, 0)
}

// Two executions never share an output path.
func TestExecutionPathsUnique(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	var outs []string
	for range 2 {
		if _, _, err := Execute(c, nil, planned(func(p *Plan) {
			st := load("in")
			st.After = func(_ context.Context, out string, _ *mapred.Metrics) { outs = append(outs, out) }
			p.Finish(aq, p.Add(st))
		}), aq); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0] == outs[1] || !strings.HasPrefix(outs[0], "tmp/") {
		t.Errorf("output paths %q", outs)
	}
}
