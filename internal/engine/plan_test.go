package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
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
	return Stage{Name: name, Op: "copy", Job: func(out string) *mapred.Job {
		return copyJob(name, name, out)
	}}
}

// copyOf is a stage copying the earlier output from.
func copyOf(name, from string) Stage {
	return Stage{Name: name, Op: "copy", Reads: []string{from}, Job: func(out string) *mapred.Job {
		return copyJob(name, from, out)
	}}
}

// finish runs the finish path over stored aggregate files, each loaded by
// a stage of its own.
func finish(c *mapred.Cluster, aq *algebra.AnalyticalQuery, files []string) (*Result, *mapred.WorkflowMetrics, error) {
	return Execute(c, nil, planned(func(p *Plan) {
		aggs := make([]string, len(files))
		for i, f := range files {
			aggs[i] = p.Add(load(f))
		}
		p.Finish(aq, aggs...)
	}), aq)
}

const oneGrouped = `PREFIX e: <http://e/>
SELECT ?g (COUNT(?x) AS ?n) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g`

// checkClean fails t unless the execution left no intermediate, live
// stream or handle behind.
func checkClean(t *testing.T, c *mapred.Cluster) {
	t.Helper()
	if left := c.FS.List("tmp/"); len(left) != 0 {
		t.Errorf("intermediates left behind: %v", left)
	}
	if n := c.FS.LiveStreams(); n != 0 {
		t.Errorf("%d live outputs", n)
	}
	if n := c.FS.OpenHandles(); n != 0 {
		t.Errorf("%d DFS handles left open", n)
	}
}

// contentOf returns the content of a registered file of recs, and deletes
// the file.
func contentOf(t *testing.T, fs *dfs.FS, recs ...[]byte) dfs.Content {
	t.Helper()
	w, err := fs.CreateStream("content", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		w.Write(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := fs.Content("content")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("content"); err != nil {
		t.Fatal(err)
	}
	return c
}

// Attached content is read like a stored file, runs no job, and is
// deleted with the outputs.
func TestAttachedContentReadAndDeleted(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	rec := codec.Tuple{"Ig1", "3"}.Encode()
	writeRecs(t, c.FS, "in", rec)
	aq := mustAQ(t, oneGrouped)
	want, _, err := finish(c, aq, []string{"in"})
	if err != nil {
		t.Fatal(err)
	}
	content := contentOf(t, c.FS, rec)
	var in string
	got, wm, err := Execute(c, nil, planned(func(p *Plan) {
		in = p.Attach("in", content)
		p.Finish(aq, p.Add(copyOf("a", in)))
	}), aq)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got.Rows, want.Rows, slices.Equal) || len(got.Rows) == 0 {
		t.Errorf("rows over the attached content %v, over the stored file %v", got.Rows, want.Rows)
	}
	if wm.Cycles() != 1 {
		t.Errorf("%d cycles ran, want the copy's 1", wm.Cycles())
	}
	if c.FS.Exists(in) {
		t.Errorf("attached %s outlives the execution", in)
	}
	checkClean(t, c)
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
		first.After = func(*mapred.Cluster, *mapred.Metrics) error {
			names[0], names[1] = names[1], names[0]
			return nil
		}
		from := pl.Add(first)
		for i := range names {
			in := from
			st := copyOf(fmt.Sprint(i), in)
			st.Job = func(out string) *mapred.Job { return copyJob(names[i], in, out) }
			from = pl.Add(st)
		}
		pl.Finish(aq, from)
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
	checkClean(t, c)
}

// Intermediates go after a failing stage too, attached content included,
// with no handle left open; the failure is the stage's.
func TestFailedStageDeletesIntermediates(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	content := contentOf(t, c.FS, codec.Tuple{"Ig2", "4"}.Encode())
	aq := mustAQ(t, oneGrouped)
	boom := errors.New("boom")
	_, _, err := Execute(c, nil, planned(func(p *Plan) {
		a := p.Add(copyOf("a", p.Add(load("in"))))
		p.Add(copyOf("b", p.Attach("side", content)))
		bad := copyOf("bad", a)
		bad.Job = func(out string) *mapred.Job {
			job := copyJob("bad", a, out)
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
	checkClean(t, c)
}

// A hook's error fails the execution: no later stage runs, and the
// intermediates go.
func TestHookErrorFailsExecution(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	boom := errors.New("boom")
	_, wm, err := Execute(c, nil, planned(func(p *Plan) {
		st := load("in")
		st.After = func(*mapred.Cluster, *mapred.Metrics) error { return boom }
		p.Finish(aq, p.Add(copyOf("a", p.Add(st))))
	}), aq)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the hook's", err)
	}
	if wm.Cycles() != 1 {
		t.Errorf("%d cycles ran, want 1", wm.Cycles())
	}
	checkClean(t, c)
}

// Finish attaches the GROUP BY ALL repair to the last stage without
// dropping that stage's own hook, which runs first.
func TestFinishKeepsStageHook(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "empty")
	aq := mustAQ(t, `PREFIX e: <http://e/>
SELECT (COUNT(?x) AS ?n) { ?s e:x ?x . }`)
	// The hook counts the output's records: none, as the repair has not run.
	records := -1
	res, _, err := Execute(c, nil, planned(func(p *Plan) {
		st := load("empty")
		var out string
		st.After = func(c *mapred.Cluster, _ *mapred.Metrics) error {
			f, err := c.FS.Open(out)
			if err != nil {
				return err
			}
			defer f.Close()
			records = f.NumRecords()
			return nil
		}
		out = p.Add(st)
		p.Finish(aq, out)
	}), aq)
	if err != nil {
		t.Fatal(err)
	}
	if records != 0 {
		t.Errorf("the stage's own hook saw %d records, want 0 before the repair", records)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "0" {
		t.Errorf("rows = %v, want the GROUP BY ALL default row", res.Rows)
	}
	checkClean(t, c)
}

// A stage that reads an earlier output it does not list fails before it
// runs: a plan's Reads are its declared data flow.
func TestUnlistedReadRejected(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	var in string
	_, wm, err := Execute(c, nil, planned(func(p *Plan) {
		in = p.Add(load("in"))
		st := copyOf("a", in)
		st.Reads = nil
		p.Finish(aq, p.Add(st))
	}), aq)
	if err == nil || !strings.Contains(err.Error(), "stage a reads "+in+" without listing it") {
		t.Errorf("err = %v, want the unlisted read named", err)
	}
	if wm.Cycles() != 1 {
		t.Errorf("%d cycles ran, want 1", wm.Cycles())
	}
	checkClean(t, c)
}

// A stage that lists an earlier output its job never reads fails before
// it runs: the listing would declare a data flow that is not there.
func TestUnreadListingRejected(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	var a string
	_, wm, err := Execute(c, nil, planned(func(p *Plan) {
		in := p.Add(load("in"))
		a = p.Add(copyOf("a", in))
		st := copyOf("b", in)
		st.Reads = []string{in, a}
		p.Add(st)
		p.Finish(aq, p.Add(copyOf("c", a)))
	}), aq)
	if err == nil || !strings.Contains(err.Error(), "stage b lists "+a+" but does not read it") {
		t.Errorf("err = %v, want the unread listing named", err)
	}
	if wm.Cycles() != 2 {
		t.Errorf("%d cycles ran, want 2", wm.Cycles())
	}
	checkClean(t, c)
}

// Two plans never share an output path, and Add returns the path it
// names.
func TestExecutionPathsUnique(t *testing.T) {
	c := mapred.NewCluster(mapred.DefaultConfig())
	writeRecs(t, c.FS, "in", codec.Tuple{"Ig1", "3"}.Encode())
	aq := mustAQ(t, oneGrouped)
	var outs []string
	for range 2 {
		if _, _, err := Execute(c, nil, planned(func(p *Plan) {
			out := p.Add(load("in"))
			p.Finish(aq, out)
			if p.Stages[0].Out != out {
				t.Errorf("Add returned %q, the stage's output is %q", out, p.Stages[0].Out)
			}
			outs = append(outs, p.Stages[0].Out)
		}), aq); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0] == outs[1] || !strings.HasPrefix(outs[0], "tmp/") {
		t.Errorf("output paths %q", outs)
	}
}
