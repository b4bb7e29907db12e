package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/mapred"
)

// An engine's evaluation of a query is data: a Plan lists the MapReduce
// cycles (stages) in execution order, each with its output path, named by
// Plan.Add, and the files its job reads. Engines build plans without
// running anything (Engine.Plan). Execute is the one executor: it runs the
// stages and their hooks and deletes every file the execution created.
// Every output lives in the DFS's in-memory registry (dfs.FS.CreateStream),
// and so does content a plan attaches instead of computing (Plan.Attach).

// Stage is one MapReduce cycle of a plan.
type Stage struct {
	// Name names the stage's output file.
	Name string
	// Op labels the stage's operator.
	Op string
	// Out is the stage's output path, named by Plan.Add.
	Out string
	// Reads lists the files the job reads: earlier outputs, and stored or
	// attached files, which match no output. It is the plan's declared
	// data flow, and the executor checks it against the job.
	Reads []string
	// Job returns the stage's job when the stage runs; out, the stage's
	// output path, is the job's Output.
	Job func(out string) *mapred.Job
	// After, when set, runs after the job with its metrics, and an error
	// fails the execution. It may change what the remaining stages' Job
	// functions build, never the stages themselves.
	After func(c *mapred.Cluster, m *mapred.Metrics) error
}

// Plan is the ordered stages of one query's evaluation. The zero Plan is
// ready to use.
type Plan struct {
	// Stages are the plan's cycles in execution order.
	Stages []Stage
	// prefix is the plan's output directory, taken by the first Add or
	// Attach; result is the query's result path, set by Finish.
	prefix, result string
	// attached is the content Attach named, in order.
	attached []attachment
}

// attachment is content a plan reads under a path of its own.
type attachment struct {
	path    string
	content dfs.Content
}

// executions numbers plans, giving each its own output prefix.
var executions atomic.Int64

// dir returns the plan's output directory, taking one on first use.
func (p *Plan) dir() string {
	if p.prefix == "" {
		p.prefix = fmt.Sprintf("tmp/%d", executions.Add(1))
	}
	return p.prefix
}

// Add appends a stage, names its output under the plan's prefix and
// returns that path.
func (p *Plan) Add(s Stage) string {
	s.Out = fmt.Sprintf("%s/%02d-%s", p.dir(), len(p.Stages)+1, s.Name)
	p.Stages = append(p.Stages, s)
	return s.Out
}

// Attach names content under the plan's prefix and returns that path, for
// stages to read like an output that already ran. Execute registers it
// before the first stage and deletes it with the outputs. Attaching runs
// no job.
func (p *Plan) Attach(name string, c dfs.Content) string {
	path := fmt.Sprintf("%s/in%d-%s", p.dir(), len(p.attached)+1, name)
	p.attached = append(p.attached, attachment{path, c})
	return path
}

// Finish ends the plan with the shared finish path over the aggregation
// outputs aggs: the map-only join of their rows when the query has more
// than one subquery, then the total-order cycle (SortJob) when it has
// ORDER BY or LIMIT. The GROUP BY ALL groups of the aggregated rows are
// repaired (defaults.go) by a hook on the last stage added before Finish,
// after any hook that stage has. A single-subquery query needs no join
// when its aggregate's columns, grouping variables then aggregates, are
// the query's projection; otherwise the map-only cycle projects them.
func (p *Plan) Finish(aq *algebra.AnalyticalQuery, aggs ...string) {
	last := &p.Stages[len(p.Stages)-1]
	after := last.After
	last.After = func(c *mapred.Cluster, m *mapred.Metrics) error {
		if after != nil {
			if err := after(c, m); err != nil {
				return err
			}
		}
		return RepairGroupByAll(c.FS, aggs, aq)
	}
	p.result = aggs[0]
	if len(aq.Subqueries) > 1 || !slices.Equal(aq.OutputColumns(), aq.Subqueries[0].OutputColumns()) {
		p.result = p.Add(Stage{Name: "final", Op: "final-join", Reads: aggs,
			Job: func(out string) *mapred.Job { return FinalJoinJob(aq, aggs, out) }})
	}
	if aq.Sorted() {
		in := p.result
		p.result = p.Add(Stage{Name: "sorted", Op: "order-by", Reads: []string{in},
			Job: func(out string) *mapred.Job { return SortJob(aq, in, out) }})
	}
}

// Execute plans the query with e, runs the plan on c and reads the result.
// When the execution ends, on success and on error alike, every attached
// file and every output is deleted; a failed delete fails the execution
// unless it had already failed.
func Execute(c *mapred.Cluster, ds *Dataset, e Engine, aq *algebra.AnalyticalQuery) (*Result, *mapred.WorkflowMetrics, error) {
	p, err := e.Plan(c, ds, aq)
	if err != nil {
		return nil, nil, err
	}
	wm := &mapred.WorkflowMetrics{}
	res, err := p.run(c, wm, aq)
	if derr := p.deleteIntermediates(c.FS, len(wm.Jobs)); derr != nil && err == nil {
		res, err = nil, derr
	}
	return res, wm, err
}

// run registers the attached content on c, runs the stages, appending
// each job's metrics to wm, and reads the result.
func (p *Plan) run(c *mapred.Cluster, wm *mapred.WorkflowMetrics, aq *algebra.AnalyticalQuery) (*Result, error) {
	for _, a := range p.attached {
		if err := c.FS.Attach(a.path, a.content); err != nil {
			return nil, err
		}
	}
	for _, st := range p.Stages {
		job := st.Job(st.Out)
		if err := p.checkReads(st, job); err != nil {
			return nil, err
		}
		m, err := c.Run(job)
		if err != nil {
			return nil, err
		}
		wm.Jobs = append(wm.Jobs, m)
		if st.After != nil {
			if err := st.After(c, m); err != nil {
				return nil, err
			}
		}
	}
	return ReadResult(c.FS, p.result, aq)
}

// checkReads fails unless the plan outputs job reads are exactly those st
// lists, so a plan's Reads are its data flow as it runs.
func (p *Plan) checkReads(st Stage, job *mapred.Job) error {
	ins := slices.Concat(job.Inputs, job.SideInputs)
	for _, o := range p.Stages {
		switch read, listed := slices.Contains(ins, o.Out), slices.Contains(st.Reads, o.Out); {
		case read && !listed:
			return fmt.Errorf("engine: stage %s reads %s without listing it", st.Name, o.Out)
		case listed && !read:
			return fmt.Errorf("engine: stage %s lists %s but does not read it", st.Name, o.Out)
		}
	}
	return nil
}

// deleteIntermediates deletes every attached file and the output of every
// stage that started — the ran stages that ran and the one after them —
// returning the first failure (with the path named) after attempting the
// rest. Deleting a file never registered or written is a no-op.
func (p *Plan) deleteIntermediates(fs *dfs.FS, ran int) error {
	var first error
	del := func(path string) {
		if err := fs.Delete(path); err != nil && first == nil {
			first = fmt.Errorf("engine: deleting %s: %w", path, err)
		}
	}
	for _, a := range p.attached {
		del(a.path)
	}
	for _, st := range p.Stages[:min(ran+1, len(p.Stages))] {
		del(st.Out)
	}
	return first
}
