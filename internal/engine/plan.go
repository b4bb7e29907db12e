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
// stages and their hooks and deletes the intermediates. Every output lives
// in the DFS's in-memory registry (dfs.FS.CreateStream).

// Stage is one MapReduce cycle of a plan.
type Stage struct {
	// Name names the stage's output file.
	Name string
	// Op labels the stage's operator.
	Op string
	// Out is the stage's output path, named by Plan.Add.
	Out string
	// Reads lists the files the job reads: earlier outputs and stored
	// files, which match no output. It is the plan's declared data flow,
	// and the executor checks it against the job.
	Reads []string
	// Keep, when set, is asked once the execution ends whether the output
	// of this stage, which ran, outlives it; an output it does not keep is
	// deleted with the other intermediates. It may answer from what the
	// stage's After hook learnt.
	Keep func() bool
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
	// prefix is the plan's output directory, taken by the first Add;
	// result is the query's result path, set by Finish.
	prefix, result string
}

// executions numbers plans, giving each its own output prefix.
var executions atomic.Int64

// Add appends a stage, names its output under the plan's prefix and
// returns that path.
func (p *Plan) Add(s Stage) string {
	if p.prefix == "" {
		p.prefix = fmt.Sprintf("tmp/%d", executions.Add(1))
	}
	s.Out = fmt.Sprintf("%s/%02d-%s", p.prefix, len(p.Stages)+1, s.Name)
	p.Stages = append(p.Stages, s)
	return s.Out
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
// When the execution ends, on success and on error alike, every
// output is deleted but those of kept stages that ran; a failed delete
// fails the execution unless it had already failed.
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

// run runs the stages on c, appending each job's metrics to wm, and reads
// the result.
func (p *Plan) run(c *mapred.Cluster, wm *mapred.WorkflowMetrics, aq *algebra.AnalyticalQuery) (*Result, error) {
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

// deleteIntermediates deletes the output of every stage that started —
// the ran stages that ran and the one after them — except kept stages
// that ran, returning the first failure (with the path named) after
// attempting the rest. Deleting an output its job never wrote is a no-op.
func (p *Plan) deleteIntermediates(fs *dfs.FS, ran int) error {
	var first error
	for i, st := range p.Stages[:min(ran+1, len(p.Stages))] {
		if i < ran && st.Keep != nil && st.Keep() {
			continue
		}
		if err := fs.Delete(st.Out); err != nil && first == nil {
			first = fmt.Errorf("engine: deleting %s: %w", st.Out, err)
		}
	}
	return first
}
