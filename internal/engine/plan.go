package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/mapred"
)

// An engine's evaluation of a query is data: a Plan lists the MapReduce
// cycles (stages) in execution order and the earlier outputs each one
// reads. Engines build plans without running anything (Engine.Plan);
// Execute is the one executor. It names every output, decides which ones
// stream — an output streams exactly when one later stage reads it — runs
// the stages, and deletes the intermediates.

// Stage is one MapReduce cycle of a plan.
type Stage struct {
	// Name names the stage's output file.
	Name string
	// Op labels the stage's operator.
	Op string
	// Reads lists the earlier stages whose outputs the job reads.
	Reads []int
	// Keep exempts the output from deletion once the stage has run: the
	// file outlives the execution.
	Keep bool
	// Job builds the stage's job when the stage runs. paths[i] is stage
	// i's output path; out, the stage's own, is the job's Output.
	Job func(paths []string, out string) *mapred.Job
	// After, when set, runs after the job with its output and metrics. It
	// may change what the remaining stages' Job functions build, never
	// the stages themselves.
	After func(ctx context.Context, out string, m *mapred.Metrics)
}

// Plan is the ordered stages of one query's evaluation.
type Plan struct {
	// Stages are the plan's cycles in execution order.
	Stages []Stage
	// aggs are the stages whose outputs hold the subqueries' aggregated
	// rows, in either layout (defaults.go); finish is the first stage after
	// them, and result the stage whose output is the query's result.
	aggs           []int
	finish, result int
}

// Add appends a stage and returns its index.
func (p *Plan) Add(s Stage) int {
	p.Stages = append(p.Stages, s)
	return len(p.Stages) - 1
}

// Finish ends the plan with the shared finish path over the aggregation
// stages aggs: the map-only join of their rows when the query has more
// than one subquery, then the total-order cycle (SortJob) when it has
// ORDER BY or LIMIT. Before those run, the executor repairs the GROUP BY
// ALL groups of the aggregated rows (defaults.go). A single-subquery query
// needs no join: its aggregate's column order is already the query's
// projection.
func (p *Plan) Finish(aq *algebra.AnalyticalQuery, aggs ...int) {
	p.aggs, p.finish, p.result = aggs, len(p.Stages), aggs[0]
	if len(aq.Subqueries) > 1 {
		p.result = p.Add(Stage{Name: "final", Op: "final-join", Reads: aggs,
			Job: func(paths []string, out string) *mapred.Job {
				return FinalJoinJob(aq, pick(paths, aggs), out)
			}})
	}
	if aq.Sorted() {
		in := p.result
		p.result = p.Add(Stage{Name: "sorted", Op: "order-by", Reads: []int{in},
			Job: func(paths []string, out string) *mapred.Job {
				return SortJob(aq, paths[in], out)
			}})
	}
}

// pick returns the paths of the given stages.
func pick(paths []string, stages []int) []string {
	out := make([]string, len(stages))
	for i, s := range stages {
		out[i] = paths[s]
	}
	return out
}

// executions numbers executions, giving each its own output prefix.
var executions atomic.Int64

// Execute plans the query with e, runs the plan on c and reads the result.
// Every output is named under one per-execution prefix; an output streams
// (mapred.Job.StreamOutput) exactly when one later stage reads it. When
// the execution ends, on success and on error alike, every output is
// deleted but those of kept stages that ran; a failed delete fails the
// execution unless it had already failed.
func Execute(c *mapred.Cluster, ds *Dataset, e Engine, aq *algebra.AnalyticalQuery) (*Result, *mapred.WorkflowMetrics, error) {
	p, err := e.Plan(c, ds, aq)
	if err != nil {
		return nil, nil, err
	}
	x := &execution{c: c, p: p, wm: &mapred.WorkflowMetrics{}, paths: make([]string, len(p.Stages))}
	prefix := fmt.Sprintf("tmp/%d", executions.Add(1))
	for i, st := range p.Stages {
		x.paths[i] = fmt.Sprintf("%s/%02d-%s", prefix, i+1, st.Name)
	}
	res, err := x.run(aq)
	if derr := x.deleteIntermediates(); derr != nil && err == nil {
		res, err = nil, derr
	}
	return res, x.wm, err
}

// execution is one run of a plan.
type execution struct {
	c     *mapred.Cluster
	p     *Plan
	wm    *mapred.WorkflowMetrics
	paths []string // every stage's output path
	ran   int      // stages that have run successfully
}

func (x *execution) run(aq *algebra.AnalyticalQuery) (*Result, error) {
	readers := make([]int, len(x.p.Stages))
	for _, st := range x.p.Stages {
		for _, r := range st.Reads {
			readers[r]++
		}
	}
	for i, st := range x.p.Stages {
		if i == x.p.finish {
			if err := x.repair(aq); err != nil {
				return nil, err
			}
		}
		job := st.Job(x.paths, x.paths[i])
		// The stream decision relies on Reads: a read it misses fails.
		for _, in := range slices.Concat(job.Inputs, job.SideInputs) {
			if s := slices.Index(x.paths[:i], in); s >= 0 && !slices.Contains(st.Reads, s) {
				return nil, fmt.Errorf("engine: stage %s reads %s without listing stage %d", st.Name, in, s)
			}
		}
		job.StreamOutput = readers[i] == 1
		m, err := x.c.Run(job)
		if err != nil {
			return nil, err
		}
		x.wm.Jobs = append(x.wm.Jobs, m)
		x.ran++
		if st.After != nil {
			st.After(x.c.Context(), x.paths[i], m)
		}
	}
	if x.p.finish == len(x.p.Stages) {
		if err := x.repair(aq); err != nil {
			return nil, err
		}
	}
	return ReadResult(x.c.FS, x.paths[x.p.result], aq.OutputColumns())
}

// repair applies the finish path's GROUP BY ALL repairs to the
// aggregation stages' outputs, rewriting a file when it changes.
func (x *execution) repair(aq *algebra.AnalyticalQuery) error {
	files := pick(x.paths, x.p.aggs)
	if err := EnsureDefaultRows(x.c.FS, files, aq); err != nil {
		return err
	}
	return ApplyGroupByAllHaving(x.c.FS, files, aq)
}

// deleteIntermediates deletes the output of every stage that started,
// except kept stages that ran, returning the first failure (with the path
// named) after attempting the rest. Deleting an output its job never
// wrote is a no-op.
func (x *execution) deleteIntermediates() error {
	var first error
	for i, p := range x.paths[:min(x.ran+1, len(x.paths))] {
		if x.p.Stages[i].Keep && i < x.ran {
			continue
		}
		if err := x.c.FS.Delete(p); err != nil && first == nil {
			first = fmt.Errorf("engine: deleting %s: %w", p, err)
		}
	}
	return first
}
