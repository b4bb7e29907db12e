package engine

import (
	"fmt"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/mapred"
)

// Runner tracks one engine execution: the cluster, a unique temp-file
// prefix, the paths it has handed out, and the accumulated workflow
// metrics.
type Runner struct {
	C  *mapred.Cluster         // the cluster the jobs run on
	WM *mapred.WorkflowMetrics // one entry per executed job, in order

	prefix string
	paths  []string
	kept   map[string]bool
}

// NewRunner returns a runner writing temp files under prefix.
func NewRunner(c *mapred.Cluster, prefix string) *Runner {
	return &Runner{C: c, WM: &mapred.WorkflowMetrics{}, prefix: prefix}
}

// Run executes one query on a fresh runner writing under prefix and then
// deletes every file and stream the runner handed out (Path), except those
// marked Keep — on success and on error alike. A failed delete fails the
// execution unless it had already failed.
func Run(c *mapred.Cluster, prefix string, exec func(r *Runner) (*Result, error)) (*Result, *mapred.WorkflowMetrics, error) {
	r := NewRunner(c, prefix)
	res, err := exec(r)
	if derr := r.deleteIntermediates(); derr != nil && err == nil {
		res, err = nil, derr
	}
	return res, r.WM, err
}

// Path allocates a unique temp file path.
func (r *Runner) Path(name string) string {
	p := fmt.Sprintf("%s/%02d-%s", r.prefix, len(r.paths)+1, name)
	r.paths = append(r.paths, p)
	return p
}

// Keep exempts paths from the deletion at the end of Run: their files
// outlive the execution.
func (r *Runner) Keep(paths ...string) {
	if r.kept == nil {
		r.kept = map[string]bool{}
	}
	for _, p := range paths {
		r.kept[p] = true
	}
}

// deleteIntermediates deletes every path handed out and not kept,
// returning the first failure (with the path named) after attempting the
// rest. Deleting a path whose job never wrote it is a no-op.
func (r *Runner) deleteIntermediates() error {
	var first error
	for _, p := range r.paths {
		if r.kept[p] {
			continue
		}
		if err := r.C.FS.Delete(p); err != nil && first == nil {
			first = fmt.Errorf("engine: deleting %s: %w", p, err)
		}
	}
	return first
}

// Exec runs one job and records its metrics.
func (r *Runner) Exec(job *mapred.Job) error {
	m, err := r.C.Run(job)
	if err != nil {
		return err
	}
	r.WM.Jobs = append(r.WM.Jobs, m)
	return nil
}

// FinishQuery repairs the GROUP BY ALL groups of the subqueries'
// aggregate files, in either layout (defaults.go), joins them (one map-only
// cycle), sorts the result when the query has ORDER BY or LIMIT (one more
// cycle, SortJob) and reads it. A single-subquery query needs no join: its
// aggregate's column order is already the query's projection.
func FinishQuery(r *Runner, aq *algebra.AnalyticalQuery, aggFiles []string) (*Result, error) {
	if err := EnsureDefaultRows(r.C.FS, aggFiles, aq); err != nil {
		return nil, err
	}
	if err := ApplyGroupByAllHaving(r.C.FS, aggFiles, aq); err != nil {
		return nil, err
	}
	file := aggFiles[0]
	if len(aq.Subqueries) > 1 {
		file = r.Path("final")
		if err := r.Exec(FinalJoinJob(aq, aggFiles, file)); err != nil {
			return nil, err
		}
	}
	if aq.Sorted() {
		sorted := r.Path("sorted")
		if err := r.Exec(SortJob(aq, file, sorted)); err != nil {
			return nil, err
		}
		file = sorted
	}
	return ReadResult(r.C.FS, file, aq.OutputColumns())
}
