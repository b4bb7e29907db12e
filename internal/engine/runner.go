package engine

import (
	"fmt"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/mapred"
)

// Runner tracks one engine execution: the cluster, a unique temp-file
// prefix, and the accumulated workflow metrics.
type Runner struct {
	C  *mapred.Cluster         // the cluster the jobs run on
	WM *mapred.WorkflowMetrics // one entry per executed job, in order

	prefix string
	seq    int
}

// NewRunner returns a runner writing temp files under prefix.
func NewRunner(c *mapred.Cluster, prefix string) *Runner {
	return &Runner{C: c, WM: &mapred.WorkflowMetrics{}, prefix: prefix}
}

// Path allocates a unique temp file path.
func (r *Runner) Path(name string) string {
	r.seq++
	return fmt.Sprintf("%s/%02d-%s", r.prefix, r.seq, name)
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
func FinishQuery(r *Runner, aq *algebra.AnalyticalQuery, aggFiles []string) (*Result, *mapred.WorkflowMetrics, error) {
	if err := EnsureDefaultRows(r.C.FS, aggFiles, aq); err != nil {
		return nil, r.WM, err
	}
	if err := ApplyGroupByAllHaving(r.C.FS, aggFiles, aq); err != nil {
		return nil, r.WM, err
	}
	file := aggFiles[0]
	if len(aq.Subqueries) > 1 {
		file = r.Path("final")
		if err := r.Exec(FinalJoinJob(aq, aggFiles, file)); err != nil {
			return nil, r.WM, err
		}
	}
	if aq.Sorted() {
		sorted := r.Path("sorted")
		if err := r.Exec(SortJob(aq, file, sorted)); err != nil {
			return nil, r.WM, err
		}
		file = sorted
	}
	res, err := ReadResult(r.C.FS, file, aq.OutputColumns())
	return res, r.WM, err
}
