// Package mapred is an in-process MapReduce engine modelled on Hadoop: jobs
// read record files from a dfs.FS, run parallel map tasks over block-sized
// input splits, partition and sort map output by key, optionally combine,
// reduce, and write output back to the DFS. Every executed job yields
// exact volume metrics (records and bytes read, shuffled and written), and a
// calibrated cost model converts those volumes into simulated cluster
// seconds for a configurable cluster — the substitute for the paper's
// 10–60-node Hadoop deployments.
package mapred

import (
	"context"
	"sync/atomic"

	"rapidanalytics/internal/dfs"
)

// Emit is the output callback handed to mappers, combiners and reducers.
// It copies the key and the value before it returns, so an emitter may
// reuse one buffer for every call.
type Emit func(key string, value []byte)

// Mapper consumes one input record at a time. A fresh Mapper is built per
// map task, so implementations may carry per-task state (e.g. the paper's
// multiAggMap hash table, Algorithm 3).
type Mapper interface {
	Map(record []byte, emit Emit) error
}

// MapCloser is implemented by mappers that buffer state across Map calls
// and must flush it when the task's input is exhausted — the Map.clean()
// hook of the paper's Algorithm 3.
type MapCloser interface {
	Close(emit Emit) error
}

// Reducer consumes one key group at a time. Also used for combiners.
//
// The values slice is valid only for the call: the framework reuses it for
// the partition's next group. The byte slices in it stay valid until the
// partition is reduced and must not be modified.
type Reducer interface {
	Reduce(key string, values [][]byte, emit Emit) error
}

// TaskContext gives a map task access to its environment: which input file
// its split came from, and any broadcast side inputs (the in-memory hash
// tables of Hive map-joins).
type TaskContext struct {
	// InputFile is the DFS file the task's split belongs to.
	InputFile string
	sideData  map[string]*dfs.File
}

// SideInput returns the open snapshot of a broadcast side input file, one
// of the job's SideInputs. Every task shares it: a task reads it with its
// own Records iterator, sized by NumRecords, and must not close it; Run
// closes it when the job ends.
func (tc *TaskContext) SideInput(name string) *dfs.File { return tc.sideData[name] }

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(record []byte, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(record []byte, emit Emit) error { return f(record, emit) }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values [][]byte, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values [][]byte, emit Emit) error {
	return f(key, values, emit)
}

// Job describes one MapReduce cycle.
type Job struct {
	// Name identifies the job in metrics and traces.
	Name string
	// Inputs are DFS file names read by the map phase.
	Inputs []string
	// SideInputs are DFS files broadcast whole to every map task (map-join
	// tables). Their size is charged once per simulated map task.
	SideInputs []string
	// Output is the DFS file the job materialises.
	Output string
	// OutputCompression is the output file's compression ratio (1 = none).
	OutputCompression float64
	// NewMapper builds a mapper for one map task.
	NewMapper func(tc *TaskContext) Mapper
	// NewCombiner optionally builds a combiner run over each map task's
	// local output.
	NewCombiner func() Reducer
	// NewReducer builds a reducer; nil makes the job map-only.
	NewReducer func() Reducer
	// Partitions is the number of reduce partitions used for execution
	// (simulated reduce-task counts come from the cost model instead).
	// Defaults to 4 when zero.
	Partitions int
	// MapOperator labels the logical operator the map phase executes (e.g.
	// TG_OptGrpFilter, vp-scan) in span traces and server metrics. Empty
	// defaults to "map".
	MapOperator string
	// ReduceOperator labels the reduce phase's logical operator (e.g.
	// TG_AlphaJoin, group-agg). Empty defaults to "reduce".
	ReduceOperator string
}

// MapOnly reports whether the job has no reduce phase.
func (j *Job) MapOnly() bool { return j.NewReducer == nil }

// mapOperatorName returns the map phase's operator label for spans.
func (j *Job) mapOperatorName() string {
	if j.MapOperator != "" {
		return j.MapOperator
	}
	return "map"
}

// reduceOperatorName returns the reduce phase's operator label for spans.
func (j *Job) reduceOperatorName() string {
	if j.ReduceOperator != "" {
		return j.ReduceOperator
	}
	return "reduce"
}

// Metrics records the measured volumes of one executed job, before cost
// modelling.
type Metrics struct {
	// Job is the executed job's name.
	Job string
	// MapOnly reports whether the job ran without a reduce phase.
	MapOnly bool

	MapInputRecords  int64 // records read by mappers
	MapInputBytes    int64 // uncompressed logical bytes read
	MapStoredBytes   int64 // stored (compressed) bytes read
	SideInputBytes   int64 // stored bytes of broadcast side inputs
	MapEmitRecords   int64 // emitted by mappers, before combining
	MapOutputRecords int64 // after combining; what is shuffled
	MapOutputBytes   int64 // after combining; what is shuffled

	// SpillRuns counts the sorted spill runs map tasks wrote when buffered
	// output crossed ClusterConfig.SpillThresholdBytes (0 when spilling is
	// disabled or never triggered).
	SpillRuns int64
	// SpillRecords counts the key/value pairs written to spill runs.
	SpillRecords int64
	// SpillBytes counts the logical key+value bytes written to spill runs.
	SpillBytes int64

	ReduceGroups  int64 // distinct reduce keys
	OutputRecords int64 // records written to the DFS
	OutputBytes   int64 // uncompressed logical bytes written
	// OutputStoredBytes is the output's stored size, logical bytes times
	// its compression ratio: what the cost model charges for the write.
	// The output lives in the FS's in-memory registry on either backend,
	// so no backend holds these bytes.
	OutputStoredBytes int64

	SimulatedMapTasks int     // from the cost model's block math
	SimulatedRedTasks int     // reduce tasks the cost model schedules
	SimSeconds        float64 // the cost model's cluster-time estimate

	// Measured wall-clock time per execution phase, in nanoseconds. These
	// describe the in-process run on this machine (not the simulated
	// cluster) and vary run to run; every other field is deterministic.
	MapWallNs         int64 // map tasks, incl. combiners (and output write for map-only jobs)
	ShuffleSortWallNs int64 // per partition: spill read-back, run sort and merge
	ReduceWallNs      int64 // reducers + output write
}

// Volumes returns a copy of m with the wall-clock phase timings zeroed:
// the deterministic volume fields that must be identical between
// sequential and parallel execution of the same job.
func (m *Metrics) Volumes() Metrics {
	v := *m
	v.MapWallNs = 0
	v.ShuffleSortWallNs = 0
	v.ReduceWallNs = 0
	return v
}

// WorkflowMetrics aggregates a multi-job workflow.
type WorkflowMetrics struct {
	// Jobs holds one Metrics per executed job, in execution order.
	Jobs []*Metrics
}

// Cycles returns the number of MR cycles (jobs).
func (w *WorkflowMetrics) Cycles() int { return len(w.Jobs) }

// MapOnlyCycles returns how many cycles were map-only.
func (w *WorkflowMetrics) MapOnlyCycles() int {
	n := 0
	for _, m := range w.Jobs {
		if m.MapOnly {
			n++
		}
	}
	return n
}

// SimSeconds returns the total simulated time of the workflow (jobs run
// sequentially, as Hadoop chains them).
func (w *WorkflowMetrics) SimSeconds() float64 {
	var t float64
	for _, m := range w.Jobs {
		t += m.SimSeconds
	}
	return t
}

// ShuffleBytes returns the total bytes shuffled across all cycles.
func (w *WorkflowMetrics) ShuffleBytes() int64 {
	var b int64
	for _, m := range w.Jobs {
		if !m.MapOnly {
			b += m.MapOutputBytes
		}
	}
	return b
}

// PhaseWalls returns the workflow's total measured wall-clock time spent in
// the map, shuffle-sort and reduce phases, in nanoseconds.
func (w *WorkflowMetrics) PhaseWalls() (mapNs, shuffleSortNs, reduceNs int64) {
	for _, m := range w.Jobs {
		mapNs += m.MapWallNs
		shuffleSortNs += m.ShuffleSortWallNs
		reduceNs += m.ReduceWallNs
	}
	return mapNs, shuffleSortNs, reduceNs
}

// MaterializedBytes returns the total uncompressed bytes written to the DFS
// across all cycles — the paper's intermediate-result materialisation cost
// (the quantity that blew past HDFS capacity for naive Hive on MG13).
func (w *WorkflowMetrics) MaterializedBytes() int64 {
	var b int64
	for _, m := range w.Jobs {
		b += m.OutputBytes
	}
	return b
}

// Cluster executes jobs against a DFS under a cost-model configuration.
// A cluster may be bound to a context with WithContext; the zero binding
// never cancels.
type Cluster struct {
	// FS is the simulated distributed file system jobs read and write.
	FS *dfs.FS
	// Config is the cost model's deployment configuration.
	Config ClusterConfig

	ctx context.Context
	// free is the cluster's free list of task scratch, made with the
	// cluster and shared by its WithContext copies, so it lives as long as
	// the cluster: for a Store, as long as one load.
	free *freeList
	// testWorkers, when positive, replaces maxParallel as the size of the
	// map and shuffle/reduce pools. Only this package's determinism tests
	// assign it, to sweep worker counts the host's CPU count cannot reach.
	testWorkers int
	// testSpillHighWater, when non-nil, is raised to the high-water mark
	// of a spilling map task's arena bytes (its shuffle output since the
	// last spill) at record boundaries. Only this package's spill tests
	// assign it, to assert the spill path bounds resident shuffle memory.
	testSpillHighWater *atomic.Int64
}

// NewCluster returns a cluster over a fresh file system of the backend
// dfs.Resolve picks from the environment. A backend that cannot be set up
// panics rather than silently falling back, so CI legs running the suite
// against disk cannot pass vacuously.
func NewCluster(cfg ClusterConfig) *Cluster {
	fs, err := dfs.Resolve("", "")
	if err != nil {
		panic("mapred: " + err.Error())
	}
	return NewClusterFS(cfg, fs)
}

// NewClusterFS returns a cluster over the given file system.
func NewClusterFS(cfg ClusterConfig, fs *dfs.FS) *Cluster {
	return &Cluster{FS: fs, Config: cfg, free: newFreeList()}
}
