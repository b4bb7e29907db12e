// Package mapred is an in-process MapReduce engine modelled on Hadoop: jobs
// read record files from a dfs.FS, run parallel map tasks over block-sized
// input splits, partition and sort map output by key, optionally combine,
// reduce, and materialise output back to the DFS. Every executed job yields
// exact volume metrics (records and bytes read, shuffled and written), and a
// calibrated cost model converts those volumes into simulated cluster
// seconds for a configurable cluster — the substitute for the paper's
// 10–60-node Hadoop deployments.
package mapred

import (
	"context"
	"os"
	"strconv"

	"rapidanalytics/internal/dfs"
)

// Emit is the output callback handed to mappers, combiners and reducers.
// A mapper's or combiner's value is retained until the shuffle (never
// mutated), so each emit needs a slice of its own; a reducer's value is
// copied before Emit returns, so a reducer may reuse one buffer.
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
type Reducer interface {
	Reduce(key string, values [][]byte, emit Emit) error
}

// TaskContext gives a map task access to its environment: which input file
// its split came from, and any broadcast side inputs (the in-memory hash
// tables of Hive map-joins).
type TaskContext struct {
	// InputFile is the DFS file the task's split belongs to.
	InputFile string
	sideData  map[string][][]byte
}

// SideInput returns the records of a broadcast side input file.
func (tc *TaskContext) SideInput(name string) [][]byte { return tc.sideData[name] }

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
	// StreamOutput marks the job's output as safe to stream, and is the
	// only thing that decides whether it does: the output stays in the DFS
	// stream registry (dfs.CreateStream) as record batches instead of
	// materialising, because every consumer runs in the same job chain. A
	// stream whose buffered bytes reach 64 MiB overflows into a backend
	// file after all. Output bytes, record order and every volume metric
	// but the Streamed* counters are identical either way. Leave false for
	// checkpointed or multi-consumer outputs and for files later rewritten
	// in place — those need the real DFS boundary.
	StreamOutput bool
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

	ReduceGroups      int64 // distinct reduce keys
	OutputRecords     int64 // records written to the DFS
	OutputBytes       int64 // uncompressed logical bytes written
	OutputStoredBytes int64 // stored bytes written (notional for streamed output)

	// StreamedRecords counts output records that stayed in the stream
	// registry rather than materialising: equal to OutputRecords when the
	// job streamed, 0 when it wrote a backend file (job not marked
	// StreamOutput, or the stream overflowed to the backend). Like every
	// volume field it is deterministic for a given configuration.
	StreamedRecords int64
	// StreamedBatches counts the record batches committed to the live
	// stream (0 after an overflow).
	StreamedBatches   int64
	SimulatedMapTasks int     // from the cost model's block math
	SimulatedRedTasks int     // reduce tasks the cost model schedules
	SimSeconds        float64 // the cost model's cluster-time estimate

	// Measured wall-clock time per execution phase, in nanoseconds. These
	// describe the in-process run on this machine (not the simulated
	// cluster) and vary run to run; every other field is deterministic.
	MapWallNs         int64 // map tasks, incl. combiners (and output write for map-only jobs)
	ShuffleSortWallNs int64 // per-partition concatenation + sort-group
	ReduceWallNs      int64 // reducers + output materialisation
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

// StreamedRecords returns the total output records that stayed in the DFS
// stream registry across all cycles (0 when no cycle streamed).
func (w *WorkflowMetrics) StreamedRecords() int64 {
	var n int64
	for _, m := range w.Jobs {
		n += m.StreamedRecords
	}
	return n
}

// StreamedBatches returns the total record batches committed to live
// streams across all cycles.
func (w *WorkflowMetrics) StreamedBatches() int64 {
	var n int64
	for _, m := range w.Jobs {
		n += m.StreamedBatches
	}
	return n
}

// MaterializedStoredBytes returns the stored bytes of outputs that really
// reached the storage backend — the quantity streaming reduces. Streamed
// cycles (StreamedRecords > 0) contribute nothing; their OutputStoredBytes
// is notional.
func (w *WorkflowMetrics) MaterializedStoredBytes() int64 {
	var b int64
	for _, m := range w.Jobs {
		if m.StreamedRecords == 0 {
			b += m.OutputStoredBytes
		}
	}
	return b
}

// ScanProvider intercepts map-task input scans, letting a serving layer
// batch concurrent scans of identical file ranges into shared passes
// (internal/share). Implementations must be safe for concurrent use.
type ScanProvider interface {
	// Scan returns an iterator over records [start, start+n) of the named
	// file, or nil to decline — the task then scans its own file snapshot.
	// A returned iterator may additionally implement `Shared() bool` to
	// report (after iteration) that the pass served multiple consumers;
	// the engine tags such tasks with a shared-scan span.
	Scan(name string, start, n int) dfs.RecordIterator
}

// Cluster executes jobs against a DFS under a cost-model configuration.
// A cluster may be bound to a context with WithContext; the zero binding
// never cancels.
type Cluster struct {
	// FS is the simulated distributed file system jobs read and write.
	FS *dfs.FS
	// Config is the cost model's deployment configuration.
	Config ClusterConfig
	// Scans, when non-nil, is consulted for every map-task input scan;
	// see ScanProvider. Nil preserves the default per-task file iteration.
	Scans ScanProvider

	ctx context.Context
	// testReduceWorkers, when positive, replaces maxParallel as the
	// shuffle/reduce pool size. Only this package's determinism tests
	// assign it, to sweep worker counts the host's CPU count cannot reach.
	testReduceWorkers int
	// testStreamOverflowBytes, when positive, replaces streamOverflowBytes
	// as the overflow threshold of streamed outputs. Only this package's
	// overflow tests assign it.
	testStreamOverflowBytes int64
}

// NewCluster returns a cluster over a fresh file system. The backend is
// in-memory unless the RAPID_STORAGE environment variable selects "disk",
// in which case the DFS lives in a fresh directory under RAPID_DATA_DIR
// (or the OS temp dir) sharded RAPID_SHARDS ways; a disk backend that
// cannot be set up panics rather than silently falling back, so CI legs
// running the suite against disk cannot pass vacuously.
func NewCluster(cfg ClusterConfig) *Cluster {
	return &Cluster{FS: defaultFS(), Config: cfg}
}

// NewClusterFS returns a cluster over the given file system, bypassing the
// RAPID_STORAGE environment default.
func NewClusterFS(cfg ClusterConfig, fs *dfs.FS) *Cluster {
	return &Cluster{FS: fs, Config: cfg}
}

// defaultFS builds the file system NewCluster uses, honoring RAPID_STORAGE.
func defaultFS() *dfs.FS {
	if os.Getenv("RAPID_STORAGE") != "disk" {
		return dfs.New()
	}
	dir, err := os.MkdirTemp(os.Getenv("RAPID_DATA_DIR"), "rapidfs-")
	if err != nil {
		panic("mapred: RAPID_STORAGE=disk: " + err.Error())
	}
	shards := 0
	if s := os.Getenv("RAPID_SHARDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			shards = n
		}
	}
	fs, err := dfs.NewDisk(dir, shards)
	if err != nil {
		panic("mapred: RAPID_STORAGE=disk: " + err.Error())
	}
	return fs
}
