package mapred

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/vec"
)

// kv is a key/value pair in flight between map and reduce.
type kv struct {
	key   string
	value []byte
}

// split is one map task's slice of an input file: a [start, start+n)
// record range read back through the file's streaming iterator, so the
// records are never materialised ahead of the task that consumes them.
type split struct {
	f     *dfs.File
	file  string
	start int
	n     int
	bytes int64
}

// DefaultPartitions is the reduce partition count used when a job does not
// set one.
const DefaultPartitions = 4

// errSiblingAborted marks tasks skipped or interrupted because a sibling
// task in the same phase already failed. It is an internal sentinel: Run
// always reports the originating failure, never this error.
var errSiblingAborted = errors.New("mapred: sibling task failed")

// abortSignal fans a first-failure signal out to sibling tasks: the first
// trip closes the channel, every task polls it between records.
type abortSignal struct {
	once sync.Once
	ch   chan struct{}
}

func newAbortSignal() *abortSignal { return &abortSignal{ch: make(chan struct{})} }

func (a *abortSignal) trip() { a.once.Do(func() { close(a.ch) }) }

func (a *abortSignal) aborted() bool {
	select {
	case <-a.ch:
		return true
	default:
		return false
	}
}

// taskResult is one map task's partitioned output: the in-memory buffers
// plus, when the task spilled, the per-partition spill runs in emission
// order.
type taskResult struct {
	parts  [][]kv
	spills [][]spillRef
	emits  int64

	spillRuns    int64
	spillRecords int64
	spillBytes   int64

	err error
}

// partState carries one reduce partition through shuffle-sort and reduce:
// the sorted key groups, the reducer output buffered as sealed record
// batches, and the partition's share of the volume metrics, merged into
// Metrics in partition order so parallel execution is indistinguishable
// from sequential.
type partState struct {
	groups  []group
	batches []*vec.Batch

	mapOutRecords int64
	mapOutBytes   int64
	reduceGroups  int64
	outputRecords int64
	outputBytes   int64
	err           error
}

// Run executes one job and returns its metrics (with SimSeconds filled in
// from the cluster's cost model). Map tasks run on a bounded worker pool;
// the shuffle-sort and reduce phases run one bounded worker pool over the
// reduce partitions. Determinism is preserved end to end: each partition's
// buffers are concatenated in map-task order (spill runs merge stably in
// the same order), the shuffle sort is stable, and partition outputs are
// written to the DFS in partition order — so output bytes, record order
// and all volume metrics are identical whether the phases run on one
// worker or many, and identical across storage backends.
func (c *Cluster) Run(job *Job) (metrics *Metrics, err error) {
	if err := c.err(); err != nil {
		return nil, fmt.Errorf("mapred: job %s aborted: %w", job.Name, err)
	}
	// cycle is nil when the binding context carries no trace span, which
	// makes every span call below a no-op; sites that format span names or
	// create per-task children guard on the parent to stay allocation-free.
	cycle := obs.FromContext(c.Context()).StartChild(obs.KindCycle, job.Name)
	defer cycle.End()
	m := &Metrics{Job: job.Name, MapOnly: job.MapOnly()}
	splits, inputs, err := c.makeSplits(job, m)
	if err != nil {
		return nil, err
	}
	defer closeFiles(inputs)
	side, err := c.loadSideInputs(job, m)
	if err != nil {
		return nil, err
	}
	if c.Config.SpillThresholdBytes > 0 && !job.MapOnly() {
		// A failed spill delete leaks backend storage; it fails the job
		// unless the job already failed for a more fundamental reason.
		defer func() {
			if cerr := c.cleanupSpills(job.Output); cerr != nil && err == nil {
				metrics = nil
				err = fmt.Errorf("%w: job %s: %w", ErrSpillCleanup, job.Name, cerr)
			}
		}()
	}

	partitions := job.Partitions
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	if job.MapOnly() {
		partitions = 1
	}

	var mapPhase, mapOp *obs.Span
	if cycle != nil {
		mapPhase = cycle.StartChild(obs.KindPhase, "map")
		mapPhase.AddRecords(m.MapInputRecords)
		mapPhase.AddBytes(m.MapInputBytes)
		mapOp = mapPhase.StartChild(obs.KindOperator, job.mapOperatorName())
	}
	results, mapWall, err := c.runMapPhase(job, splits, side, partitions, mapOp)
	m.MapWallNs = mapWall.Nanoseconds()
	if cerr := c.err(); cerr != nil {
		return nil, fmt.Errorf("mapred: job %s aborted before shuffle: %w", job.Name, cerr)
	}
	if err != nil {
		return nil, err
	}
	for i := range results {
		m.MapEmitRecords += results[i].emits
		m.SpillRuns += results[i].spillRuns
		m.SpillRecords += results[i].spillRecords
		m.SpillBytes += results[i].spillBytes
	}
	mapOp.AddRecords(m.MapEmitRecords)
	mapOp.EndWith(mapWall)

	ratio := job.OutputCompression
	if ratio <= 0 || ratio > 1 {
		ratio = 1
	}
	if job.MapOnly() {
		// Map-only output is written directly from the (single-partition)
		// map buffers in task order, as Hadoop map tasks would; the write is
		// part of the map phase, there is no shuffle or reduce.
		wstart := time.Now()
		out, ioSpan, err := c.createOutput(job, ratio, cycle)
		if err != nil {
			return nil, err
		}
		werr := func() error {
			for i := range results {
				for ri, e := range results[i].parts[0] {
					if ri%ctxCheckInterval == 0 {
						if err := c.err(); err != nil {
							return fmt.Errorf("mapred: job %s aborted writing map output: %w", job.Name, err)
						}
					}
					m.MapOutputRecords++
					m.MapOutputBytes += int64(len(e.key) + len(e.value))
					// Emit values are never reused, so they transfer
					// without a copy.
					out.WriteOwned(e.value)
					m.OutputRecords++
					m.OutputBytes += int64(len(e.value))
				}
			}
			return nil
		}()
		ioSpan.End()
		if cerr := out.Close(); werr == nil && cerr != nil {
			werr = fmt.Errorf("mapred: job %s: %w", job.Name, cerr)
		}
		if werr != nil {
			return nil, werr
		}
		m.OutputStoredBytes = out.StoredBytes()
		m.noteStreamed(out)
		m.MapWallNs += time.Since(wstart).Nanoseconds()
		mapPhase.EndWith(time.Duration(m.MapWallNs))
		cycle.AddRecords(m.OutputRecords)
		cycle.AddBytes(m.OutputBytes)
		c.Config.cost(m)
		return m, nil
	}
	mapPhase.EndWith(time.Duration(m.MapWallNs))

	states := make([]partState, partitions)
	workers := c.reduceWorkers(partitions)
	anySpill := false
	for i := range results {
		if results[i].spillRuns > 0 {
			anySpill = true
			break
		}
	}

	// Shuffle-sort: concatenate each partition's slices in map-task order
	// and sort-group them (or, when tasks spilled, stable-merge the spill
	// runs and in-memory remainders in the same order), one partition per
	// worker. The cancellation check runs before each partition's sort, so
	// a cancelled query never enters an unbounded sort over a hot
	// partition.
	shufflePhase := cycle.StartChild(obs.KindPhase, "shuffle-sort")
	shuffleStart := time.Now()
	runPartitions(workers, partitions, func(p int) {
		st := &states[p]
		var pspan *obs.Span
		if shufflePhase != nil {
			pspan = shufflePhase.StartChild(obs.KindTask, fmt.Sprintf("part-%d", p))
		}
		if err := c.err(); err != nil {
			st.err = err
			return
		}
		if anySpill {
			c.mergeSpilled(results, p, st, pspan)
		} else {
			n := 0
			for i := range results {
				n += len(results[i].parts[p])
			}
			buf := make([]kv, 0, n)
			for i := range results {
				buf = append(buf, results[i].parts[p]...)
			}
			for _, e := range buf {
				st.mapOutRecords++
				st.mapOutBytes += int64(len(e.key) + len(e.value))
			}
			st.groups = sortAndGroup(buf)
		}
		if pspan != nil {
			pspan.AddRecords(st.mapOutRecords)
			pspan.AddBytes(st.mapOutBytes)
			pspan.End()
		}
	})
	m.ShuffleSortWallNs = time.Since(shuffleStart).Nanoseconds()
	for p := range states {
		if states[p].err != nil {
			return nil, fmt.Errorf("mapred: job %s aborted in shuffle: %w", job.Name, states[p].err)
		}
		m.MapOutputRecords += states[p].mapOutRecords
		m.MapOutputBytes += states[p].mapOutBytes
	}
	shufflePhase.AddRecords(m.MapOutputRecords)
	shufflePhase.AddBytes(m.MapOutputBytes)
	shufflePhase.EndWith(time.Duration(m.ShuffleSortWallNs))

	// Reduce: each partition's reducer runs independently, buffering its
	// output; a failed or cancelled partition trips its siblings.
	var reducePhase, reduceOp *obs.Span
	if cycle != nil {
		reducePhase = cycle.StartChild(obs.KindPhase, "reduce")
		reduceOp = reducePhase.StartChild(obs.KindOperator, job.reduceOperatorName())
	}
	reduceStart := time.Now()
	abort := newAbortSignal()
	runPartitions(workers, partitions, func(p int) {
		st := &states[p]
		var pspan *obs.Span
		if reduceOp != nil {
			pspan = reduceOp.StartChild(obs.KindTask, fmt.Sprintf("part-%d", p))
		}
		if err := c.reducePartition(job, st, abort); err != nil {
			st.err = err
			if !errors.Is(err, errSiblingAborted) {
				abort.trip()
			}
		}
		if pspan != nil {
			pspan.AddRecords(st.outputRecords)
			pspan.AddBytes(st.outputBytes)
			pspan.End()
		}
	})
	reduceOp.End()
	if err := c.err(); err != nil {
		return nil, fmt.Errorf("mapred: job %s aborted in reduce: %w", job.Name, err)
	}
	for p := range states {
		if err := states[p].err; err != nil && !errors.Is(err, errSiblingAborted) {
			return nil, fmt.Errorf("mapred: job %s: %w", job.Name, err)
		}
	}

	// Commit buffered partition outputs in partition order — the byte
	// stream a single sequential reducer loop would have produced — one
	// sealed batch at a time.
	out, ioSpan, err := c.createOutput(job, ratio, cycle)
	if err != nil {
		return nil, err
	}
	werr := func() error {
		for p := range states {
			st := &states[p]
			// Each batch holds at most vec.DefaultBatchRows
			// (~ctxCheckInterval) records, so a per-batch poll matches the
			// record loops' cancellation density.
			for _, b := range st.batches {
				if err := c.err(); err != nil {
					return fmt.Errorf("mapred: job %s aborted writing reduce output: %w", job.Name, err)
				}
				out.WriteBatch(b)
			}
			m.ReduceGroups += st.reduceGroups
			m.OutputRecords += st.outputRecords
			m.OutputBytes += st.outputBytes
		}
		return nil
	}()
	ioSpan.End()
	if cerr := out.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("mapred: job %s: %w", job.Name, cerr)
	}
	if werr != nil {
		return nil, werr
	}
	m.OutputStoredBytes = out.StoredBytes()
	m.noteStreamed(out)
	m.ReduceWallNs = time.Since(reduceStart).Nanoseconds()
	reduceOp.AddRecords(m.ReduceGroups)
	reducePhase.AddRecords(m.OutputRecords)
	reducePhase.AddBytes(m.OutputBytes)
	reducePhase.EndWith(time.Duration(m.ReduceWallNs))
	cycle.AddRecords(m.OutputRecords)
	cycle.AddBytes(m.OutputBytes)
	c.Config.cost(m)
	return m, nil
}

// mergeSpilled builds one partition's groups by stable-merging every map
// task's spill runs and in-memory remainder in emission order. Spill reads
// get their own io span under the partition's shuffle span.
func (c *Cluster) mergeSpilled(results []taskResult, p int, st *partState, pspan *obs.Span) {
	var rspan *obs.Span
	if pspan != nil {
		rspan = pspan.StartChild(obs.KindIO, "spill-read")
	}
	var srcs []kvSource
	var spillRecs, spillBytes int64
	for i := range results {
		for _, ref := range results[i].spills[p] {
			src, err := newSpillKVSource(c.FS, ref)
			if err != nil {
				st.err = err
				rspan.End()
				return
			}
			srcs = append(srcs, src)
			spillRecs += ref.records
			spillBytes += ref.bytes
		}
		if len(results[i].parts[p]) > 0 {
			buf := results[i].parts[p]
			sortStableByKey(buf)
			srcs = append(srcs, &memKVSource{kvs: buf})
		}
	}
	groups, records, bytes, err := mergePartition(srcs, c.err)
	if err != nil {
		st.err = err
		rspan.End()
		return
	}
	rspan.AddRecords(spillRecs)
	rspan.AddBytes(spillBytes)
	rspan.End()
	st.groups = groups
	st.mapOutRecords = records
	st.mapOutBytes = bytes
}

// runMapPhase executes every split on a pool of maxParallel workers pulling
// from a shared channel, so fan-out stays bounded no matter how many splits
// the input carves into. The first task failure trips the abort signal;
// queued tasks are skipped and in-flight siblings stop at their next record
// check. The returned error is the lowest-indexed task's genuine failure.
// When mapOp is non-nil each task attaches a child span recording the
// split's input volume; when nil the loop takes the span-free path.
func (c *Cluster) runMapPhase(job *Job, splits []split, side map[string][][]byte, partitions int, mapOp *obs.Span) ([]taskResult, time.Duration, error) {
	start := time.Now()
	results := make([]taskResult, len(splits))
	abort := newAbortSignal()
	workers := maxParallel()
	if workers > len(splits) {
		workers = len(splits)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if abort.aborted() {
					results[i].err = errSiblingAborted
					continue
				}
				var tspan *obs.Span
				if mapOp != nil {
					tspan = mapOp.StartChild(obs.KindTask, fmt.Sprintf("task-%d", i))
					tspan.AddRecords(int64(splits[i].n))
					tspan.AddBytes(splits[i].bytes)
				}
				res, err := c.runMapTask(job, i, splits[i], side, partitions, abort, tspan)
				res.err = err
				results[i] = res
				tspan.End()
				if err != nil {
					abort.trip()
				}
			}
		}()
	}
	for i := range splits {
		idx <- i
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(start)
	for i := range results {
		if err := results[i].err; err != nil && !errors.Is(err, errSiblingAborted) {
			return nil, elapsed, fmt.Errorf("mapred: job %s map task %d: %w", job.Name, i, err)
		}
	}
	return results, elapsed, nil
}

// reducePartition sorts nothing (the groups are prepared by the shuffle
// phase); it runs the reducer over one partition's groups, buffering output
// records as sealed batches and volume counts into st.
func (c *Cluster) reducePartition(job *Job, st *partState, abort *abortSignal) error {
	if err := c.err(); err != nil {
		return err
	}
	if abort.aborted() {
		return errSiblingAborted
	}
	bu := vec.NewBuilder(vec.DefaultBatchRows)
	red := job.NewReducer()
	for gi, g := range st.groups {
		if gi%ctxCheckInterval == 0 {
			if err := c.err(); err != nil {
				return err
			}
			if abort.aborted() {
				return errSiblingAborted
			}
		}
		st.reduceGroups++
		err := red.Reduce(g.key, g.values, func(_ string, value []byte) {
			// Reducers may reuse the emitted slice and the write to the DFS
			// happens only after every partition finishes; the builder
			// copies the value into its arena.
			if b := bu.Append(value); b != nil {
				st.batches = append(st.batches, b)
			}
			st.outputRecords++
			st.outputBytes += int64(len(value))
		})
		if err != nil {
			return fmt.Errorf("reduce key %q: %w", g.key, err)
		}
	}
	if b := bu.Flush(); b != nil {
		st.batches = append(st.batches, b)
	}
	return nil
}

// streamOverflowBytes is the overflow threshold of streamed outputs: a stream
// whose buffered logical bytes reach it demotes to a backend file, and the
// output materialises after all (PR 6's spill machinery as the overflow
// path).
const streamOverflowBytes = 64 << 20

// createOutput opens the job's output writer — a stream when the job
// marked its output StreamOutput, else a backend file — with an io span
// under cycle named for the destination.
func (c *Cluster) createOutput(job *Job, ratio float64, cycle *obs.Span) (*dfs.Writer, *obs.Span, error) {
	var out *dfs.Writer
	var err error
	span := "dfs-write"
	if job.StreamOutput {
		spill := int64(streamOverflowBytes)
		if c.testStreamOverflowBytes > 0 {
			spill = c.testStreamOverflowBytes
		}
		out, err = c.FS.CreateStream(job.Output, ratio, spill)
		span = "stream-write"
	} else {
		out, err = c.FS.Create(job.Output, ratio)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("mapred: job %s: %w", job.Name, err)
	}
	ioSpan := cycle.StartChild(obs.KindIO, span)
	out.SetSpan(ioSpan)
	return out, ioSpan, nil
}

// noteStreamed records whether the job's output stayed in the stream
// registry (after Close, so overflow demotions are final).
func (m *Metrics) noteStreamed(out *dfs.Writer) {
	m.StreamedBatches = out.StreamedBatches()
	if m.StreamedBatches > 0 {
		m.StreamedRecords = m.OutputRecords
	}
}

// runPartitions applies f to every partition index on a pool of workers.
// With one worker it degenerates to the sequential loop, which parallel
// execution must be byte-for-byte indistinguishable from.
func runPartitions(workers, partitions int, f func(p int)) {
	if workers <= 1 {
		for p := 0; p < partitions; p++ {
			f(p)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				f(p)
			}
		}()
	}
	for p := 0; p < partitions; p++ {
		next <- p
	}
	close(next)
	wg.Wait()
}

// reduceWorkers sizes the shuffle/reduce worker pool like the map pool: one
// worker per CPU, never more than there are partitions.
func (c *Cluster) reduceWorkers(partitions int) int {
	n := maxParallel()
	if c.testReduceWorkers > 0 {
		n = c.testReduceWorkers
	}
	return min(n, partitions)
}

// RunWorkflow executes jobs sequentially, stopping at the first error or
// when the cluster's bound context is cancelled between cycles.
func (c *Cluster) RunWorkflow(jobs []*Job) (*WorkflowMetrics, error) {
	wm := &WorkflowMetrics{}
	for _, j := range jobs {
		m, err := c.Run(j)
		if err != nil {
			return wm, err
		}
		wm.Jobs = append(wm.Jobs, m)
	}
	return wm, nil
}

func maxParallel() int {
	n := runtime.NumCPU()
	if n < 2 {
		return 2
	}
	return n
}

// closeFiles releases the input snapshots a job's splits read from.
func closeFiles(files []*dfs.File) {
	for _, f := range files {
		f.Close()
	}
}

// makeSplits carves each input file into block-sized splits and accounts
// input volumes. Splits reference record ranges of the returned open file
// snapshots (closed by the caller after the map phase); carving walks the
// file's iterator once, so split boundaries are identical on every backend.
func (c *Cluster) makeSplits(job *Job, m *Metrics) ([]split, []*dfs.File, error) {
	blockSize := c.Config.ExecSplitBytes
	if blockSize <= 0 {
		blockSize = 4 << 20
	}
	var splits []split
	var files []*dfs.File
	for _, name := range job.Inputs {
		f, err := c.FS.Open(name)
		if err != nil {
			return nil, files, fmt.Errorf("mapred: job %s: %w", job.Name, err)
		}
		files = append(files, f)
		m.MapInputRecords += int64(f.NumRecords())
		m.MapInputBytes += f.Bytes()
		m.MapStoredBytes += f.StoredBytes()
		it := f.Records(0)
		idx := 0
		cur := split{f: f, file: name}
		for it.Next() {
			cur.n++
			cur.bytes += int64(len(it.Record()))
			idx++
			if cur.bytes >= blockSize {
				splits = append(splits, cur)
				cur = split{f: f, file: name, start: idx}
			}
		}
		if err := it.Err(); err != nil {
			return nil, files, fmt.Errorf("mapred: job %s reading %s: %w", job.Name, name, err)
		}
		if cur.n > 0 || f.NumRecords() == 0 {
			splits = append(splits, cur)
		}
	}
	return splits, files, nil
}

// loadSideInputs materialises broadcast side inputs (map-join hash-table
// sources must be wholly resident in every task, as in Hadoop's
// distributed cache).
func (c *Cluster) loadSideInputs(job *Job, m *Metrics) (map[string][][]byte, error) {
	if len(job.SideInputs) == 0 {
		return nil, nil
	}
	side := make(map[string][][]byte, len(job.SideInputs))
	for _, name := range job.SideInputs {
		f, err := c.FS.Open(name)
		if err != nil {
			return nil, fmt.Errorf("mapred: job %s side input: %w", job.Name, err)
		}
		recs, err := f.AllRecords()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("mapred: job %s side input %s: %w", job.Name, name, err)
		}
		side[name] = recs
		m.SideInputBytes += f.StoredBytes()
	}
	return side, nil
}

// runMapTask runs one mapper over a split's record range, partitions its
// output, and applies the combiner locally. When spilling is enabled and
// the buffered output reaches the threshold, each partition's buffer is
// combined, sorted and written out as a spill run. check covers both
// context cancellation and sibling-task failure, and is consulted between
// records and inside the combiner.
func (c *Cluster) runMapTask(job *Job, taskIdx int, sp split, side map[string][][]byte, partitions int, abort *abortSignal, tspan *obs.Span) (taskResult, error) {
	check := func() error {
		if err := c.err(); err != nil {
			return err
		}
		if abort.aborted() {
			return errSiblingAborted
		}
		return nil
	}
	tc := &TaskContext{InputFile: sp.file, sideData: side}
	mapper := job.NewMapper(tc)
	parts := make([][]kv, partitions)
	var res taskResult
	threshold := c.Config.SpillThresholdBytes
	canSpill := threshold > 0 && !job.MapOnly()
	var buffered, maxBuffered int64
	var spillRunIdx int
	if canSpill {
		res.spills = make([][]spillRef, partitions)
	}
	spill := func() error {
		for p := range parts {
			if len(parts[p]) == 0 {
				continue
			}
			run := parts[p]
			parts[p] = nil
			if job.NewCombiner != nil {
				combined, err := combine(job.NewCombiner(), run, partitions, p, check)
				if err != nil {
					return err
				}
				run = combined
			}
			sortStableByKey(run)
			ref, err := c.writeSpillRun(spillRunName(job.Output, taskIdx, spillRunIdx, p), run, tspan, check)
			if err != nil {
				return err
			}
			res.spills[p] = append(res.spills[p], ref)
			res.spillRuns++
			res.spillRecords += ref.records
			res.spillBytes += ref.bytes
		}
		spillRunIdx++
		buffered = 0
		return nil
	}
	emit := func(key string, value []byte) {
		res.emits++
		p := 0
		if partitions > 1 {
			p = partitionOf(key, partitions)
		}
		parts[p] = append(parts[p], kv{key: key, value: value})
		buffered += int64(len(key) + len(value))
	}
	// maybeSpill runs at record boundaries (a single record's emits may
	// overshoot the threshold, bounding the overshoot to one record).
	maybeSpill := func() error {
		if !canSpill {
			return nil
		}
		if buffered > maxBuffered {
			maxBuffered = buffered
		}
		if buffered >= threshold {
			return spill()
		}
		return nil
	}
	var it dfs.RecordIterator
	if c.Scans != nil {
		it = c.Scans.Scan(sp.file, sp.start, sp.n)
	}
	if it == nil {
		it = sp.f.Records(sp.start)
	}
	ri := 0
	for ; ri < sp.n && it.Next(); ri++ {
		if ri%ctxCheckInterval == 0 {
			if err := check(); err != nil {
				return res, err
			}
		}
		if err := mapper.Map(it.Record(), emit); err != nil {
			return res, err
		}
		if err := maybeSpill(); err != nil {
			return res, err
		}
	}
	if err := it.Err(); err != nil {
		return res, fmt.Errorf("reading %s: %w", sp.file, err)
	}
	if ri < sp.n {
		return res, fmt.Errorf("mapred: input %s truncated: split wants %d records from %d, read %d", sp.file, sp.n, sp.start, ri)
	}
	if shared, ok := it.(interface{ Shared() bool }); ok && shared.Shared() {
		// The input pass was shared with concurrent queries; tag the task
		// so traces show where cross-query scan sharing kicked in.
		span := tspan.StartChild(obs.KindIO, "shared-scan")
		span.AddRecords(int64(ri))
		span.End()
	}
	if closer, ok := mapper.(MapCloser); ok {
		if err := closer.Close(emit); err != nil {
			return res, err
		}
		if err := maybeSpill(); err != nil {
			return res, err
		}
	}
	if canSpill {
		noteSpillHighWater(maxBuffered)
	}
	if job.NewCombiner != nil && !job.MapOnly() {
		for p := range parts {
			combined, err := combine(job.NewCombiner(), parts[p], partitions, p, check)
			if err != nil {
				return res, err
			}
			parts[p] = combined
		}
	}
	res.parts = parts
	return res, nil
}

// combine runs the combiner over one partition of a map task's output. The
// check hook runs before the sort and between groups, so cancellation never
// stalls in a combiner over a hot key.
func combine(comb Reducer, in []kv, partitions, p int, check func() error) ([]kv, error) {
	if err := check(); err != nil {
		return nil, err
	}
	groups := sortAndGroup(in)
	var out []kv
	for gi, g := range groups {
		if gi%ctxCheckInterval == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		err := comb.Reduce(g.key, g.values, func(key string, value []byte) {
			out = append(out, kv{key: key, value: value})
		})
		if err != nil {
			return nil, err
		}
	}
	// Combiner output must stay in its partition; re-partitioning is not
	// allowed (keys must be preserved or at least co-partitioned).
	for ei, e := range out {
		if ei%ctxCheckInterval == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		if partitions > 1 && partitionOf(e.key, partitions) != p {
			return nil, fmt.Errorf("mapred: combiner moved key %q across partitions", e.key)
		}
	}
	return out, nil
}

type group struct {
	key    string
	values [][]byte
}

// sortAndGroup sorts key/value pairs by key (stable, preserving map-task
// emission order within a key) and groups equal keys.
func sortAndGroup(in []kv) []group {
	sortStableByKey(in)
	var groups []group
	for i := 0; i < len(in); {
		j := i + 1
		for j < len(in) && in[j].key == in[i].key {
			j++
		}
		g := group{key: in[i].key, values: make([][]byte, j-i)}
		for k := range g.values {
			g.values[k] = in[i+k].value
		}
		groups = append(groups, g)
		i = j
	}
	return groups
}

// FNV-1a constants (hash/fnv), inlined so the per-emit hot path hashes
// without allocating a hash.Hash32.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// partitionOf assigns a key to a reduce partition with an inline FNV-1a
// hash — identical to fnv.New32a over the key bytes, but zero-alloc.
//
//rapid:hot
func partitionOf(key string, partitions int) int {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return int(h % uint32(partitions))
}
