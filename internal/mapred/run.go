package mapred

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/vec"
)

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

// ErrTaskPanic marks a job whose mapper, combiner or reducer panicked. The
// panic is recovered inside its map task or reduce partition, which then
// fails like any other: its siblings abort and Run returns the error, so
// the process survives. The panic's stack is recorded on the task span.
var ErrTaskPanic = errors.New("mapred: task panicked")

// recoverTask runs one map task or reduce partition, turning a panic into
// an ErrTaskPanic error and recording its stack on span.
func recoverTask(span *obs.Span, task func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrTaskPanic, r)
			span.Fail(fmt.Sprintf("%v\n\n%s", err, debug.Stack()))
		}
	}()
	return task()
}

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

// checker returns the poll of a map or reduce task: the bound context's
// error, else errSiblingAborted once a sibling task has failed.
func (c *Cluster) checker(abort *abortSignal) func() error {
	return func() error {
		if err := c.err(); err != nil {
			return err
		}
		if abort.aborted() {
			return errSiblingAborted
		}
		return nil
	}
}

// taskResult is one map task's output. With a reducer it is partitioned:
// the task's arena with one run of entries per partition — sorted when the
// job has a combiner — plus, when the task spilled, the per-partition spill
// runs in emission order. A map-only task's output is its emitted values
// as sealed batches, in emission order, and the byte count of the keys
// they were emitted under.
type taskResult struct {
	arena    *arena
	parts    [][]entry
	spills   [][]spillRef
	batches  []*vec.Batch
	keyBytes int64
	emits    int64

	spillRuns    int64
	spillRecords int64
	spillBytes   int64

	err error
}

// partState carries one reduce partition through shuffle-sort and reduce:
// the merged run and the arenas its entries point into, the reducer output
// buffered as sealed record batches, and the partition's share of the
// volume metrics, merged into Metrics in partition order so parallel
// execution is indistinguishable from sequential.
type partState struct {
	arenas  arenas
	merged  []entry
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
// runs merge stably in map-task order (shuffle.go), and partition outputs
// are written to the DFS in partition order — so output bytes, record
// order and all volume metrics are identical whether the phases run on one
// worker or many, with or without spills, and across storage backends.
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
	// On error too: the files opened before it, and the side inputs that
	// join inputs below.
	defer func() { closeFiles(inputs) }()
	if err != nil {
		return nil, err
	}
	side, err := c.openSideInputs(job, m, &inputs)
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
		// Map-only output is written directly from the map tasks' sealed
		// batches in task order, as Hadoop map tasks would; the write is
		// part of the map phase, there is no shuffle or reduce.
		wstart := time.Now()
		var batches []*vec.Batch
		for i := range results {
			batches = append(batches, results[i].batches...)
			m.MapOutputBytes += results[i].keyBytes
		}
		if err := c.commitOutput(job, ratio, cycle, m, batches); err != nil {
			return nil, err
		}
		m.MapOutputRecords = m.OutputRecords
		m.MapOutputBytes += m.OutputBytes
		m.MapWallNs += time.Since(wstart).Nanoseconds()
		mapPhase.EndWith(time.Duration(m.MapWallNs))
		cycle.AddRecords(m.OutputRecords)
		cycle.AddBytes(m.OutputBytes)
		c.Config.cost(m)
		return m, nil
	}
	mapPhase.EndWith(time.Duration(m.MapWallNs))

	states := make([]partState, partitions)
	workers := c.workers(partitions)

	// Shuffle-sort: read back each partition's spill runs, sort its
	// in-memory runs and merge them all in map-task order, one partition
	// per worker. The cancellation check runs before each partition's
	// sort, so a cancelled query never enters an unbounded sort over a hot
	// partition.
	shufflePhase := cycle.StartChild(obs.KindPhase, "shuffle-sort")
	shuffleStart := time.Now()
	runPool(workers, partitions, func(p int) {
		st := &states[p]
		var pspan *obs.Span
		if shufflePhase != nil {
			pspan = shufflePhase.StartChild(obs.KindTask, fmt.Sprintf("part-%d", p))
		}
		if err := c.err(); err != nil {
			st.err = err
			return
		}
		st.err = c.shufflePartition(job, results, p, st, pspan)
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
	runPool(workers, partitions, func(p int) {
		st := &states[p]
		var pspan *obs.Span
		if reduceOp != nil {
			pspan = reduceOp.StartChild(obs.KindTask, fmt.Sprintf("part-%d", p))
		}
		if err := recoverTask(pspan, func() error { return c.reducePartition(job, st, abort) }); err != nil {
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
	// Commit buffered partition outputs in partition order — the byte
	// stream a single sequential reducer loop would have produced.
	var batches []*vec.Batch
	for p := range states {
		if err := states[p].err; err != nil && !errors.Is(err, errSiblingAborted) {
			return nil, fmt.Errorf("mapred: job %s: %w", job.Name, err)
		}
		batches = append(batches, states[p].batches...)
		m.ReduceGroups += states[p].reduceGroups
	}
	if err := c.commitOutput(job, ratio, cycle, m, batches); err != nil {
		return nil, err
	}
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

// shufflePartition builds partition p's reduce input: each map task's
// spill runs for p, read back into one arena of the partition's own, then
// its in-memory run, sorted unless a combiner left it sorted, all merged in
// that order. Spill reads get their own io span under the partition's
// shuffle span.
func (c *Cluster) shufflePartition(job *Job, results []taskResult, p int, st *partState, pspan *obs.Span) error {
	var runs [][]entry
	var spilled *arena
	var rspan *obs.Span
	var spillRecs, spillBytes int64
	for i := range results {
		var refs []spillRef
		if results[i].spills != nil {
			refs = results[i].spills[p]
		}
		for _, ref := range refs {
			if spilled == nil {
				spilled = &arena{}
				if pspan != nil {
					rspan = pspan.StartChild(obs.KindIO, "spill-read")
				}
			}
			run, err := c.readSpillRun(ref, spilled, c.err)
			if err != nil {
				rspan.End()
				return err
			}
			spillRecs += ref.records
			spillBytes += ref.bytes
			if len(run) > 0 {
				runs = append(runs, run)
				st.arenas = append(st.arenas, spilled)
			}
		}
		if run := results[i].parts[p]; len(run) > 0 {
			if job.NewCombiner == nil {
				results[i].arena.sortRun(run)
			}
			runs = append(runs, run)
			st.arenas = append(st.arenas, results[i].arena)
		}
	}
	rspan.AddRecords(spillRecs)
	rspan.AddBytes(spillBytes)
	rspan.End()
	merged, err := mergeRuns(runs, st.arenas, c.err)
	if err != nil {
		return err
	}
	st.merged = merged
	st.mapOutRecords = int64(len(merged))
	for _, e := range merged {
		st.mapOutBytes += e.size()
	}
	return nil
}

// runMapPhase executes every split on the bounded worker pool (runPool),
// so fan-out stays bounded no matter how many splits the input carves
// into. The first task failure trips the abort signal; queued tasks are
// skipped and in-flight siblings stop at their next record check. The
// returned error is the lowest-indexed task's genuine failure. When mapOp is
// non-nil each task attaches a child span recording the split's input
// volume; when nil the loop takes the span-free path.
func (c *Cluster) runMapPhase(job *Job, splits []split, side map[string]*dfs.File, partitions int, mapOp *obs.Span) ([]taskResult, time.Duration, error) {
	start := time.Now()
	results := make([]taskResult, len(splits))
	abort := newAbortSignal()
	runPool(c.workers(len(splits)), len(splits), func(i int) {
		if abort.aborted() {
			results[i].err = errSiblingAborted
			return
		}
		var tspan *obs.Span
		if mapOp != nil {
			tspan = mapOp.StartChild(obs.KindTask, fmt.Sprintf("task-%d", i))
			tspan.AddRecords(int64(splits[i].n))
			tspan.AddBytes(splits[i].bytes)
		}
		var res taskResult
		err := recoverTask(tspan, func() (err error) {
			res, err = c.runMapTask(job, i, splits[i], side, partitions, abort, tspan)
			return err
		})
		res.err = err
		results[i] = res
		tspan.End()
		if err != nil {
			abort.trip()
		}
	})
	elapsed := time.Since(start)
	for i := range results {
		if err := results[i].err; err != nil && !errors.Is(err, errSiblingAborted) {
			return nil, elapsed, fmt.Errorf("mapred: job %s map task %d: %w", job.Name, i, err)
		}
	}
	return results, elapsed, nil
}

// reducePartition sorts nothing (the merged run is prepared by the
// shuffle phase); it runs the reducer over one partition's key groups,
// buffering output records as sealed batches and volume counts into st.
// Its builder and values scratch come from the cluster's free list.
func (c *Cluster) reducePartition(job *Job, st *partState, abort *abortSignal) error {
	check := c.checker(abort)
	if err := check(); err != nil {
		return err
	}
	bu, values := c.free.builder(), c.free.valueScratch()
	defer func() {
		c.free.putBuilder(bu)
		c.free.putValueScratch(values)
	}()
	groups, err := reduceGroups(job.NewReducer(), st.arenas, st.merged, &values, func(_ string, value []byte) {
		// The write to the DFS happens only after every partition
		// finishes; the builder copies the value into its scratch.
		if b := bu.Append(value); b != nil {
			st.batches = append(st.batches, b)
		}
		st.outputRecords++
		st.outputBytes += int64(len(value))
	}, check)
	st.reduceGroups = groups
	if err != nil {
		return err
	}
	if b := bu.Flush(); b != nil {
		st.batches = append(st.batches, b)
	}
	return nil
}

// commitOutput writes a job's output — the sealed batches of its map tasks
// or reduce partitions, in order — to the FS's in-memory registry under a
// stream-write io span of cycle. It closes the writer and records in m the
// output's records and logical and stored size. A batch holds at most
// vec.DefaultBatchRows (~ctxCheckInterval) records, so a per-batch poll
// matches the record loops' cancellation density.
func (c *Cluster) commitOutput(job *Job, ratio float64, cycle *obs.Span, m *Metrics, batches []*vec.Batch) error {
	out, err := c.FS.CreateStream(job.Output, ratio)
	if err != nil {
		return fmt.Errorf("mapred: job %s: %w", job.Name, err)
	}
	ioSpan := cycle.StartChild(obs.KindIO, "stream-write")
	out.SetSpan(ioSpan)
	var werr error
	for _, b := range batches {
		if err := c.err(); err != nil {
			werr = fmt.Errorf("mapred: job %s aborted writing output: %w", job.Name, err)
			break
		}
		out.WriteBatch(b)
	}
	ioSpan.End()
	if cerr := out.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("mapred: job %s: %w", job.Name, cerr)
	}
	if werr != nil {
		return werr
	}
	m.OutputRecords, m.OutputBytes = out.Records(), out.Bytes()
	m.OutputStoredBytes = out.StoredBytes()
	return nil
}

// runPool applies f to every index in [0, n) — a map task's split or a
// reduce partition — on a pool of workers pulling from a shared channel.
// With one worker it degenerates to the sequential loop, which parallel
// execution must be byte-for-byte indistinguishable from.
func runPool(workers, n int, f func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// workers sizes the worker pool of a phase with tasks tasks (map splits or
// reduce partitions): GOMAXPROCS workers, minimum two, at most one per task.
func (c *Cluster) workers(tasks int) int {
	n := maxParallel()
	if c.testWorkers > 0 {
		n = c.testWorkers
	}
	return min(n, tasks)
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
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

// openSideInputs opens the broadcast side inputs (map-join hash-table
// sources must be wholly resident in every task, as in Hadoop's
// distributed cache). Each task reads the open snapshot in place; the
// files join *open, which the caller closes when the job ends, on every
// path.
func (c *Cluster) openSideInputs(job *Job, m *Metrics, open *[]*dfs.File) (map[string]*dfs.File, error) {
	if len(job.SideInputs) == 0 {
		return nil, nil
	}
	side := make(map[string]*dfs.File, len(job.SideInputs))
	for _, name := range job.SideInputs {
		f, err := c.FS.Open(name)
		if err != nil {
			return nil, fmt.Errorf("mapred: job %s side input: %w", job.Name, err)
		}
		*open = append(*open, f)
		side[name] = f
		m.SideInputBytes += f.StoredBytes()
	}
	return side, nil
}

// runMapTask runs one mapper over a split's record range. A map-only task
// copies every emitted value into sealed batches, the form its output is
// committed in. Otherwise every emit is copied into the task's arena, the
// entries are partitioned and the combiner is applied locally; when
// spilling is enabled and the arena reaches the threshold, each
// partition's run is combined, sorted and written out as a spill run, and
// the task continues with a fresh arena. check covers both context
// cancellation and sibling-task failure, and is consulted between records
// and inside the combiner. A spill or a combiner sorts or combines a
// partition's paged entries in one task scratch. A map-only task takes a
// builder from the cluster's free list, any other task an entry scratch
// and a values scratch; both go back to it when the task ends.
func (c *Cluster) runMapTask(job *Job, taskIdx int, sp split, side map[string]*dfs.File, partitions int, abort *abortSignal, tspan *obs.Span) (taskResult, error) {
	check := c.checker(abort)
	tc := &TaskContext{InputFile: sp.file, sideData: side}
	mapper := job.NewMapper(tc)
	var ar *arena
	var parts []pagedRun
	var scratch []entry
	var values [][]byte
	if !job.MapOnly() {
		scratch, values = c.free.entryScratch(), c.free.valueScratch()
		defer func() {
			c.free.putEntryScratch(scratch)
			c.free.putValueScratch(values)
		}()
	}
	var res taskResult
	threshold := c.Config.SpillThresholdBytes
	canSpill := threshold > 0 && !job.MapOnly()
	var maxBuffered int64
	var spillRunIdx int
	if canSpill {
		res.spills = make([][]spillRef, partitions)
	}
	spill := func() error {
		src := ar
		if job.NewCombiner != nil {
			src = &arena{}
		}
		for p := range parts {
			if parts[p].n == 0 {
				continue
			}
			scratch = parts[p].flatten(scratch[:0], c.free)
			run := scratch
			if job.NewCombiner != nil {
				combined, err := combine(job.NewCombiner(), ar, run, src, c.free, &values, partitions, p, check)
				if err != nil {
					return err
				}
				run = combined
			} else {
				ar.sortRun(run)
			}
			ref, err := c.writeSpillRun(spillRunName(job.Output, taskIdx, spillRunIdx, p), src, run, tspan, check)
			if err != nil {
				return err
			}
			res.spills[p] = append(res.spills[p], ref)
			res.spillRuns++
			res.spillRecords += ref.records
			res.spillBytes += ref.bytes
		}
		spillRunIdx++
		ar = &arena{}
		return nil
	}
	var bu *vec.Builder
	var emit Emit
	if job.MapOnly() {
		bu = c.free.builder()
		defer c.free.putBuilder(bu)
		emit = func(key string, value []byte) {
			res.emits++
			res.keyBytes += int64(len(key))
			if b := bu.Append(value); b != nil {
				res.batches = append(res.batches, b)
			}
		}
	} else {
		ar, parts = &arena{}, make([]pagedRun, partitions)
		emit = func(key string, value []byte) {
			res.emits++
			p := 0
			if partitions > 1 {
				p = partitionOf(key, partitions)
			}
			parts[p].add(ar.add(key, value), c.free)
		}
	}
	// maybeSpill runs at record boundaries (a single record's emits may
	// overshoot the threshold, bounding the overshoot to one record).
	maybeSpill := func() error {
		if !canSpill {
			return nil
		}
		maxBuffered = max(maxBuffered, ar.size)
		if ar.size >= threshold {
			return spill()
		}
		return nil
	}
	it := sp.f.Records(sp.start)
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
	if closer, ok := mapper.(MapCloser); ok {
		if err := closer.Close(emit); err != nil {
			return res, err
		}
		if err := maybeSpill(); err != nil {
			return res, err
		}
	}
	if bu != nil {
		if b := bu.Flush(); b != nil {
			res.batches = append(res.batches, b)
		}
		return res, nil
	}
	if canSpill && c.testSpillHighWater != nil {
		noteHighWater(c.testSpillHighWater, maxBuffered)
	}
	res.arena, res.parts = ar, make([][]entry, partitions)
	if job.NewCombiner != nil {
		// The combined runs go to a fresh arena, so the raw emits are
		// garbage once every partition is combined.
		res.arena = &arena{}
	}
	for p := range parts {
		if job.NewCombiner == nil {
			res.parts[p] = parts[p].flatten(make([]entry, 0, parts[p].n), c.free)
		} else if parts[p].n > 0 {
			scratch = parts[p].flatten(scratch[:0], c.free)
			combined, err := combine(job.NewCombiner(), ar, scratch, res.arena, c.free, &values, partitions, p, check)
			if err != nil {
				return res, err
			}
			res.parts[p] = combined
		}
	}
	return res, nil
}

// FNV-1a constants (hash/fnv), inlined so the per-emit hot path hashes
// without allocating a hash.Hash32.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// partitionOf assigns a key to a reduce partition with an inline FNV-1a
// hash — identical to fnv.New32a over the key bytes, but zero-alloc.
func partitionOf(key string, partitions int) int {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return int(h % uint32(partitions))
}
