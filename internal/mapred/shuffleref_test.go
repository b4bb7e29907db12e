package mapred

import (
	"bytes"
	"container/heap"
	"fmt"
	"slices"
	"strings"
)

// The shuffle before the arena, kept as the reference the arena shuffle is
// compared with (FuzzShuffleMatchesReference): kv pairs holding emitted
// slices, each partition's buffers concatenated in task order and
// stable-sorted, and, once any task spilled, a heap merge of the spill runs
// and in-memory remainders keyed on (key, source order). Spill runs stay in
// memory here; their bytes would be the same.

// kv is a key/value pair in flight between map and reduce.
type kv struct {
	key   string
	value []byte
}

// sortStableByKey sorts kvs by key, preserving emission order within a
// key.
func sortStableByKey(kvs []kv) {
	slices.SortStableFunc(kvs, func(a, b kv) int { return strings.Compare(a.key, b.key) })
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

// refCombine runs the combiner over one partition of a map task's output,
// in combiner emission order. Emits are copied: the combiners under test
// reuse their buffers.
func refCombine(comb Reducer, in []kv, partitions, p int) ([]kv, error) {
	var out []kv
	for _, g := range sortAndGroup(in) {
		err := comb.Reduce(g.key, g.values, func(key string, value []byte) {
			out = append(out, kv{key: strings.Clone(key), value: bytes.Clone(value)})
		})
		if err != nil {
			return nil, err
		}
	}
	for _, e := range out {
		if partitions > 1 && partitionOf(e.key, partitions) != p {
			return nil, fmt.Errorf("mapred: combiner moved key %q across partitions", e.key)
		}
	}
	return out, nil
}

// kvSource streams one sorted run of kv pairs for the shuffle merge.
type kvSource interface {
	// next pops the next pair; ok is false at end of run.
	next() (e kv, ok bool, err error)
}

// memKVSource streams a sorted in-memory buffer.
type memKVSource struct {
	kvs []kv
	i   int
}

func (s *memKVSource) next() (kv, bool, error) {
	if s.i >= len(s.kvs) {
		return kv{}, false, nil
	}
	e := s.kvs[s.i]
	s.i++
	return e, true, nil
}

// kvHeapItem is one source's head pair in the merge heap.
type kvHeapItem struct {
	e   kv
	src int
	s   kvSource
}

// kvHeap orders source heads by (key, source index): the stable-merge
// tie-break that makes the merged stream identical to concatenating the
// sources in order and stable-sorting.
type kvHeap []kvHeapItem

func (h kvHeap) Len() int { return len(h) }
func (h kvHeap) Less(i, j int) bool {
	if h[i].e.key != h[j].e.key {
		return h[i].e.key < h[j].e.key
	}
	return h[i].src < h[j].src
}
func (h kvHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *kvHeap) Push(x any)   { *h = append(*h, x.(kvHeapItem)) }
func (h *kvHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// mergePartition stable-merges sorted kv sources into key groups.
func mergePartition(srcs []kvSource) ([]group, error) {
	h := make(kvHeap, 0, len(srcs))
	for i, s := range srcs {
		e, ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if ok {
			h = append(h, kvHeapItem{e: e, src: i, s: s})
		}
	}
	heap.Init(&h)
	var groups []group
	for len(h) > 0 {
		top := &h[0]
		if len(groups) == 0 || groups[len(groups)-1].key != top.e.key {
			groups = append(groups, group{key: top.e.key})
		}
		g := &groups[len(groups)-1]
		g.values = append(g.values, top.e.value)
		e, ok, err := top.s.next()
		if err != nil {
			return nil, err
		}
		if ok {
			top.e = e
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return groups, nil
}

// refShuffle is the reference shuffle of one job: tasks[t][r] holds the
// pairs map task t emits for its record r. A task spills at a record
// boundary once threshold bytes (> 0) of emits are buffered; newComb, when
// non-nil, combines per spill run and per task remainder. It returns each
// partition's groups in reduce order and the shuffle's volumes.
func refShuffle(tasks [][][]kv, partitions int, threshold int64, newComb func() Reducer) ([][]group, Metrics, error) {
	var m Metrics
	type taskOut struct {
		parts  [][]kv
		spills [][][]kv
	}
	outs := make([]taskOut, len(tasks))
	for ti, recs := range tasks {
		parts := make([][]kv, partitions)
		spills := make([][][]kv, partitions)
		var buffered int64
		for _, rec := range recs {
			for _, e := range rec {
				m.MapEmitRecords++
				p := 0
				if partitions > 1 {
					p = partitionOf(e.key, partitions)
				}
				parts[p] = append(parts[p], e)
				buffered += int64(len(e.key) + len(e.value))
			}
			if threshold <= 0 || buffered < threshold {
				continue
			}
			for p := range parts {
				if len(parts[p]) == 0 {
					continue
				}
				run := parts[p]
				parts[p] = nil
				if newComb != nil {
					var err error
					if run, err = refCombine(newComb(), run, partitions, p); err != nil {
						return nil, m, err
					}
				}
				sortStableByKey(run)
				spills[p] = append(spills[p], run)
				m.SpillRuns++
				for _, e := range run {
					m.SpillRecords++
					m.SpillBytes += int64(len(e.key) + len(e.value))
				}
			}
			buffered = 0
		}
		if newComb != nil {
			for p := range parts {
				var err error
				if parts[p], err = refCombine(newComb(), parts[p], partitions, p); err != nil {
					return nil, m, err
				}
			}
		}
		outs[ti] = taskOut{parts: parts, spills: spills}
	}
	groups := make([][]group, partitions)
	for p := range groups {
		var all []kv
		var srcs []kvSource
		for _, o := range outs {
			all = append(all, o.parts[p]...)
			for _, run := range o.spills[p] {
				srcs = append(srcs, &memKVSource{kvs: run})
			}
			if len(o.parts[p]) > 0 {
				buf := slices.Clone(o.parts[p])
				sortStableByKey(buf)
				srcs = append(srcs, &memKVSource{kvs: buf})
			}
		}
		if m.SpillRuns == 0 {
			groups[p] = sortAndGroup(all)
		} else {
			var err error
			if groups[p], err = mergePartition(srcs); err != nil {
				return nil, m, err
			}
		}
		for _, g := range groups[p] {
			m.ReduceGroups++
			for _, v := range g.values {
				m.MapOutputRecords++
				m.MapOutputBytes += int64(len(g.key) + len(v))
			}
		}
	}
	return groups, m, nil
}

// The map-only path before sealed batches, kept as the reference
// FuzzMapOnlyMatchesReference compares Run with: each map task copies its
// emits into an arena behind one run of entries, and the commit hands the
// runs' values to the output one record at a time with Write, in task
// order. Tasks run one after another here; their output would be the same
// on any number of workers.
func (c *Cluster) refRunMapOnly(job *Job) (*Metrics, error) {
	m := &Metrics{Job: job.Name, MapOnly: true}
	splits, inputs, err := c.makeSplits(job, m)
	if err != nil {
		return nil, err
	}
	defer func() { closeFiles(inputs) }()
	side, err := c.openSideInputs(job, m, &inputs)
	if err != nil {
		return nil, err
	}
	type taskOut struct {
		a   *arena
		run []entry
	}
	var tasks []*taskOut
	for _, sp := range splits {
		t := &taskOut{a: &arena{}}
		emit := func(key string, value []byte) {
			m.MapEmitRecords++
			t.run = append(t.run, t.a.add(key, value))
		}
		mapper := job.NewMapper(&TaskContext{InputFile: sp.file, sideData: side})
		it := sp.f.Records(sp.start)
		for ri := 0; ri < sp.n && it.Next(); ri++ {
			if err := mapper.Map(it.Record(), emit); err != nil {
				return nil, err
			}
		}
		if closer, ok := mapper.(MapCloser); ok {
			if err := closer.Close(emit); err != nil {
				return nil, err
			}
		}
		tasks = append(tasks, t)
	}
	ratio := job.OutputCompression
	if ratio <= 0 || ratio > 1 {
		ratio = 1
	}
	out, err := c.FS.CreateStream(job.Output, ratio)
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		for _, e := range t.run {
			m.MapOutputRecords++
			m.MapOutputBytes += e.size()
			out.Write(t.a.value(e))
			m.OutputRecords++
			m.OutputBytes += int64(e.vlen)
		}
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	m.OutputStoredBytes = out.StoredBytes()
	c.Config.cost(m)
	return m, nil
}
