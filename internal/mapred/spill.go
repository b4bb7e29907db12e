package mapred

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/obs"
)

// Map-side spill: when ClusterConfig.SpillThresholdBytes is set, a map
// task whose buffered shuffle output reaches the threshold combines, sorts
// and writes each partition's buffer to a spill run in the cluster FS
// (blockstore segments on the disk backend), exactly as Hadoop spills its
// map output buffer. The shuffle phase then k-way merges each partition's
// spill runs and in-memory remainder — a stable merge keyed on (key,
// source order), provably identical to concatenating the runs in emission
// order and stable-sorting, so reduce input (and therefore job output) is
// byte-identical to the unspilled execution. With a combiner, combining
// happens per run (again as Hadoop does), so shuffled records/bytes may
// differ from the unspilled run while the reduced output stays identical.

// spillRef identifies one sorted spill run materialised in the cluster FS.
type spillRef struct {
	file    string
	records int64
	bytes   int64 // logical kv bytes (key + value lengths)
}

// spillRunName places task t's run r for partition p under a job-unique
// prefix, so concurrent queries on one cluster never collide. It runs once
// per spilled partition on the map task's record loop, so the name builds
// into one pre-sized buffer instead of going through fmt.
//
//rapid:hot
func spillRunName(output string, task, run, part int) string {
	buf := make([]byte, 0, len("_spill/")+len(output)+len("/t0000-r0000-p0000")+3*binary.MaxVarintLen16)
	buf = append(buf, "_spill/"...)
	buf = append(buf, output...)
	buf = append(buf, "/t"...)
	buf = appendPadded(buf, task)
	buf = append(buf, "-r"...)
	buf = appendPadded(buf, run)
	buf = append(buf, "-p"...)
	buf = appendPadded(buf, part)
	//lint:alloc the name escapes into spillRef and FS.Create; one string allocation is the floor
	return string(buf)
}

// appendPadded appends n zero-padded to at least four digits (the %04d the
// name format always used; wider values print unpadded).
func appendPadded(buf []byte, n int) []byte {
	for lim := 1000; lim > 1 && n < lim; lim /= 10 {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(n), 10)
}

// ErrSpillCleanup marks a job whose spill runs could not be deleted after
// the run — leaked backend storage, surfaced on the job's error path.
// Test with errors.Is.
var ErrSpillCleanup = errors.New("mapred: spill cleanup failed")

// cleanupSpills removes every spill run a job left behind, returning the
// first delete failure (with the file named) after attempting the rest.
func (c *Cluster) cleanupSpills(output string) error {
	var first error
	for _, name := range c.FS.List("_spill/" + output + "/") {
		if err := c.FS.Delete(name); err != nil && first == nil {
			first = fmt.Errorf("deleting %s: %w", name, err)
		}
	}
	return first
}

// spillMaxBuffered tracks the high-water mark of per-task buffered kv
// bytes observed at record boundaries while spilling is enabled. It exists
// so tests can assert the spill path bounds resident shuffle memory; it is
// never read by execution.
var spillMaxBuffered atomic.Int64

// noteSpillHighWater raises the recorded high-water mark to n.
func noteSpillHighWater(n int64) {
	for {
		cur := spillMaxBuffered.Load()
		if n <= cur || spillMaxBuffered.CompareAndSwap(cur, n) {
			return
		}
	}
}

// encodeKV frames a shuffle pair as uvarint(len(key)) || key || value.
func encodeKV(e kv) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(e.key)+len(e.value))
	buf = binary.AppendUvarint(buf, uint64(len(e.key)))
	buf = append(buf, e.key...)
	buf = append(buf, e.value...)
	return buf
}

// decodeKV parses a spill record. The returned value is a copy: merge
// consumers retain values in reduce groups long past the source iterator's
// next advance, and while backend iterators hand out stable records today,
// an aliased value would silently corrupt groups the moment spill reads
// flow through a buffer-reusing source (as streamed files do).
func decodeKV(rec []byte) (kv, error) {
	kl, n := binary.Uvarint(rec)
	if n <= 0 || kl > uint64(len(rec)-n) {
		return kv{}, fmt.Errorf("mapred: corrupt spill record")
	}
	end := n + int(kl)
	val := make([]byte, len(rec)-end)
	copy(val, rec[end:])
	return kv{key: string(rec[n:end]), value: val}, nil
}

// sortStableByKey sorts kvs by key, preserving emission order within a
// key. sortAndGroup sorts through it, so spilled and unspilled shuffles
// order identically; the typed comparison keeps reflection's swapper out of
// the shuffle.
func sortStableByKey(kvs []kv) {
	slices.SortStableFunc(kvs, func(a, b kv) int { return strings.Compare(a.key, b.key) })
}

// writeSpillRun materialises one sorted run, attaching a spill-write io
// span under the task span when tracing.
func (c *Cluster) writeSpillRun(name string, kvs []kv, tspan *obs.Span, check func() error) (spillRef, error) {
	w, err := c.FS.Create(name, 1)
	if err != nil {
		return spillRef{}, err
	}
	var sspan *obs.Span
	if tspan != nil {
		sspan = tspan.StartChild(obs.KindIO, "spill-write")
	}
	w.SetSpan(sspan)
	ref := spillRef{file: name, records: int64(len(kvs))}
	werr := func() error {
		for i := range kvs {
			if i%ctxCheckInterval == 0 {
				if err := check(); err != nil {
					return err
				}
			}
			ref.bytes += int64(len(kvs[i].key) + len(kvs[i].value))
			w.WriteOwned(encodeKV(kvs[i]))
		}
		return nil
	}()
	sspan.End()
	if cerr := w.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return spillRef{}, werr
	}
	return ref, nil
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

// spillKVSource streams a spill run back from the cluster FS.
type spillKVSource struct {
	f  *dfs.File
	it dfs.RecordIterator
}

func newSpillKVSource(fs *dfs.FS, ref spillRef) (*spillKVSource, error) {
	f, err := fs.Open(ref.file)
	if err != nil {
		return nil, err
	}
	return &spillKVSource{f: f, it: f.Records(0)}, nil
}

func (s *spillKVSource) next() (kv, bool, error) {
	if !s.it.Next() {
		err := s.it.Err()
		s.f.Close()
		return kv{}, false, err
	}
	e, err := decodeKV(s.it.Record())
	if err != nil {
		return kv{}, false, err
	}
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

// mergePartition stable-merges sorted kv sources into key groups,
// returning the groups plus the merged record and byte counts (the
// partition's shuffle volume).
func mergePartition(srcs []kvSource, check func() error) ([]group, int64, int64, error) {
	h := make(kvHeap, 0, len(srcs))
	for i, s := range srcs {
		e, ok, err := s.next()
		if err != nil {
			return nil, 0, 0, err
		}
		if ok {
			h = append(h, kvHeapItem{e: e, src: i, s: s})
		}
	}
	heap.Init(&h)
	var groups []group
	var records, bytes int64
	for len(h) > 0 {
		if records%ctxCheckInterval == 0 {
			if err := check(); err != nil {
				return nil, 0, 0, err
			}
		}
		top := &h[0]
		records++
		bytes += int64(len(top.e.key) + len(top.e.value))
		if len(groups) == 0 || groups[len(groups)-1].key != top.e.key {
			groups = append(groups, group{key: top.e.key})
		}
		g := &groups[len(groups)-1]
		g.values = append(g.values, top.e.value)
		e, ok, err := top.s.next()
		if err != nil {
			return nil, 0, 0, err
		}
		if ok {
			top.e = e
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return groups, records, bytes, nil
}
