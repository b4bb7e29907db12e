package mapred

import (
	"unsafe"

	"rapidanalytics/internal/vec"
)

// freeList is a cluster's free list of task scratch, made with the cluster
// and shared by its WithContext copies, so it lives as long as the cluster
// and no query grows again what the last one handed back: the entry pages
// of map tasks (freePages at most, 4 MiB), the batch builders of map-only
// tasks, spill runs and reduce partitions, and the entry scratch and
// values scratch of map tasks and reduce partitions (freeScratch of each
// kind), each of at most maxScratchBytes. It holds only reset or cleared
// scratch that refers to no query's data: builders are reset, and values
// scratch comes back cleared by reduceGroups. A value handed back to a
// full list is left to the collector; a nil list recycles nothing. Its
// channels make it safe for concurrent queries.
type freeList struct {
	pages    chan *entryPage
	builders chan *vec.Builder
	entries  chan []entry
	values   chan [][]byte
	// poison (tests only) fills every page, builder scratch and entry
	// scratch handed back with 0xFF bytes.
	poison bool
}

// freePages bounds the pages a cluster keeps for reuse (4 MiB). freeScratch
// bounds the builders, entry scratches and values scratches: a phase's
// pool runs GOMAXPROCS tasks at once, each holding at most one of each, so
// 8 keeps them all on machines of up to 8 cores and lets a bigger pool's
// extra tasks allocate their own. maxScratchBytes bounds one entry or
// values scratch the list keeps: a larger one, grown by one skewed key
// group or partition, is left to the collector rather than held for the
// cluster's life. The largest a catalog pass on the workload graph hands
// back is 1.3 MB (an entry scratch; a values scratch 1.1 MB).
const (
	freePages       = 256
	freeScratch     = 8
	maxScratchBytes = 4 << 20
)

func newFreeList() *freeList {
	return &freeList{
		pages:    make(chan *entryPage, freePages),
		builders: make(chan *vec.Builder, freeScratch),
		entries:  make(chan []entry, freeScratch),
		values:   make(chan [][]byte, freeScratch),
	}
}

// take receives from ch, or returns the zero T when ch is empty or nil.
func take[T any](ch chan T) (v T) {
	select {
	case v = <-ch:
	default:
	}
	return v
}

// give sends v to ch unless ch is full or nil.
func give[T any](ch chan T, v T) {
	select {
	case ch <- v:
	default:
	}
}

func (l *freeList) page() *entryPage {
	if l != nil {
		if pg := take(l.pages); pg != nil {
			return pg
		}
	}
	return new(entryPage)
}

func (l *freeList) putPage(pg *entryPage) {
	if l == nil {
		return
	}
	if l.poison {
		poisonEntries(pg[:])
	}
	give(l.pages, pg)
}

// builder returns an empty builder sealing at vec.DefaultBatchRows.
func (l *freeList) builder() *vec.Builder {
	if l != nil {
		if bu := take(l.builders); bu != nil {
			return bu
		}
	}
	return vec.NewBuilder(vec.DefaultBatchRows)
}

// putBuilder hands bu back, dropping any open batch. The batches bu sealed
// are copies and stay with their owner.
func (l *freeList) putBuilder(bu *vec.Builder) {
	if l == nil {
		return
	}
	if l.poison {
		bu.Poison()
	} else {
		bu.Reset()
	}
	give(l.builders, bu)
}

// entryScratch returns an empty entry slice, with the capacity of the one
// last handed back.
func (l *freeList) entryScratch() []entry {
	if l == nil {
		return nil
	}
	return take(l.entries)
}

func (l *freeList) putEntryScratch(s []entry) {
	if l == nil || cap(s) == 0 || cap(s)*int(unsafe.Sizeof(entry{})) > maxScratchBytes {
		return
	}
	if l.poison {
		poisonEntries(s[:cap(s)])
	}
	give(l.entries, s[:0])
}

// valueScratch returns an empty values slice (see reduceGroups).
func (l *freeList) valueScratch() [][]byte {
	if l == nil {
		return nil
	}
	return take(l.values)
}

// putValueScratch hands s back. reduceGroups clears every group's values
// once it is reduced, so s refers to no arena and the list pins none.
func (l *freeList) putValueScratch(s [][]byte) {
	if l == nil || cap(s) == 0 || cap(s)*int(unsafe.Sizeof([]byte(nil))) > maxScratchBytes {
		return
	}
	give(l.values, s[:0])
}

// RetainedScratch returns the bytes c's free list holds for reuse, by kind:
// its entry pages, and the capacity of its entry scratches, values
// scratches and builders. It takes every value off the list and hands it
// back, so it is exact only while no job runs.
func (c *Cluster) RetainedScratch() (pages, entries, values, builders int64) {
	l := c.free
	if l == nil {
		return 0, 0, 0, 0
	}
	pages = int64(len(l.pages)) * int64(unsafe.Sizeof(entryPage{}))
	entries = retained(l.entries, func(s []entry) int64 { return int64(cap(s)) * int64(unsafe.Sizeof(entry{})) })
	values = retained(l.values, func(s [][]byte) int64 { return int64(cap(s)) * int64(unsafe.Sizeof([]byte(nil))) })
	builders = retained(l.builders, func(bu *vec.Builder) int64 { return int64(bu.ScratchBytes()) })
	return pages, entries, values, builders
}

// retained sums size over the values ch holds, handing each back.
func retained[T any](ch chan T, size func(T) int64) int64 {
	var n int64
	for range len(ch) {
		select {
		case v := <-ch:
			n += size(v)
			give(ch, v)
		default:
			return n
		}
	}
	return n
}

func poisonEntries(s []entry) {
	for i := range s {
		s[i] = entry{^uint64(0), ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)}
	}
}
