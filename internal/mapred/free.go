package mapred

import "rapidanalytics/internal/vec"

// freeList is a query's free list of task scratch, made by WithContext, so
// it dies with the query: the entry pages of map tasks (freePages at most,
// 4 MiB), and the batch builders, entry scratch and values scratch of map
// tasks and reduce partitions (freeScratch of each). A value handed back
// to a full list is left to the collector; a nil list recycles nothing.
type freeList struct {
	pages    chan *entryPage
	builders chan *vec.Builder
	entries  chan []entry
	values   chan [][]byte
	// poison (tests only) fills every page, builder scratch and entry
	// scratch handed back with 0xFF bytes.
	poison bool
}

// freePages bounds the pages a query keeps for reuse (4 MiB). freeScratch
// bounds the builders, entry scratches and values scratches: a phase's
// pool runs GOMAXPROCS tasks at once, each holding at most one of each, so
// 8 keeps them all on machines of up to 8 cores and lets a bigger pool's
// extra tasks allocate their own.
const (
	freePages   = 256
	freeScratch = 8
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
	if l == nil || cap(s) == 0 {
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

// putValueScratch hands s back cleared, so the list pins no arena.
func (l *freeList) putValueScratch(s [][]byte) {
	if l == nil || cap(s) == 0 {
		return
	}
	clear(s[:cap(s)])
	give(l.values, s[:0])
}

func poisonEntries(s []entry) {
	for i := range s {
		s[i] = entry{^uint64(0), ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)}
	}
}
