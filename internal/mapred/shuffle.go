package mapred

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// The shuffle carries map output to the reducers the way Hadoop's map
// output buffer does: serialized bytes plus an index of offsets. A map task
// copies every emitted key and value into one append-only arena and keeps,
// per reduce partition, a run of pointer-free entries locating them. A
// partition's input is a set of runs: each map task's run and each of its
// spill runs, read back into the partition's own arena. Every run is sorted
// by (key bytes, emission order) and the partition is their heap merge in
// (key, run order), with runs numbered task-major and in emission order
// within a task — exactly the order a stable sort of all of the
// partition's pairs in emission order gives, on one worker or many, with
// spills or without.

// A map task writes each partition's entries to fixed-size pages, as
// Hadoop's collector fills a fixed buffer, instead of growing a slice, and
// copies them once at task end or spill (pagedRun.flatten). pageEntries is
// a page's entry count. Pages come from the cluster's free list (free.go).
const pageEntries = 512

type entryPage [pageEntries]entry

// pagedRun is one partition's entries while its map task runs.
type pagedRun struct {
	pages []*entryPage
	n     int
}

func (r *pagedRun) add(e entry, l *freeList) {
	if r.n%pageEntries == 0 {
		r.pages = append(r.pages, l.page())
	}
	r.pages[len(r.pages)-1][r.n%pageEntries] = e
	r.n++
}

// flatten appends r's entries to dst, hands its pages back to l and
// empties r.
func (r *pagedRun) flatten(dst []entry, l *freeList) []entry {
	dst = slices.Grow(dst, r.n)
	for i, pg := range r.pages {
		dst = append(dst, pg[:min(pageEntries, r.n-i*pageEntries)]...)
		l.putPage(pg)
	}
	clear(r.pages)
	r.pages, r.n = r.pages[:0], 0
	return dst
}

// arenaFirstChunk and arenaMaxChunk bound an arena's chunks: the first is
// small, so a task that emits a record or two does not pay for a large
// one, and each next chunk doubles up to the maximum.
const (
	arenaFirstChunk = 1 << 10
	arenaMaxChunk   = 1 << 20
)

// entry locates one key/value pair, key and value back to back at off in
// chunk of its arena. src is the index of that arena among the runs of a
// merged partition (arenas) and 0 everywhere else. An entry holds no
// pointer, so an index of entries costs the garbage collector nothing to
// scan.
type entry struct {
	// prefix is the key's first bytes (keyPrefix); it decides most key
	// comparisons without a read of the arena.
	prefix                      uint64
	src, chunk, off, klen, vlen uint32
}

// size is the pair's logical shuffle bytes: key plus value.
func (e entry) size() int64 { return int64(e.klen) + int64(e.vlen) }

// keyPrefix packs a key's first eight bytes big-endian, zero-padded, so
// that unequal prefixes order as the keys' bytes do.
func keyPrefix(key string) uint64 {
	var p uint64
	for i := range 8 {
		p <<= 8
		if i < len(key) {
			p |= uint64(key[i])
		}
	}
	return p
}

// compareKeys orders the key of x, held in ax, against the key of y, held
// in ay, as strings.Compare does. Equal prefixes leave a key of at most
// eight bytes a prefix of the other key, or padded with zero bytes where
// the other has zeros, so the shorter key sorts first.
func compareKeys(ax *arena, x entry, ay *arena, y entry) int {
	if x.prefix != y.prefix {
		return cmp.Compare(x.prefix, y.prefix)
	}
	if x.klen <= 8 || y.klen <= 8 {
		return cmp.Compare(x.klen, y.klen)
	}
	return strings.Compare(ax.key(x)[8:], ay.key(y)[8:])
}

// arena is append-only storage for shuffled pairs. A chunk never moves and
// is never reused, so the bytes of a pair never change once added: keys
// are handed out as strings over them and values as capacity-clipped
// slices, and both stay valid for as long as they are referenced.
type arena struct {
	chunks [][]byte
	// next is the capacity of the next chunk.
	next int
	// size counts the bytes added.
	size int64
}

// reserve returns n bytes of fresh space and the entry locating them, with
// the lengths left for the caller to set.
func (a *arena) reserve(n int) (entry, []byte) {
	k := len(a.chunks) - 1
	if k < 0 || cap(a.chunks[k])-len(a.chunks[k]) < n {
		if a.next == 0 {
			a.next = arenaFirstChunk
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(a.next, n)))
		a.next = min(2*a.next, arenaMaxChunk)
		k++
	}
	c := a.chunks[k]
	off := len(c)
	a.chunks[k] = c[:off+n]
	a.size += int64(n)
	return entry{chunk: uint32(k), off: uint32(off)}, c[off : off+n]
}

// add copies one pair into the arena.
func (a *arena) add(key string, value []byte) entry {
	e, dst := a.reserve(len(key) + len(value))
	copy(dst[copy(dst, key):], value)
	e.prefix, e.klen, e.vlen = keyPrefix(key), uint32(len(key)), uint32(len(value))
	return e
}

// pair returns e's key and value bytes, back to back.
func (a *arena) pair(e entry) []byte {
	end := e.off + e.klen + e.vlen
	return a.chunks[e.chunk][e.off:end:end]
}

// key returns e's key as a string over the arena's bytes, which never
// change.
func (a *arena) key(e entry) string {
	if e.klen == 0 {
		return ""
	}
	return unsafe.String(&a.chunks[e.chunk][e.off], e.klen)
}

// value returns e's value, its capacity clipped so that appending to it
// cannot overwrite the next pair.
func (a *arena) value(e entry) []byte {
	start := e.off + e.klen
	end := start + e.vlen
	return a.chunks[e.chunk][start:end:end]
}

// sortRun sorts a run of a's entries by key bytes, then by emission order:
// in an append-only arena that is position order — chunk, then offset, then
// length, since an empty pair shares its offset with the pair added after
// it.
func (a *arena) sortRun(r []entry) {
	slices.SortFunc(r, func(x, y entry) int {
		if c := compareKeys(a, x, a, y); c != 0 {
			return c
		}
		if c := cmp.Compare(x.chunk, y.chunk); c != 0 {
			return c
		}
		if c := cmp.Compare(x.off, y.off); c != 0 {
			return c
		}
		return cmp.Compare(x.size(), y.size())
	})
}

// arenas resolves entries through their src index.
type arenas []*arena

func (t arenas) key(e entry) string   { return t[e.src].key(e) }
func (t arenas) value(e entry) []byte { return t[e.src].value(e) }

// sameKey reports whether x and y hold equal keys.
func (t arenas) sameKey(x, y entry) bool { return compareKeys(t[x.src], x, t[y.src], y) == 0 }

// mergeRuns merges sorted runs, run i's bytes in t[i], into one run ordered
// by (key, run index): the stable merge, equal to stable-sorting the runs'
// concatenation. Merged entries carry their run's index as src. A single
// run is returned as it is; runs must not be empty. check runs every
// ctxCheckInterval records.
func mergeRuns(runs [][]entry, t arenas, check func() error) ([]entry, error) {
	switch len(runs) {
	case 0:
		return nil, nil
	case 1:
		return runs[0], nil
	}
	n := 0
	h := mergeHeap{t: t}
	for i, r := range runs {
		n += len(r)
		h.heads = append(h.heads, mergeHead{e: r[0], run: i})
	}
	for i := len(h.heads)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := make([]entry, 0, n)
	for len(h.heads) > 0 {
		if len(out)%ctxCheckInterval == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		top := &h.heads[0]
		e := top.e
		e.src = uint32(top.run)
		out = append(out, e)
		if r := runs[top.run]; top.pos+1 < len(r) {
			top.pos++
			top.e = r[top.pos]
		} else {
			last := len(h.heads) - 1
			h.heads[0] = h.heads[last]
			h.heads = h.heads[:last]
		}
		h.down(0)
	}
	return out, nil
}

// mergeHead is one run's next entry in the merge, with its run index as the
// tie-break that keeps the merge stable.
type mergeHead struct {
	e        entry
	run, pos int
}

// mergeHeap is a binary min-heap of run heads by (key, run); run i's bytes
// are in t[i].
type mergeHeap struct {
	heads []mergeHead
	t     arenas
}

func (h *mergeHeap) less(i, j int) bool {
	x, y := &h.heads[i], &h.heads[j]
	if c := compareKeys(h.t[x.run], x.e, h.t[y.run], y.e); c != 0 {
		return c < 0
	}
	return x.run < y.run
}

// down restores the heap order below i.
func (h *mergeHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h.heads) {
			return
		}
		if r := m + 1; r < len(h.heads) && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.heads[i], h.heads[m] = h.heads[m], h.heads[i]
		i = m
	}
}

// reduceGroups calls red once per group of equal keys in the sorted run r,
// whose bytes t resolves, and returns the number of groups. The caller's
// values scratch is reused from group to group and cleared once each group
// is reduced, so it never refers to an arena and may go back to the
// cluster's free list. check runs before every ctxCheckInterval-th group.
func reduceGroups(red Reducer, t arenas, r []entry, values *[][]byte, emit Emit, check func() error) (int64, error) {
	var groups int64
	for i := 0; i < len(r); {
		if groups%ctxCheckInterval == 0 {
			if err := check(); err != nil {
				return groups, err
			}
		}
		first := r[i]
		vs := (*values)[:0]
		for ; i < len(r) && t.sameKey(first, r[i]); i++ {
			vs = append(vs, t.value(r[i]))
		}
		*values = vs
		key := t.key(first)
		groups++
		err := red.Reduce(key, vs, emit)
		clear(vs)
		if err != nil {
			return groups, fmt.Errorf("reduce key %q: %w", key, err)
		}
	}
	return groups, nil
}

// combine runs a combiner over one partition's run of in's entries,
// sorting the run first, and copies the combiner's emits into out and
// pages from l. The returned run has exactly the emits' count and is
// sorted: the emits are checked to come out in non-decreasing key order,
// and sorted by (key, emission order) when they do not. A combiner must
// keep each key in its partition. check runs before the sort and between
// groups, so cancellation never stalls in a combiner over a hot key.
func combine(comb Reducer, in *arena, r []entry, out *arena, l *freeList, values *[][]byte, partitions, p int, check func() error) ([]entry, error) {
	if err := check(); err != nil {
		return nil, err
	}
	in.sortRun(r)
	var res pagedRun
	var last entry
	sorted := true
	var moved error
	emit := func(key string, value []byte) {
		if partitions > 1 && partitionOf(key, partitions) != p {
			if moved == nil {
				moved = fmt.Errorf("mapred: combiner moved key %q across partitions", key)
			}
			return
		}
		e := out.add(key, value)
		if res.n > 0 && compareKeys(out, e, out, last) < 0 {
			sorted = false
		}
		res.add(e, l)
		last = e
	}
	_, err := reduceGroups(comb, arenas{in}, r, values, emit, check)
	run := res.flatten(make([]entry, 0, res.n), l)
	if err != nil {
		return nil, err
	}
	if moved != nil {
		return nil, moved
	}
	if !sorted {
		out.sortRun(run)
	}
	return run, nil
}
