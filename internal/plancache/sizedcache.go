package plancache

import (
	"container/list"
	"sync"
)

// SizedCache is a byte-budget LRU map: every entry carries a caller-provided
// size, and inserting past the budget evicts least-recently-used entries
// until the new entry fits. It backs the serving layer's result and
// sub-relation caches, whose entries vary from a few bytes to megabytes —
// a count bound would let a handful of huge results blow the heap.
//
// All methods are safe for concurrent use.
type SizedCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[Key]*list.Element

	hits, misses, evictions int64
}

type sizedEntry struct {
	key   Key
	value any
	size  int64
}

// NewSized returns a cache holding at most budget accounted bytes.
// Budgets below 1 are clamped to 1 (a cache that can hold nothing but
// still counts misses).
func NewSized(budget int64) *SizedCache {
	if budget < 1 {
		budget = 1
	}
	return &SizedCache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[Key]*list.Element),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *SizedCache) Get(key Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*sizedEntry).value, true
}

// Put inserts or overwrites a value accounted at size bytes, evicting
// least-recently-used entries until the budget holds. A value larger than
// the whole budget is not cached at all (inserting it would empty the
// cache for a value that can never be retained).
func (c *SizedCache) Put(key Key, value any, size int64) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		if el, ok := c.items[key]; ok {
			c.removeLocked(el)
		}
		return
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*sizedEntry)
		c.bytes += size - ent.size
		ent.value, ent.size = value, size
		c.ll.MoveToFront(el)
	} else {
		c.bytes += size
		c.items[key] = c.ll.PushFront(&sizedEntry{key: key, value: value, size: size})
	}
	for c.bytes > c.budget {
		oldest := c.ll.Back()
		if oldest == nil || oldest == c.ll.Front() {
			break
		}
		c.removeLocked(oldest)
		c.evictions++
	}
}

// removeLocked unlinks one element and returns its bytes to the budget.
func (c *SizedCache) removeLocked(el *list.Element) {
	ent := el.Value.(*sizedEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.size
}

// Remove drops a key if present.
func (c *SizedCache) Remove(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
}

// Clear drops every entry (counters are preserved).
func (c *SizedCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[Key]*list.Element)
	c.bytes = 0
}

// Len returns the current entry count.
func (c *SizedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the accounted bytes currently held.
func (c *SizedCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the counters.
func (c *SizedCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Entries:     c.ll.Len(),
		Bytes:       c.bytes,
		BudgetBytes: c.budget,
	}
}
