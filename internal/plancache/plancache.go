// Package plancache is a concurrency-safe LRU cache for compiled query
// plans, final results and composite sub-relations. Real SPARQL workloads
// are dominated by repeated query templates (Bonifati et al.'s analysis of
// large public query logs), so amortising the parse → overlap-detection →
// composite-rewrite pipeline across repetitions of the same query text is
// the cheapest large win the serving layer gets.
//
// The cache is value-agnostic: it maps keys to opaque entries, each with a
// caller-provided size, and keeps exact hit/miss/eviction counters so the
// serving layer can export them. Every method takes a Key, and
// VersionedKey is the only way to build one, so no entry can be stored or
// looked up without a data version: an unversioned key does not compile.
// Compiled plans, which hold no data, are keyed at the fixed version 0.
package plancache

import (
	"container/list"
	"strconv"
	"sync"
)

// Key addresses one cache entry. VersionedKey is its only constructor;
// the zero Key is a single fixed address that carries no version.
type Key struct{ s string }

// VersionedKey builds the key of query (a query text, or any identifier
// within the namespace) in namespace ns at a store data version: the
// counter a store bumps on every mutation-triggered layout invalidation,
// which also rebuilds the statistics catalog. Because the version is part
// of every key, an entry cached before a reload can never be served
// against drifted data or statistics: it simply stops being addressable
// and ages out of the LRU. ns must not contain NUL; the NUL separators then
// make keys collision-free across namespaces, versions and queries.
func VersionedKey(ns string, version uint64, query string) Key {
	return Key{ns + "\x00" + strconv.FormatUint(version, 10) + "\x00" + query}
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the LRU policy (Remove and
	// overwrites are not evictions).
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached values.
	Entries int `json:"entries"`
	// Bytes and BudgetBytes are the accounted size held and the configured
	// budget, in the unit the caller sizes entries in.
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budgetBytes"`
}

// Cache is a budget-bounded LRU map: every entry carries a caller-provided
// size, and inserting past the budget evicts least-recently-used entries
// until the new entry fits. Sizing every entry 1 makes the budget an entry
// count (the plan cache); sizing entries in bytes keeps a handful of huge
// values from blowing the heap (the result and sub-relation cache).
//
// All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[Key]*list.Element

	hits, misses, evictions int64
}

type entry struct {
	key   Key
	value any
	size  int64
}

// New returns a cache holding at most budget accounted size. Budgets below
// 1 are clamped to 1.
func New(budget int64) *Cache {
	if budget < 1 {
		budget = 1
	}
	return &Cache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[Key]*list.Element),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache) Get(key Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// Put inserts or overwrites a value accounted at size, evicting
// least-recently-used entries until the budget holds, and reports whether
// it stored the value. A value larger than the whole budget is not cached
// at all (inserting it would empty the cache for a value that can never be
// retained).
func (c *Cache) Put(key Key, value any, size int64) bool {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		if el, ok := c.items[key]; ok {
			c.removeLocked(el)
		}
		return false
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*entry)
		c.bytes += size - ent.size
		ent.value, ent.size = value, size
		c.ll.MoveToFront(el)
	} else {
		c.bytes += size
		c.items[key] = c.ll.PushFront(&entry{key: key, value: value, size: size})
	}
	for c.bytes > c.budget {
		oldest := c.ll.Back()
		if oldest == nil || oldest == c.ll.Front() {
			break
		}
		c.removeLocked(oldest)
		c.evictions++
	}
	return true
}

// removeLocked unlinks one element and returns its size to the budget.
func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.size
}

// Remove drops a key if present.
func (c *Cache) Remove(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the accounted size currently held.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
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
