// Package plancache is a concurrency-safe LRU cache for compiled query
// plans. Real SPARQL workloads are dominated by repeated query templates
// (Bonifati et al.'s analysis of large public query logs), so amortising the
// parse → overlap-detection → composite-rewrite pipeline across repetitions
// of the same query text is the cheapest large win the serving layer gets.
//
// The cache is value-agnostic: it maps keys to opaque entries and keeps
// exact hit/miss/eviction counters so the serving layer can export them.
// Every method takes a Key, and VersionedKey is the only way to build one,
// so no entry can be stored or looked up without the store's data version:
// an unversioned key does not compile.
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
	// Entries is the current number of cached plans.
	Entries int `json:"entries"`
	// Capacity is the configured maximum number of entries (count-bounded
	// caches only; zero for a SizedCache).
	Capacity int `json:"capacity,omitempty"`
	// Bytes and BudgetBytes describe a SizedCache: accounted bytes held
	// and the configured byte budget. Zero for a count-bounded Cache.
	Bytes       int64 `json:"bytes,omitempty"`
	BudgetBytes int64 `json:"budgetBytes,omitempty"`
}

type entry struct {
	key   Key
	value any
}

// Cache is a fixed-capacity LRU map. All methods are safe for concurrent
// use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element

	hits, misses, evictions int64
}

// New returns a cache holding at most capacity entries. Capacities below 1
// are clamped to 1.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element, capacity),
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

// Put inserts or overwrites a value, evicting the least recently used entry
// when the cache is full.
func (c *Cache) Put(key Key, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).value = value
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*entry).key)
			c.evictions++
		}
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, value: value})
}

// Remove drops a key if present.
func (c *Cache) Remove(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// Clear drops every entry (counters are preserved).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[Key]*list.Element, c.capacity)
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
	}
}
