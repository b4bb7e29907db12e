// Package store is the imported half of the lockorder fixtures: it
// establishes the orders mu → loadMu and loadMu → Registry, contains one
// in-package inversion, and exports a lockable registry for the server
// fixture to lock from outside.
package store

import "sync"

// Registry is externally lockable: callers hold the embedded mutex around
// multi-step edits, so its class is the named type itself.
type Registry struct {
	sync.Mutex
	entries map[string]int
}

// Default is the shared registry instance.
var Default = &Registry{entries: map[string]int{}}

// Store pairs a read lock with a load lock; the documented order is mu
// before loadMu.
type Store struct {
	mu     sync.RWMutex
	loadMu sync.Mutex
	data   map[string]int
}

// New returns an empty store.
func New() *Store {
	return &Store{data: map[string]int{}}
}

// Get follows the documented order — mu, then loadMu — establishing the
// edge the rest of the fixtures are judged against.
func (s *Store) Get(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	return s.data[k]
}

// Reload inverts Get's order: the in-package cycle.
func (s *Store) Reload(k string) {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	s.mu.RLock() // want "lock-order cycle"
	defer s.mu.RUnlock()
	_ = s.data[k]
}

// Refill nests the registry lock inside loadMu, an in-package order that
// the server fixture's Evict inverts from outside.
func (s *Store) Refill() {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	Default.Lock()
	defer Default.Unlock()
	Default.entries["refill"]++
}

// Grow takes only loadMu; the server fixture calls it while holding the
// registry lock.
func (s *Store) Grow() {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	s.data = map[string]int{}
}

// Rebalance releases before re-acquiring in the opposite nesting: a true
// negative — no two locks are ever held together here.
func (s *Store) Rebalance() {
	s.loadMu.Lock()
	s.data = map[string]int{}
	s.loadMu.Unlock()
	s.mu.Lock()
	s.data["rebalanced"] = 1
	s.mu.Unlock()
}

// Register holds the registry lock and takes loadMu through Grow, the
// inversion of Refill's order; only Grow's acquire summary shows the edge.
func (s *Store) Register(k string) {
	Default.Lock()
	defer Default.Unlock()
	s.Grow() // want "lock-order cycle"
	Default.entries[k]++
}
