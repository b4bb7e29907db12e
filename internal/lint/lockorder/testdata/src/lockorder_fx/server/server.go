// Package server is the importing half of the lockorder fixtures: its
// Evict locks the store's exported registry, the one way a cross-package
// lock-order cycle can form, and is reported for that alone.
package server

import (
	"sync"

	"rapidanalytics/internal/lint/lockorder/testdata/src/lockorder_fx/store"
)

// Server guards its routing table with mu and reads through a store.
type Server struct {
	mu sync.Mutex
	st *store.Store
}

// Handle holds the server lock around a store read: a true negative. The
// store takes its own locks inside Get, so the edge from Server.mu to them
// points down the import graph, server → store.
func (sv *Server) Handle(k string) int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.st.Get(k)
}

// Evict holds the store's registry lock and re-enters the store. Grow
// takes loadMu, and the store's Refill nests the registry lock inside
// loadMu: Registry → loadMu here versus loadMu → Registry there is a
// deadlock. It is reported where the foreign lock is taken.
func (sv *Server) Evict() {
	store.Default.Lock() // want "lock of package store: keep locks package-private"
	defer store.Default.Unlock()
	sv.st.Grow()
}
