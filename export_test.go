package rapidanalytics

import (
	"time"

	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

// SetSharedScanWindow replaces the shared-scan cycle window of s's next
// materialisation, so a test can coalesce a whole burst of concurrent
// queries. Call it before s first queries.
func SetSharedScanWindow(s *Store, d time.Duration) { s.testScanWindow = d }

// SetScans installs p as the map-input scan provider of s's loaded
// cluster, so a test can inject a failure into map tasks, and returns a
// function restoring the previous provider. No query may run meanwhile.
func SetScans(s *Store, p mapred.ScanProvider) (restore func(), err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, _, err := s.ensureLoaded()
	if err != nil {
		return nil, err
	}
	prev := c.Scans
	c.Scans = p
	return func() { c.Scans = prev }, nil
}

// StoreFS returns the file system of s's loaded cluster, so a test can
// corrupt a stored file. No query may run while a file is rewritten.
func StoreFS(s *Store) (*dfs.FS, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, _, err := s.ensureLoaded()
	if err != nil {
		return nil, err
	}
	return c.FS, nil
}

// RetainedScratch returns the bytes the free list of s's loaded cluster
// holds for reuse, by kind (mapred.Cluster.RetainedScratch). No query may
// run meanwhile.
func RetainedScratch(s *Store) (pages, entries, values, builders int64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, _, err := s.ensureLoaded()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	pages, entries, values, builders = c.RetainedScratch()
	return pages, entries, values, builders, nil
}

// ReferenceRows evaluates query on the reference oracle directly, as
// rendered rows, without Compile's check that the engines accept it.
func ReferenceRows(s *Store, query string) ([][]string, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, err := refimpl.Execute(q, s.dict, s.triples)
	if err != nil {
		return nil, err
	}
	return wrapResult(res).Rows(), nil
}
