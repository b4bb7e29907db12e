package rapidanalytics

import (
	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

// SetPanickingMaps makes every map task of s's queries panic at its first
// record, on every system, and returns a function undoing it. No query may
// run meanwhile.
func SetPanickingMaps(s *Store) (restore func()) {
	set := func(wrap func(engine.Engine) engine.Engine) {
		s.mu.Lock()
		s.testWrapEngine = wrap
		s.mu.Unlock()
	}
	set(func(e engine.Engine) engine.Engine { return panickingEngine{e} })
	return func() { set(nil) }
}

// panickingEngine plans as its engine does, with every job's mapper
// replaced by panickingMapper.
type panickingEngine struct{ engine.Engine }

func (e panickingEngine) Plan(c *mapred.Cluster, ds *engine.Dataset, q *algebra.AnalyticalQuery) (*engine.Plan, error) {
	p, err := e.Engine.Plan(c, ds, q)
	if err != nil {
		return nil, err
	}
	for i := range p.Stages {
		job := p.Stages[i].Job
		p.Stages[i].Job = func(out string) *mapred.Job {
			j := *job(out)
			j.NewMapper = func(*mapred.TaskContext) mapred.Mapper { return panickingMapper{} }
			return &j
		}
	}
	return p, nil
}

type panickingMapper struct{}

func (panickingMapper) Map([]byte, mapred.Emit) error { panic("injected map-task panic") }

// DataVersion returns s's data version, taking only s's load lock.
func DataVersion(s *Store) uint64 { return s.currentDataVersion() }

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

// DictLen returns the number of terms in s's dictionary.
func DictLen(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dict.Len()
}
