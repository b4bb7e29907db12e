package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	ra "rapidanalytics"
	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/blockstore"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/store"
	"rapidanalytics/internal/vec"
)

// Probes are timed loops over one layer's exported functions, fed with the
// workload's own graph, query texts and the records of layouts built from
// that graph. They run only in the traced run, after the passes. Each
// probe is reported by the workloads that drive its layer and reads 0 on
// the others.

// frameworkRecords is the input size of the MapReduce framework probe.
const frameworkRecords = 200_000

// timeIt returns the median wall time of repeats calls.
func timeIt(repeats int, fn func() error) (time.Duration, error) {
	walls := make([]float64, repeats)
	for i := range walls {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls[i] = float64(time.Since(start))
	}
	return time.Duration(median(walls)), nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// probeData is what the probes share: the parsed graph and the records of
// both physical layouts, built the way engine.Load builds them.
type probeData struct {
	graph *rdf.Graph
	dict  *rdf.Dict
	// tgRecords are subject triplegroups, vpRecords are (subject, object)
	// ID tuples of the property tables.
	tgRecords, vpRecords [][]byte
}

// newFS is the DFS a probe writes to: in memory, or a blockstore under
// dir for the disk workload.
func newFS(dir string) (*dfs.FS, error) {
	if dir == "" {
		return dfs.New(), nil
	}
	return dfs.NewDisk(dir, 0)
}

// buildProbeData parses the instance's N-Triples and builds both layouts,
// reporting what each build took.
func buildProbeData(in *instance, dir string, m *metricSet) (*probeData, error) {
	g, err := rdf.ReadNTriples(bytes.NewReader(in.nt))
	if err != nil {
		return nil, err
	}
	fsys, err := newFS(dir)
	if err != nil {
		return nil, err
	}
	pd := &probeData{graph: g, dict: rdf.NewDict()}

	start := time.Now()
	vp, err := store.BuildVP(fsys, g, "probe/vp", pd.dict)
	if err != nil {
		return nil, err
	}
	m.set("store.build_vp_s", time.Since(start).Seconds())
	start = time.Now()
	tg, err := store.BuildTG(fsys, g, "probe/tg", pd.dict)
	if err != nil {
		return nil, err
	}
	m.set("store.build_tg_s", time.Since(start).Seconds())

	readAll := func(names []string) ([][]byte, error) {
		var out [][]byte
		for _, name := range names {
			f, err := fsys.Open(name)
			if err != nil {
				return nil, err
			}
			recs, err := f.AllRecords()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			out = append(out, recs...)
		}
		return out, nil
	}
	if pd.tgRecords, err = readAll(tg.AllFiles()); err != nil {
		return nil, err
	}
	var tables []string
	for _, name := range fsys.List(vp.Prefix) {
		if name != vp.TriplesTable {
			tables = append(tables, name)
		}
	}
	if pd.vpRecords, err = readAll(tables); err != nil {
		return nil, err
	}
	if len(pd.tgRecords) == 0 || len(pd.vpRecords) == 0 {
		return nil, fmt.Errorf("probes: layouts are empty (%d triplegroups, %d table rows)", len(pd.tgRecords), len(pd.vpRecords))
	}
	return pd, nil
}

// frameworkProbe runs an identity job over frameworkRecords triplegroup
// records through Cluster.Run: split, map, partition, sort, reduce and
// write with no operator work, so what is left is the framework's cost per
// record. spill is the map-side spill threshold (0 on the memory DFS).
func (pd *probeData) frameworkProbe(dir string, spill int64, m *metricSet) error {
	fsys, err := newFS(dir)
	if err != nil {
		return err
	}
	w, err := fsys.Create("probe/in", 1)
	if err != nil {
		return err
	}
	for i := 0; i < frameworkRecords; i++ {
		w.Write(pd.tgRecords[i%len(pd.tgRecords)])
	}
	if err := w.Close(); err != nil {
		return err
	}
	cfg := mapred.VCL10(1)
	cfg.SpillThresholdBytes = spill
	cluster := mapred.NewClusterFS(cfg, fsys)
	job := &mapred.Job{
		Name:   "probe-identity",
		Inputs: []string{"probe/in"},
		Output: "probe/out",
		NewMapper: func(*mapred.TaskContext) mapred.Mapper {
			return mapred.MapperFunc(func(rec []byte, emit mapred.Emit) error {
				emit(string(rec[:min(len(rec), 8)]), rec)
				return nil
			})
		},
		NewReducer: func() mapred.Reducer {
			return mapred.ReducerFunc(func(key string, values [][]byte, emit mapred.Emit) error {
				for _, v := range values {
					emit(key, v)
				}
				return nil
			})
		},
	}
	d, err := timeIt(3, func() error {
		_, err := cluster.Run(job)
		return err
	})
	if err != nil {
		return err
	}
	m.set("mapred.framework_ns_per_record", nsPer(d, frameworkRecords))
	return nil
}

// codecProbes time the record codecs of the NTGA data plane and the
// dictionary behind them.
func (pd *probeData) codecProbes(m *metricSet) error {
	tuples := make([]codec.Tuple, len(pd.vpRecords))
	d, err := timeIt(3, func() error {
		for i, rec := range pd.vpRecords {
			t, err := codec.DecodeIDTuple(rec, pd.dict)
			if err != nil {
				return err
			}
			tuples[i] = t
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("codec.decode_ids_ns_per_tuple", nsPer(d, len(tuples)))

	var buf []byte
	d, _ = timeIt(3, func() error {
		for _, t := range tuples {
			buf = t.AppendEncodeIDs(buf[:0])
		}
		return nil
	})
	m.set("codec.encode_ids_ns_per_tuple", nsPer(d, len(tuples)))

	d, err = timeIt(3, func() error {
		for _, rec := range pd.tgRecords {
			if _, _, err := ntga.DecodeTripleGroupIDs(rec, pd.dict); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("ntga.decode_tg_ns_per_record", nsPer(d, len(pd.tgRecords)))

	ids := make([]string, 0, pd.dict.Len())
	for id := uint64(1); id <= uint64(pd.dict.Len()); id++ {
		s, _ := pd.dict.IDString(id)
		ids = append(ids, s)
	}
	d, err = timeIt(3, func() error {
		for _, s := range ids {
			if _, ok := pd.dict.Lex(s); !ok {
				return fmt.Errorf("dictionary lost id-string %q", s)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("rdf.dict_lex_ns", nsPer(d, len(ids)))

	d, _ = timeIt(3, func() error {
		fresh := rdf.NewDict()
		for _, t := range pd.graph.Triples {
			fresh.Add(t.Subject.Key())
			fresh.Add(t.Property.Key())
			fresh.Add(t.Object.Key())
		}
		return nil
	})
	m.set("rdf.dict_build_s", d.Seconds())
	return nil
}

// perCatalogQueryUs turns the time of one sweep over the catalog into
// microseconds per query.
func perCatalogQueryUs(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond) / float64(len(bench.Catalog))
}

// probeRepeats is how often the microsecond-scale text → plan probes
// sweep the catalog.
const probeRepeats = 20

// parseProbe times sparql.Parse over the catalog's query texts.
func parseProbe(m *metricSet) error {
	d, err := timeIt(probeRepeats, func() error {
		for _, q := range bench.Catalog {
			if _, err := sparql.Parse(q.SPARQL); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("sparql.parse_us", perCatalogQueryUs(d))
	return nil
}

// plannerProbes time the planner's data-independent half (algebra.Build
// and the composite rewrite, per parsed query) and the statistics pass
// its cost model reads.
func (pd *probeData) plannerProbes(m *metricSet) error {
	parsed := make([]*sparql.Query, len(bench.Catalog))
	for i, q := range bench.Catalog {
		p, err := sparql.Parse(q.SPARQL)
		if err != nil {
			return err
		}
		parsed[i] = p
	}
	d, err := timeIt(probeRepeats, func() error {
		for _, p := range parsed {
			aq, err := algebra.Build(p)
			if err != nil {
				return err
			}
			// Single-grouping queries have nothing to merge; the error
			// is the planner's answer, not a failure.
			_, _ = algebra.BuildComposite(aq.Subqueries)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("algebra.build_us", perCatalogQueryUs(d))

	d, _ = timeIt(3, func() error {
		stats.Collect(pd.graph)
		return nil
	})
	m.set("stats.collect_s", d.Seconds())
	return nil
}

// prepareProbes time Store.Prepare on the plan cache's two paths: the
// instance's store has every text cached; an empty store has none.
func prepareProbes(in *instance, m *metricSet) error {
	prepareAll := func(s *ra.Store) error {
		for _, q := range bench.Catalog {
			if _, err := s.Prepare(ra.RAPIDAnalytics, q.SPARQL); err != nil {
				return err
			}
		}
		return nil
	}
	if err := prepareAll(in.store); err != nil {
		return err
	}
	d, err := timeIt(probeRepeats, func() error { return prepareAll(in.store) })
	if err != nil {
		return err
	}
	m.set("plancache.prepare_hit_us", perCatalogQueryUs(d))
	d, err = timeIt(probeRepeats, func() error { return prepareAll(ra.NewStore(ra.DefaultOptions())) })
	if err != nil {
		return err
	}
	m.set("plancache.prepare_miss_us", perCatalogQueryUs(d))
	return nil
}

// vecProbes time the columnar hand-off between cycles: building batches
// from table rows, and turning batch rows back into records.
func (pd *probeData) vecProbes(m *metricSet) {
	var batches []*vec.Batch
	d, _ := timeIt(3, func() error {
		batches = batches[:0]
		bu := vec.NewBuilder(0)
		for _, rec := range pd.vpRecords {
			if b := bu.Append(rec); b != nil {
				batches = append(batches, b)
			}
		}
		if b := bu.Flush(); b != nil {
			batches = append(batches, b)
		}
		return nil
	})
	m.set("vec.build_ns_per_row", nsPer(d, len(pd.vpRecords)))

	var buf []byte
	d, _ = timeIt(3, func() error {
		for _, b := range batches {
			for row := 0; row < b.Rows(); row++ {
				buf = b.AppendRecord(buf[:0], row)
			}
		}
		return nil
	})
	m.set("vec.append_record_ns_per_row", nsPer(d, len(pd.vpRecords)))
}

// blockstoreProbes write the layouts' records into one segment and scan
// them back: framing, CRC, atomic rename on the way in; block index and
// CRC check on the way out.
func (pd *probeData) blockstoreProbes(dir string, m *metricSet) error {
	records := append(append([][]byte(nil), pd.tgRecords...), pd.vpRecords...)
	var userBytes int64
	for _, r := range records {
		userBytes += int64(len(r))
	}
	bs, err := blockstore.Open(dir, 0)
	if err != nil {
		return err
	}
	mbPerS := func(d time.Duration) float64 { return float64(userBytes) / mib / d.Seconds() }

	d, err := timeIt(3, func() error {
		w, err := bs.Create("probe/segment")
		if err != nil {
			return err
		}
		for _, r := range records {
			w.Append(r)
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	m.set("blockstore.write_mb_s", mbPerS(d))

	d, err = timeIt(3, func() error {
		seg, err := bs.Open("probe/segment")
		if err != nil {
			return err
		}
		defer seg.Close()
		it := seg.Iter(0)
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			return err
		}
		if n != len(records) {
			return fmt.Errorf("blockstore scan returned %d of %d records", n, len(records))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("blockstore.scan_mb_s", mbPerS(d))

	var stored int64
	err = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		stored += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("blockstore.stored_per_user_byte", float64(stored)/float64(userBytes))
	return nil
}
