package bench

import (
	"fmt"
	"strings"
	"time"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/sparql"
)

// DiskRun compares one (query, dataset, engine) triple between the
// in-memory and the disk-backed DFS.
type DiskRun struct {
	Query   string `json:"query"`
	Dataset string `json:"dataset"`
	Engine  string `json:"engine"`
	// RowsIdentical reports that both backends returned exactly the same
	// result rows.
	RowsIdentical bool `json:"rowsIdentical"`
	// VolumesIdentical reports that every job's deterministic volume
	// metrics — output records and bytes, stored bytes, shuffle volumes,
	// spill counters — matched job-for-job across backends. This is the
	// byte-identity gate: OutputBytes/OutputStoredBytes equality means the
	// materialised output was the same size record for record.
	VolumesIdentical bool `json:"volumesIdentical"`
	// OutputBytes and OutputStoredBytes sum the per-job materialised
	// output volumes (identical across backends when VolumesIdentical).
	OutputBytes       int64 `json:"outputBytes"`
	OutputStoredBytes int64 `json:"outputStoredBytes"`
	// Spill counters sum over the disk-backed run's jobs.
	SpillRuns  int64 `json:"spillRuns"`
	SpillBytes int64 `json:"spillBytes"`
	// Wall times are best-of-iters in-process milliseconds.
	MemWallMillis  float64 `json:"memWallMillis"`
	DiskWallMillis float64 `json:"diskWallMillis"`
}

// DiskDataset records one dataset's total stored bytes on each backend
// after the full query set ran (the DFS-level storage accounting).
type DiskDataset struct {
	Dataset         string `json:"dataset"`
	MemStoredBytes  int64  `json:"memStoredBytes"`
	DiskStoredBytes int64  `json:"diskStoredBytes"`
}

// DiskReport is the result of CompareStorageBackends, serialised to
// BENCH_disk.json by benchrunner -exp disk.
type DiskReport struct {
	Iters int `json:"iters"`
	// SpillThresholdBytes is the map-side spill threshold both backends
	// ran with, so the spill path is exercised symmetrically.
	SpillThresholdBytes int64         `json:"spillThresholdBytes"`
	Runs                []DiskRun     `json:"runs"`
	Datasets            []DiskDataset `json:"datasets"`
	// TotalSpillRuns and TotalSpillBytes aggregate the disk plane's spill
	// activity; zero means the spill path never triggered.
	TotalSpillRuns  int64 `json:"totalSpillRuns"`
	TotalSpillBytes int64 `json:"totalSpillBytes"`
	// AllIdentical is the conjunction of every run's RowsIdentical and
	// VolumesIdentical — the experiment's correctness gate.
	AllIdentical bool `json:"allIdentical"`
}

// CompareStorageBackends runs each catalog query on each engine twice per
// iteration — once on a cluster whose DFS is the in-memory backend and
// once on a disk-backed (blockstore) cluster — and reports result-row
// identity, job-for-job volume identity (including output bytes and
// stored bytes), per-dataset stored totals, spill activity, and wall
// times. Both backends run with the same spill threshold, so any
// divergence is a storage-plane bug.
func CompareStorageBackends(catalog []DictCatalogEntry, engines []engine.Engine, iters int, sizeMult float64, spillThreshold int64) (*DiskReport, error) {
	if iters < 1 {
		iters = 1
	}
	memLoader := NewLoader()
	memLoader.Storage = "mem"
	diskLoader := NewLoader()
	diskLoader.Storage = "disk"
	for _, l := range []*Loader{memLoader, diskLoader} {
		if sizeMult > 0 {
			l.SizeMult = sizeMult
		}
		l.SpillThresholdBytes = spillThreshold
	}

	report := &DiskReport{Iters: iters, SpillThresholdBytes: spillThreshold, AllIdentical: true}
	for _, entry := range catalog {
		for _, id := range entry.Queries {
			q, ok := Get(id)
			if !ok {
				return nil, fmt.Errorf("bench: unknown query %q", id)
			}
			parsed, err := sparql.Parse(q.SPARQL)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", id, err)
			}
			aq, err := algebra.Build(parsed)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", id, err)
			}
			for _, e := range engines {
				run := DiskRun{Query: id, Dataset: entry.Dataset, Engine: e.Name()}
				for it := 0; it < iters; it++ {
					memRes, memWM, memWall, err := dictExec(memLoader, entry.Dataset, e, aq)
					if err != nil {
						return nil, fmt.Errorf("bench: %s on %s via %s (mem): %w", id, entry.Dataset, e.Name(), err)
					}
					diskRes, diskWM, diskWall, err := dictExec(diskLoader, entry.Dataset, e, aq)
					if err != nil {
						return nil, fmt.Errorf("bench: %s on %s via %s (disk): %w", id, entry.Dataset, e.Name(), err)
					}
					if it == 0 {
						run.RowsIdentical = memRes.Equal(diskRes)
						run.VolumesIdentical = volumesIdentical(memWM, diskWM)
						for _, m := range diskWM.Jobs {
							run.OutputBytes += m.OutputBytes
							run.OutputStoredBytes += m.OutputStoredBytes
							run.SpillRuns += m.SpillRuns
							run.SpillBytes += m.SpillBytes
						}
						run.MemWallMillis = memWall
						run.DiskWallMillis = diskWall
					} else {
						run.MemWallMillis = min(run.MemWallMillis, memWall)
						run.DiskWallMillis = min(run.DiskWallMillis, diskWall)
					}
				}
				report.AllIdentical = report.AllIdentical && run.RowsIdentical && run.VolumesIdentical
				report.TotalSpillRuns += run.SpillRuns
				report.TotalSpillBytes += run.SpillBytes
				report.Runs = append(report.Runs, run)
			}
		}
	}
	for _, entry := range catalog {
		d := DiskDataset{Dataset: entry.Dataset}
		if c, _, err := memLoader.Load(entry.Dataset); err == nil {
			d.MemStoredBytes = c.FS.TotalStoredBytes("")
		}
		if c, _, err := diskLoader.Load(entry.Dataset); err == nil {
			d.DiskStoredBytes = c.FS.TotalStoredBytes("")
		}
		if d.MemStoredBytes != d.DiskStoredBytes {
			report.AllIdentical = false
		}
		report.Datasets = append(report.Datasets, d)
	}
	return report, nil
}

// RenderDisk renders a DiskReport as an aligned table.
func RenderDisk(rep *DiskReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "In-memory vs disk-backed DFS (best of %d, spill threshold %d bytes)\n",
		rep.Iters, rep.SpillThresholdBytes)
	fmt.Fprintf(&b, "%-6s %-10s %-22s %12s %12s %8s %10s %6s %6s\n",
		"query", "dataset", "engine", "out bytes", "stored", "spills", "mem ms", "disk ms", "same")
	for _, r := range rep.Runs {
		fmt.Fprintf(&b, "%-6s %-10s %-22s %12d %12d %8d %10.1f %6.1f %6v\n",
			r.Query, r.Dataset, r.Engine, r.OutputBytes, r.OutputStoredBytes,
			r.SpillRuns, r.MemWallMillis, r.DiskWallMillis, r.RowsIdentical && r.VolumesIdentical)
	}
	for _, d := range rep.Datasets {
		fmt.Fprintf(&b, "dataset %-10s stored bytes: mem %d, disk %d\n",
			d.Dataset, d.MemStoredBytes, d.DiskStoredBytes)
	}
	fmt.Fprintf(&b, "spill runs: %d (%d bytes); outputs identical: %v\n",
		rep.TotalSpillRuns, rep.TotalSpillBytes, rep.AllIdentical)
	return b.String()
}

// dictExec loads the dataset through l and times one execution of aq on e,
// returning the wall time in milliseconds. Shared by the storage and
// streaming comparisons.
func dictExec(l *Loader, datasetID string, e engine.Engine, aq *algebra.AnalyticalQuery) (*engine.Result, *mapred.WorkflowMetrics, float64, error) {
	c, ds, err := l.Load(datasetID)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	res, wm, err := e.Execute(c, ds, aq)
	if err != nil {
		return nil, nil, 0, err
	}
	return res, wm, float64(time.Since(start).Microseconds()) / 1000, nil
}
