package bench

import (
	"fmt"
	"path/filepath"
	"sync"

	"rapidanalytics/internal/datagen"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
)

// DatasetSpec describes one evaluation dataset: its generator, the paper's
// cluster configuration for it, and the paper-scale triple count used to
// extrapolate the cost model (DataScale = PaperTriples / generated
// triples).
type DatasetSpec struct {
	// ID names the dataset ("bsbm-500k", "bsbm-2m", "chem", "pubmed").
	ID string
	// Queries of this catalog dataset run on it.
	CatalogName string
	// Generate builds the graph; sizeMult scales the primary entity count
	// (1 = the default laptop size). The cost model's DataScale adjusts
	// automatically: paper-scale simulated volumes stay comparable.
	Generate func(sizeMult float64) *rdf.Graph
	// Cluster returns the simulated cluster configuration given the data
	// scale.
	Cluster func(dataScale float64) mapred.ClusterConfig
	// PaperTriples is the original dataset's approximate triple count.
	PaperTriples float64
}

// Specs lists the paper's four dataset deployments.
func Specs() []DatasetSpec {
	return []DatasetSpec{
		{
			ID:          "bsbm-500k",
			CatalogName: "bsbm",
			Generate: func(m float64) *rdf.Graph {
				cfg := datagen.BSBMSmall()
				cfg.Products = scaled(cfg.Products, m)
				return datagen.GenerateBSBM(cfg)
			},
			Cluster: mapred.VCL10,
			// BSBM-500K: 43GB, ~175M triples, 10-node cluster.
			PaperTriples: 175e6,
		},
		{
			ID:          "bsbm-2m",
			CatalogName: "bsbm",
			Generate: func(m float64) *rdf.Graph {
				cfg := datagen.BSBMLarge()
				cfg.Products = scaled(cfg.Products, m)
				return datagen.GenerateBSBM(cfg)
			},
			Cluster: mapred.VCL50,
			// BSBM-2M: 172GB, ~700M triples, 50-node cluster.
			PaperTriples: 700e6,
		},
		{
			ID:          "bsbm-zipf",
			CatalogName: "bsbm-skew",
			Generate: func(m float64) *rdf.Graph {
				cfg := datagen.BSBMZipf()
				cfg.Products = scaled(cfg.Products, m)
				return datagen.GenerateBSBMZipf(cfg)
			},
			Cluster: mapred.VCL10,
			// Same deployment as BSBM-500K; the skew, not the size, is the
			// point of this dataset.
			PaperTriples: 175e6,
		},
		{
			ID:          "bsbm-supernode",
			CatalogName: "bsbm-skew",
			Generate: func(m float64) *rdf.Graph {
				cfg := datagen.BSBMSupernode()
				cfg.Products = scaled(cfg.Products, m)
				return datagen.GenerateBSBMSupernode(cfg)
			},
			Cluster:      mapred.VCL10,
			PaperTriples: 175e6,
		},
		{
			ID:          "chem",
			CatalogName: "chem",
			Generate: func(m float64) *rdf.Graph {
				cfg := datagen.ChemDefault()
				cfg.Compounds = scaled(cfg.Compounds, m)
				return datagen.GenerateChem(cfg)
			},
			Cluster: mapred.VCL10,
			// Chem2Bio2RDF: 60GB, ~340M triples, 10-node cluster.
			PaperTriples: 340e6,
		},
		{
			ID:          "pubmed",
			CatalogName: "pubmed",
			Generate: func(m float64) *rdf.Graph {
				cfg := datagen.PubMedDefault()
				cfg.Publications = scaled(cfg.Publications, m)
				return datagen.GeneratePubMed(cfg)
			},
			Cluster: mapred.VCL60,
			// PubMed (Bio2RDF r2): 230GB, ~1.7B triples, 60-node cluster.
			PaperTriples: 1.7e9,
		},
	}
}

// SpecByID returns the dataset spec with the given id.
func SpecByID(id string) (DatasetSpec, bool) {
	for _, s := range Specs() {
		if s.ID == id {
			return s, true
		}
	}
	return DatasetSpec{}, false
}

func scaled(base int, mult float64) int {
	if mult <= 0 {
		mult = 1
	}
	n := int(float64(base) * mult)
	if n < 1 {
		n = 1
	}
	return n
}

// loadedDataset caches a generated and loaded dataset together with its
// cluster and the generated statements as IDs of ds.Dict, repeats
// included, which the oracle decodes.
type loadedDataset struct {
	cluster *mapred.Cluster
	ds      *engine.Dataset
	triples []rdf.IDTriple
}

// Loader generates and loads datasets on demand, caching them per spec id.
// Engines write temp files into each dataset's cluster FS; those are
// namespaced per run, so caching the base dataset is safe.
type Loader struct {
	// SizeMult scales every dataset's primary entity count (default 1).
	SizeMult float64
	// Storage selects the DFS backend for every loaded cluster: "mem",
	// "disk", or "" to honor the RAPID_STORAGE environment default (see
	// dfs.Resolve).
	Storage string
	// DataDir roots disk-backend storage: each dataset lives in the
	// subdirectory named by its spec id. Empty gives each dataset a fresh
	// directory under RAPID_DATA_DIR.
	DataDir string
	// SpillThresholdBytes bounds per-map-task buffered shuffle output (0
	// disables spilling). See mapred.ClusterConfig.SpillThresholdBytes.
	SpillThresholdBytes int64

	mu     sync.Mutex
	loaded map[string]*loadedDataset
}

// NewLoader returns an empty loader at the default size.
func NewLoader() *Loader { return &Loader{SizeMult: 1, loaded: map[string]*loadedDataset{}} }

// Load returns the cluster and dataset for a spec id, generating it on
// first use.
func (l *Loader) Load(id string) (*mapred.Cluster, *engine.Dataset, error) {
	d, err := l.load(id)
	if err != nil {
		return nil, nil, err
	}
	return d.cluster, d.ds, nil
}

// load is Load returning the cached entry.
func (l *Loader) load(id string) (*loadedDataset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d, ok := l.loaded[id]; ok {
		return d, nil
	}
	spec, ok := SpecByID(id)
	if !ok {
		return nil, fmt.Errorf("bench: unknown dataset %q", id)
	}
	dict := rdf.NewDict()
	triples := rdf.InternTriples(dict, nil, spec.Generate(l.SizeMult).Triples)
	cfg := spec.Cluster(spec.PaperTriples / float64(len(triples)))
	cfg.SpillThresholdBytes = l.SpillThresholdBytes
	c, err := l.newCluster(cfg, id)
	if err != nil {
		return nil, err
	}
	ds, err := engine.Load(c, spec.ID, rdf.NewIDGraph(dict, triples))
	if err != nil {
		return nil, fmt.Errorf("bench: loading %s: %w", id, err)
	}
	d := &loadedDataset{cluster: c, ds: ds, triples: triples}
	l.loaded[id] = d
	return d, nil
}

// newCluster builds the cluster for one dataset, honoring the loader's
// storage selection.
func (l *Loader) newCluster(cfg mapred.ClusterConfig, id string) (*mapred.Cluster, error) {
	dir := ""
	if l.DataDir != "" {
		dir = filepath.Join(l.DataDir, id)
	}
	fs, err := dfs.Resolve(l.Storage, dir)
	if err != nil {
		return nil, fmt.Errorf("bench: storage: %w", err)
	}
	return mapred.NewClusterFS(cfg, fs), nil
}

// DatasetsFor returns the spec ids a catalog query runs on: every spec
// whose CatalogName matches the query's dataset (BSBM queries run at both
// scales, skew queries on both skewed graphs, the others on their single
// deployment).
func DatasetsFor(q Query) []string {
	var ids []string
	for _, s := range Specs() {
		if s.CatalogName == q.Dataset {
			ids = append(ids, s.ID)
		}
	}
	return ids
}
