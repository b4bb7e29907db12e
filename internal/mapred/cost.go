package mapred

import "math"

// ClusterConfig describes the simulated Hadoop deployment and the cost
// model's calibration constants. The paper's experiments ran on NCSU VCL
// clusters of 10, 50 and 60 dual-core nodes (2.33GHz, 4GB RAM, 128MB HDFS
// blocks); the presets below mirror those.
//
// Datasets in this repository are scaled down to laptop size; DataScale
// extrapolates measured volumes back to paper scale so simulated seconds
// are comparable in magnitude to the published numbers. All *relative*
// results (which engine wins, by what factor) are unaffected by DataScale:
// it multiplies every job's volumes uniformly.
type ClusterConfig struct {
	// Nodes is the cluster size.
	Nodes int
	// MapSlotsPerNode and ReduceSlotsPerNode mirror Hadoop 0.20 task slots
	// (dual-core nodes: 2 map + 2 reduce slots).
	MapSlotsPerNode int
	// ReduceSlotsPerNode is the per-node reduce slot count.
	ReduceSlotsPerNode int
	// BlockSizeBytes is the simulated HDFS block size (paper: 128MB).
	BlockSizeBytes int64
	// DataScale multiplies measured volumes before cost modelling.
	DataScale float64

	// JobStartupSec is the fixed per-job overhead (JVM spawn, scheduling).
	JobStartupSec float64
	// TaskStartupSec is the per-task-wave overhead.
	TaskStartupSec float64
	// DiskMBps is per-slot sequential disk bandwidth.
	DiskMBps float64
	// NetMBps is per-node shuffle bandwidth.
	NetMBps float64
	// CPUSecPerMRecord is the fixed processing cost per million records
	// (object churn, per-record dispatch), independent of record width.
	CPUSecPerMRecord float64
	// CPUSecPerMB is the byte-proportional processing cost per logical MB
	// flowing through a task: serialisation, comparison and copying in the
	// sort pipeline all scale with record width. Narrow records — e.g.
	// dictionary-encoded ID tuples — are therefore cheaper per record than
	// wide lexical ones, matching real Hadoop behaviour.
	CPUSecPerMB float64
	// DecompressSecPerMB is extra CPU per uncompressed MB for compressed
	// inputs (the ORC effect).
	DecompressSecPerMB float64
	// ReplicationFactor is HDFS write amplification for materialised
	// output.
	ReplicationFactor float64

	// ExecSplitBytes is the *execution* split size used to bound real
	// in-process map-task granularity; it does not affect the cost model.
	ExecSplitBytes int64
	// SpillThresholdBytes bounds a map task's buffered shuffle output
	// during *execution*: when the buffered key+value bytes reach the
	// threshold the task combines, sorts and spills each partition's buffer
	// to the DFS, and the shuffle merges spill runs back in. 0 disables
	// spilling (everything stays resident). Result rows, ReduceGroups and
	// the Output{Records,Bytes,StoredBytes} of every job are identical for
	// every setting. For a job with a combiner the shuffled volume is not:
	// combining runs once per spill run, so a threshold leaves
	// MapOutputRecords/MapOutputBytes a little higher, and
	// SimulatedRedTasks and SimSeconds, which the cost model derives from
	// them, follow (bench.TestModesIdentical pins exactly this split).
	SpillThresholdBytes int64
}

// DefaultConfig returns the 10-node VCL-like cluster used for BSBM-500K and
// Chem2Bio2RDF experiments.
func DefaultConfig() ClusterConfig {
	return ClusterConfig{
		Nodes:              10,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		BlockSizeBytes:     128 << 20,
		DataScale:          1,
		JobStartupSec:      18,
		TaskStartupSec:     2,
		DiskMBps:           50,
		NetMBps:            25,
		// Calibrated so a ~55-byte lexical record costs the same ~6s per
		// million records as the previous record-count-only model.
		CPUSecPerMRecord:   1,
		CPUSecPerMB:        0.09,
		DecompressSecPerMB: 0.02,
		ReplicationFactor:  2,
		ExecSplitBytes:     4 << 20,
	}
}

// VCL10 is the paper's 10-node cluster (BSBM-500K, Chem2Bio2RDF runs).
func VCL10(dataScale float64) ClusterConfig {
	c := DefaultConfig()
	c.DataScale = dataScale
	return c
}

// VCL50 is the paper's 50-node cluster (BSBM-2M scalability runs).
func VCL50(dataScale float64) ClusterConfig {
	c := DefaultConfig()
	c.Nodes = 50
	c.DataScale = dataScale
	return c
}

// VCL60 is the paper's 60-node cluster (PubMed runs).
func VCL60(dataScale float64) ClusterConfig {
	c := DefaultConfig()
	c.Nodes = 60
	c.DataScale = dataScale
	return c
}

// cost fills in m.SimSeconds and the simulated task counts from the job's
// measured volumes.
func (cfg ClusterConfig) cost(m *Metrics) {
	scale := cfg.DataScale
	if scale <= 0 {
		scale = 1
	}
	mb := func(bytes float64) float64 { return bytes / (1 << 20) }

	storedIn := float64(m.MapStoredBytes) * scale
	logicalIn := float64(m.MapInputBytes) * scale
	records := float64(m.MapInputRecords) * scale
	mapSlots := float64(cfg.Nodes * cfg.MapSlotsPerNode)

	mapTasks := math.Ceil(storedIn / float64(cfg.BlockSizeBytes))
	if mapTasks < 1 {
		mapTasks = 1
	}
	m.SimulatedMapTasks = int(mapTasks)
	waves := math.Ceil(mapTasks / mapSlots)

	perTaskStored := storedIn / mapTasks
	perTaskLogical := logicalIn / mapTasks
	perTaskRecords := records / mapTasks
	// Every record a mapper emits is serialised and sorted into the
	// map-side buffer before any combiner runs — the work in-mapper hash
	// aggregation (Algorithm 3) avoids by emitting once per group. The
	// byte-proportional component uses the post-combine output bytes as the
	// emit-width proxy (pre-combine emit bytes are not metered).
	perTaskEmits := float64(m.MapEmitRecords) * scale / mapTasks
	perTaskEmitBytes := float64(m.MapOutputBytes) * scale / mapTasks
	taskTime := cfg.TaskStartupSec +
		mb(perTaskStored)/cfg.DiskMBps +
		perTaskRecords/1e6*cfg.CPUSecPerMRecord +
		perTaskEmits/1e6*cfg.CPUSecPerMRecord +
		(mb(perTaskLogical)+mb(perTaskEmitBytes))*cfg.CPUSecPerMB
	if storedIn < logicalIn {
		taskTime += mb(perTaskLogical) * cfg.DecompressSecPerMB
	}
	// Broadcast side inputs are read by every map task.
	taskTime += mb(float64(m.SideInputBytes)*scale) / cfg.DiskMBps

	mapOutBytes := float64(m.MapOutputBytes) * scale
	outStored := float64(m.OutputStoredBytes) * scale
	total := cfg.JobStartupSec

	if m.MapOnly {
		// Output written directly by map tasks.
		active := math.Min(mapTasks, mapSlots)
		writeTime := mb(outStored*cfg.ReplicationFactor) / (cfg.DiskMBps * active)
		total += waves*taskTime + writeTime
		m.SimulatedRedTasks = 0
	} else {
		// Map-side spill: map output written and re-read locally.
		taskTime += mb(mapOutBytes/mapTasks) / cfg.DiskMBps * 2
		total += waves * taskTime

		redSlots := float64(cfg.Nodes * cfg.ReduceSlotsPerNode)
		redTasks := math.Ceil(mapOutBytes / float64(cfg.BlockSizeBytes))
		if redTasks < 1 {
			redTasks = 1
		}
		if redTasks > redSlots {
			redTasks = redSlots
		}
		m.SimulatedRedTasks = int(redTasks)
		// Shuffle over the network, limited by aggregate receive bandwidth
		// of the nodes hosting reducers.
		shuffleNodes := math.Min(redTasks, float64(cfg.Nodes))
		total += mb(mapOutBytes) / (cfg.NetMBps * shuffleNodes)
		// Merge-sort and reduce.
		perRed := mapOutBytes / redTasks
		redTime := cfg.TaskStartupSec +
			mb(perRed)/cfg.DiskMBps*1.5 +
			float64(m.MapOutputRecords)*scale/redTasks/1e6*cfg.CPUSecPerMRecord +
			mb(perRed)*cfg.CPUSecPerMB +
			mb(outStored*cfg.ReplicationFactor/redTasks)/cfg.DiskMBps
		total += redTime
	}
	m.SimSeconds = total
}
