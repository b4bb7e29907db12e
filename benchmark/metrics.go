package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	ra "rapidanalytics"
)

// specFile is BENCHMARK.json at the root of the checkout: the benchmark's
// contract. Units, directions and bounds live only there; the names are
// repeated in this file so that a run can tell a misspelt metric from a
// missing one.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the checkout: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// The four exact counts: bit-identical between runs of one commit at one
// seed, on every workload.
var exactCounts = []string{
	"mr_cycles_per_pass", "shuffle_bytes_per_pass", "materialized_bytes_per_pass", "sim_seconds_per_pass",
}

// endToEndNames are what a user of the system sees, reported by every
// workload. An operation is one cell execution (batch) or one HTTP request
// (serve-zipf); a pass is one sweep over the cells or one replay of the
// schedule.
func endToEndNames() []string {
	return append([]string{
		"setup_s", "pass_wall_s", "pass_cpu_s", "allocs_per_pass", "alloc_mb_per_pass", "peak_rss_mb",
		"qps",
	}, exactCounts...)
}

// engineKeys name the four systems inside metric names ("rapid+" has a
// character names may not contain).
var engineKeys = map[ra.System]string{
	ra.HiveNaive:      "hive-naive",
	ra.HiveMQO:        "hive-mqo",
	ra.RAPIDPlus:      "rapidplus",
	ra.RAPIDAnalytics: "rapidanalytics",
}

// operatorLabels are the operator span names with a metric of their own;
// any other label ("identity", an unlabelled "map") folds into op.other.s.
var operatorLabels = []string{
	"TG_OptGrpFilter", "TG_AlphaJoin", "TG_AgJ.map", "TG_AgJ.reduce",
	"vp-scan", "star-join", "star-map-join", "hash-join", "map-join",
	"partial-agg", "group-agg", "project", "distinct", "final-join", "order-by",
}

func opMetric(label string) string { return "op." + label + ".s" }

// perLayerNames lists every per-layer metric. Each workload's traced run
// reports all of them; a metric whose layer the workload does not drive
// (spill on a memory DFS, the HTTP server on a batch workload) reads 0.
func perLayerNames() []string {
	var names []string
	for _, sys := range ra.Systems() {
		e := engineKeys[sys]
		names = append(names,
			"engine."+e+".wall_s", "engine."+e+".other_s", "engine."+e+".cycles", "engine."+e+".map_only_cycles",
			"mapred."+e+".map_s", "mapred."+e+".shuffle_sort_s", "mapred."+e+".reduce_s")
	}
	names = append(names,
		"mapred.map_records", "mapred.shuffle_records", "mapred.reduce_records",
		"mapred.map_parallel_efficiency", "mapred.cycle_self_s", "mapred.phase_self_s",
		"mapred.spill_runs", "mapred.spill_bytes", "mapred.spill_write_s", "mapred.spill_read_s",
		"mapred.framework_ns_per_record")
	for _, l := range operatorLabels {
		names = append(names, opMetric(l))
	}
	names = append(names, "op.other.s",
		"algebra.planner_s", "algebra.build_us", "stats.collect_s",
		"sparql.parse_us", "plancache.prepare_hit_us", "plancache.prepare_miss_us",
		"plancache.plan_hit_ratio", "plancache.result_hit_ratio", "plancache.result_evictions",
		"dfs.write_s", "dfs.stream_write_s", "dfs.write_bytes", "dfs.stream_bytes",
		"vec.build_ns_per_row", "vec.append_record_ns_per_row",
		"blockstore.write_mb_s", "blockstore.scan_mb_s", "blockstore.stored_per_user_byte",
		"codec.encode_ids_ns_per_tuple", "codec.decode_ids_ns_per_tuple", "ntga.decode_tg_ns_per_record",
		"rdf.dict_lex_ns", "rdf.dict_build_s", "rdf.ntriples_parse_s",
		"store.build_vp_s", "store.build_tg_s", "engine.load_s",
		"share.shared_cycles", "share.served_per_scanned",
		"latency_ms_p50", "latency_ms_p90",
		"server.hit_latency_ms_p50", "server.latency_ms_p99", "server.rejected", "server.bytes_out_mb",
		"obs.tracing_overhead_pct", "runtime.gc_cycles_per_pass", "runtime.gc_pause_ms_per_pass",
		"runtime.heap_inuse_peak_mb", "failed_share")
	return names
}

// metricSet holds one run's values under a fixed list of names. Every name
// starts at 0; setting an unknown name is a bug in the benchmark.
type metricSet struct {
	values map[string]float64
}

func newMetricSet(names []string) *metricSet {
	m := &metricSet{values: make(map[string]float64, len(names))}
	for _, n := range names {
		m.values[n] = 0
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.values[name]; !ok {
		panic("benchmark bug: metric " + name + " is not in the run's name list")
	}
	m.values[name] = v
}

func (m *metricSet) add(name string, v float64) { m.set(name, m.values[name]+v) }

func (m *metricSet) get(name string) float64 { return m.values[name] }

// checkAgainst reports a difference between the names a run produced and
// the names BENCHMARK.json lists for its mode.
func (m *metricSet) checkAgainst(listed []metricSpec) error {
	want := map[string]bool{}
	for _, s := range listed {
		want[s.Name] = true
		if _, ok := m.values[s.Name]; !ok {
			return fmt.Errorf("%s lists %q, which the run does not produce", specFile, s.Name)
		}
	}
	var extra []string
	for n := range m.values {
		if !want[n] {
			extra = append(extra, n)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("the run produces %v, which %s does not list", extra, specFile)
	}
	return nil
}
