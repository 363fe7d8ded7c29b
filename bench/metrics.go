package main

import "fmt"

// metricDef declares one metric; BENCHMARK.json carries the same list
// and a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// endToEnd are the figures a user of reprod would see. Every workload
// reports all of them, always with tracing off against the real process.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"server_cpu_us_per_query", "us", "lower", 0.25},
	{"server_peak_rss_mb", "MB", "lower", 0.25},
	{"recall_at_30", "fraction", "higher", 0.08},
}

// timedLayer are single-layer figures, named after the repo's modules,
// that any timed run yields: counts read at public boundaries. Per-layer
// metrics carry no bound.
var timedLayer = []metricDef{
	{Name: "server.shed_inflight", Unit: "count", Better: "lower"},
	{Name: "server.shed_tenant", Unit: "count", Better: "lower"},
	{Name: "server.deadline_miss", Unit: "count", Better: "lower"},
	{Name: "server.errors_5xx", Unit: "count", Better: "lower"},
	{Name: "server.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "repro.engine_wall_us_mean", Unit: "us", Better: "lower"},
	{Name: "search.chunks_per_query", Unit: "count", Better: "lower"},
	{Name: "simdisk.sim_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "simdisk.sim_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "shard.reads_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.read_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "chunkcache.hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "chunkcache.evictions_per_query", Unit: "count", Better: "lower"},
	{Name: "chunkcache.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "batchexec.store_reads_per_charged_chunk", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.achieved_rate_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.failed_share", Unit: "fraction", Better: "lower"},
	{Name: "mixed.search_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed.search_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed.multi_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed.batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "build.generate_s", Unit: "s", Better: "lower"},
	{Name: "build.index_s", Unit: "s", Better: "lower"},
	{Name: "build.save_s", Unit: "s", Better: "lower"},
	{Name: "build.index_mb", Unit: "MB", Better: "lower"},
	{Name: "reprod.open_s", Unit: "s", Better: "lower"},
	{Name: "reprod.warm_s", Unit: "s", Better: "lower"},
}

// tracedLayer are the per-layer figures only the traced session yields.
var tracedLayer = []metricDef{
	// Span self-times of the traced in-process run.
	{Name: "client.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.self_us_p99", Unit: "us", Better: "lower"},
	{Name: "server.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.self_us_p99", Unit: "us", Better: "lower"},
	{Name: "repro.backend_us_p50", Unit: "us", Better: "lower"},
	{Name: "repro.backend_us_p99", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	// Stage probes: each layer's public function in a tight loop.
	{Name: "server.decode_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "repro.search_into_us", Unit: "us", Better: "lower"},
	{Name: "repro.batch_into_us_per_query", Unit: "us", Better: "lower"},
	{Name: "repro.multi_us_per_descriptor", Unit: "us", Better: "lower"},
	{Name: "repro.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "search.rank_us", Unit: "us", Better: "lower"},
	{Name: "search.scan_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "chunkfile.read_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "chunkfile.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "chunkcache.hit_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "chunkcache.miss_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "vec.kernel_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "knn.offer_ns", Unit: "ns", Better: "lower"},
	// Rate ladder: open-loop /search at fixed rates.
	{Name: "ladder.search_p99_ms_at_500", Unit: "ms", Better: "lower"},
	{Name: "ladder.search_p99_ms_at_1000", Unit: "ms", Better: "lower"},
	{Name: "ladder.search_p99_ms_at_1500", Unit: "ms", Better: "lower"},
	{Name: "ladder.max_rate_under_5ms", Unit: "1/s", Better: "higher"},
}

// perLayer is every per-layer metric, as BENCHMARK.json lists them.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), timedLayer...), tracedLayer...)
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks the declared metrics out of values, in declaration
// order. A declared metric without a value is a bug in the harness.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
