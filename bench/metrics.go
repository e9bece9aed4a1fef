package main

// metricDef names one metric as BENCHMARK.json declares it; the smoke
// test holds the two lists against each other.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the previous median by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	bound float64
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Two differ from the shape one would write first, because
// a bound that is a share of the previous median cannot gate a metric
// that is zero when all is well: traffic_saved is one minus the paper's
// traffic ratio (which is 0 on all-sky; the ratio itself is the
// per-layer server.traffic_ratio), and ok_share is one minus the failed
// share (client.failed_share).
//
// hit_rate and traffic_saved are bounded at about three times the
// widest spread — interquartile range over median — that ten runs on
// ten seeds showed on any workload (README, "Noise"): growing-sky's
// heavy-tailed result sizes make them move with the seed. The timing
// metrics and setup_s sit at the contract's ceiling, which is less than
// twice their spread on the shared two-core box this was sized on; its
// speed shifts by a quarter from one minute to the next.
var endToEnd = []metricDef{
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p95_us", "us", "lower", 0.25},
	{"hit_rate", "share", "higher", 0.06},
	{"traffic_saved", "share", "higher", 0.18},
	{"ok_share", "share", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, from the traced
// repetition; a layer is a package under internal/. They have no
// bound. A metric whose layer a workload does not have (cluster.* on
// paper-trace, sim.* off it) reads 0 there.
var perLayer = []metricDef{
	{"client.query_p99_us", "us", "lower", 0},
	{"client.self_us", "us", "lower", 0},
	{"client.add_objects_us", "us", "lower", 0},
	{"client.failed_share", "share", "lower", 0},

	{"netproto.roundtrip_us", "us", "lower", 0},
	{"netproto.codec_ns_per_query", "ns", "lower", 0},
	{"netproto.codec_allocs_per_query", "count", "lower", 0},
	{"netproto.wire_bytes_per_query", "B", "lower", 0},

	{"cluster.router_us", "us", "lower", 0},
	{"cluster.router_self_us", "us", "lower", 0},
	{"cluster.result_cache_hit_share", "share", "higher", 0},
	{"cluster.coalesced_share", "share", "higher", 0},
	{"cluster.scattered_share", "share", "lower", 0},
	{"cluster.fragments_per_query", "count", "lower", 0},
	{"cluster.invalidations_per_update", "count", "lower", 0},
	{"cluster.births_per_grant_batch", "count", "higher", 0},
	{"cluster.invalidation_lag_p50_us", "us", "lower", 0},
	{"cluster.retried_share", "share", "lower", 0},
	{"cluster.spawn_s", "s", "lower", 0},

	{"cache.fragment_us", "us", "lower", 0},
	{"cache.fragment_self_us", "us", "lower", 0},
	{"cache.load_us", "us", "lower", 0},
	{"cache.at_cache_share", "share", "higher", 0},
	{"cache.deduped_loads", "count", "higher", 0},
	{"cache.shard_imbalance", "count", "lower", 0},
	{"cache.dropped_invalidations", "count", "lower", 0},
	{"cache.invalidation_lag_p50_us", "us", "lower", 0},
	{"cache.stale_answers_per_probe", "count", "lower", 0},

	{"core.on_query_us", "us", "lower", 0},
	{"core.on_query_p99_us", "us", "lower", 0},
	{"core.on_update_us", "us", "lower", 0},
	{"core.busy_share", "share", "lower", 0},
	{"core.loads", "count", "lower", 0},
	{"core.evictions", "count", "lower", 0},

	{"server.exec_us", "us", "lower", 0},
	{"server.apply_update_us", "us", "lower", 0},
	{"server.bytes.query_ship", "B", "lower", 0},
	{"server.bytes.update_ship", "B", "lower", 0},
	{"server.bytes.object_load", "B", "lower", 0},
	{"server.traffic_ratio", "share", "lower", 0},
	{"server.ledger_mismatch_bytes", "B", "lower", 0},

	{"sim.traffic_ratio.nocache", "share", "lower", 0},
	{"sim.traffic_ratio.replica", "share", "lower", 0},
	{"sim.traffic_ratio.benefit", "share", "lower", 0},
	{"sim.traffic_ratio.vcover", "share", "lower", 0},
	{"sim.traffic_ratio.soptimal", "share", "lower", 0},
	{"sim.live_divergence", "share", "lower", 0},

	{"workload.generate_s", "s", "lower", 0},
	{"catalog.new_survey_s", "s", "lower", 0},

	{"runtime.cpu_us_per_query", "us", "lower", 0},
	{"runtime.allocs_per_query", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.live_heap_mb", "MB", "lower", 0},

	{"obs.trace_overhead_share", "share", "lower", 0},
}
