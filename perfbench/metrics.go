package main

// metricDef declares one reported metric. The end-to-end set is what
// every untraced run prints and the per-layer set what every traced run
// prints; BENCHMARK.json at the repository root lists the same names
// (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// about says what the metric is on each workload (end-to-end) or
	// which end-to-end metric on which workload it should move
	// (per-layer).
	about string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"set-up time, median of 3 set-ups per run: generation, rendering, reference estimates (daemon-mix: also efesd start and the initial uploads)"},
	{"latency_ms.p50", "ms", "lower", 0.25,
		"estimate_ms.p50 on paper-scale and source-selection (daemon-mix: request_ms.p50, all routes, from due time)"},
	{"latency_ms.tail", "ms", "lower", 0.25,
		"highest percentile with 10 samples beyond it, up to p99: estimate_ms.p99 on source-selection, about p83 at ~60 ops on paper-scale"},
	{"ops_per_s", "1/s", "higher", 0.25,
		"estimates_per_s, closed loop with one caller (daemon-mix: saturation_rps over nproc connections)"},
	{"peak_rss_mb", "MB", "lower", 0.1,
		"VmHWM of the workload process (daemon-mix: of the efesd child)"},
}

var perLayer = []metricDef{
	{"relational.ingest_ms", "ms", "lower", 0, "estimate_ms.p50, estimates_per_s on paper-scale; upload tail of request_ms.p99 under the daemon-mix load"},
	{"relational.ingest_mb_per_s", "MB/s", "higher", 0, "estimate_ms.p50, estimates_per_s on paper-scale; upload tail of request_ms.p99 under the daemon-mix load"},
	{"relational.vectorize_ms", "ms", "lower", 0, "estimate_ms.p50 on paper-scale; predicted no change on source-selection (vectors warm)"},
	{"profile.ms", "ms", "lower", 0, "estimate_ms on paper-scale and source-selection"},
	{"profile.columns", "count", "lower", 0, "estimate_ms on paper-scale and source-selection"},
	{"profile.hit_ratio", "ratio", "higher", 0, "request_ms.p50 under the daemon-mix load"},
	{"csg.build_ms", "ms", "lower", 0, "estimate_ms.p50 on paper-scale"},
	{"csg.search_ms", "ms", "lower", 0, "estimate_ms.p50/p99 on source-selection"},
	{"csg.paths", "count", "lower", 0, "estimate_ms.p50/p99 on source-selection"},
	{"structure.detect_ms", "ms", "lower", 0, "estimate_ms on paper-scale and source-selection"},
	{"structure.self_ms", "ms", "lower", 0, "estimate_ms on paper-scale and source-selection"},
	{"structure.plan_ms", "ms", "lower", 0, "estimate_ms.p50/p99 on source-selection; predicted no change on paper-scale"},
	{"mapping.detect_ms", "ms", "lower", 0, "estimate_ms.p50/p99 on source-selection; predicted no change on paper-scale"},
	{"mapping.plan_ms", "ms", "lower", 0, "estimate_ms.p50/p99 on source-selection; predicted no change on paper-scale"},
	{"valuefit.detect_ms", "ms", "lower", 0, "estimate_ms.p50/p99 on source-selection (Algorithm 1 on a warm profiler)"},
	{"valuefit.plan_ms", "ms", "lower", 0, "estimate_ms.p50/p99 on source-selection; predicted no change on paper-scale"},
	{"effort.price_ms", "ms", "lower", 0, "estimate_ms.p50/p99 on source-selection; predicted no change on paper-scale"},
	{"match.ms", "ms", "lower", 0, "the /v1/match share of request_ms.p99 under the daemon-mix load"},
	{"core.encode_ms", "ms", "lower", 0, "miss and upload latency, request_ms.p50, saturation_rps under the daemon-mix load"},
	{"persist.hash_ms", "ms", "lower", 0, "miss and upload latency, request_ms.p50, saturation_rps under the daemon-mix load"},
	{"persist.result_hit_ratio", "ratio", "higher", 0, "request_ms.p50, saturation_rps under the daemon-mix load"},
	{"persist.evictions", "count", "lower", 0, "request_ms.p50, saturation_rps under the daemon-mix load"},
	{"persist.bytes", "bytes", "lower", 0, "request_ms.p50, saturation_rps under the daemon-mix load"},
	{"efesd.upload_ms.p50", "ms", "lower", 0, "request_ms under the daemon-mix load (which route sets the tail)"},
	{"efesd.upload_ms.p99", "ms", "lower", 0, "request_ms.p99 under the daemon-mix load"},
	{"efesd.estimate_hit_ms.p50", "ms", "lower", 0, "request_ms.p50 under the daemon-mix load"},
	{"efesd.estimate_hit_ms.p99", "ms", "lower", 0, "request_ms.p99 under the daemon-mix load"},
	{"efesd.estimate_miss_ms.p50", "ms", "lower", 0, "request_ms under the daemon-mix load"},
	{"efesd.estimate_miss_ms.p99", "ms", "lower", 0, "request_ms.p99 under the daemon-mix load"},
	{"efesd.profile_ms.p50", "ms", "lower", 0, "request_ms.p50 under the daemon-mix load"},
	{"efesd.profile_ms.p99", "ms", "lower", 0, "request_ms.p99 under the daemon-mix load"},
	{"efesd.match_ms.p50", "ms", "lower", 0, "request_ms under the daemon-mix load"},
	{"efesd.match_ms.p99", "ms", "lower", 0, "request_ms.p99 under the daemon-mix load"},
	{"efesd.shed", "count", "lower", 0, "failed ops and request_ms.p99 under the daemon-mix load"},
	{"efesd.degraded", "count", "lower", 0, "failed ops under the daemon-mix load"},
	{"loadgen.late_ms.p99", "ms", "lower", 0, "validates the open loop of the daemon phase; not a program metric"},
	{"loadgen.backlog_max", "count", "lower", 0, "validates the open loop of the daemon phase; not a program metric"},
	{"trace.coverage", "ratio", "higher", 0, "share of the untraced op time the layer spans account for"},
	{"trace.overhead_ms", "ms", "lower", 0, "traced minus untraced time of the layer-by-layer op"},
}
