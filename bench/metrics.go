package main

// The metric tables. BENCHMARK.json at the repository root lists the same
// names, units and bounds; the tier-1 test keeps the two in step.
//
// Host time and virtual (simulated) time are never mixed in one number:
// the unit says which. "s", "ms" and "ns" are host time; "virtual_ms" is
// time on the simulation's clock, exact per seed.

// endToEnd are the metrics every workload BENCHMARK.json lists reports,
// none of them ever 0; churnfeed1k and predict2k, which only the suite
// runs, report the ones that apply to them. Bound is the share of the parent's median by
// which a metric may get worse before a change counts as a regression.
var endToEnd = []metricDef{
	// Trace and data generation, cluster construction, the benchmark's
	// oracle and the warm-up to the window start: wall time, median of
	// the repetitions.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Process user+system CPU time over the measured window, median of
	// the repetitions.
	{Name: "run_cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Bytes allocated during the window (TotalAlloc delta).
	{Name: "run_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	// HeapAlloc after a forced collection at window end, the cluster (or
	// the study's results) still referenced.
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	// Injection to the first ResultUpdate: median and supported tail.
	{Name: "ttfr_ms_p50", Unit: "virtual_ms", Better: "lower", Bound: 0.20},
	{Name: "ttfr_ms_tail", Unit: "virtual_ms", Better: "lower", Bound: 0.15},
	// Injection to the first update whose Count reaches 99% of the
	// available truth; a query short of it when it ends is charged its
	// whole lifetime.
	{Name: "t99_ms_p50", Unit: "virtual_ms", Better: "lower", Bound: 0.05},
	{Name: "t99_ms_tail", Unit: "virtual_ms", Better: "lower", Bound: 0.10},
	// Rows received by the time each query ended over the all-endsystem
	// truth, mean over queries. One percent of it is at most one point.
	{Name: "completeness_end_pct", Unit: "%", Better: "higher", Bound: 0.01},
	// 100 minus predictor_err_pct: how closely the completeness predictor
	// tracked the rows that actually arrived. The error itself is a
	// fraction of a point on most workloads, too small for a relative
	// bound; as a fit, one point of error is one percent.
	{Name: "predictor_fit_pct", Unit: "%", Better: "higher", Bound: 0.01},
	// ClassQuery bytes sent in the window per query injected.
	{Name: "query_bytes_per_query", Unit: "bytes", Better: "lower", Bound: 0.02},
	// ClassPastry + ClassMaintenance bytes sent per endsystem per virtual
	// second: the paper's maintenance-overhead axis.
	{Name: "maint_bytes_per_node_s", Unit: "bytes/s", Better: "lower", Bound: 0.02},
}

// perLayer are the metrics of single layers and of single query stages.
// They have no bound. A workload reports 0 for one that does not apply to
// it.
var perLayer = concat(
	// Beside the end-to-end delays: the percentile *_tail stands for, how
	// many queries were charged their lifetime, and the predictor's error
	// under the name the fit is derived from.
	defs("percentile", "higher", "tail_pct"),
	defs("count", "lower", "censored"),
	defs("points", "lower", "predictor_err_pct"),

	// Counts read after each workload run, over the measured window; exact
	// per seed. Scanned and pruned rows are separate numbers.
	defs("count", "lower", "simnet.events", "simnet.sends", "simnet.lost"),
	defs("bytes", "lower", "simnet.bytes_pastry", "simnet.bytes_maint", "simnet.bytes_query"),
	defs("hops", "lower", "pastry.hops_mean"),
	defs("count", "lower", "pastry.joins", "pastry.leafset_repairs", "pastry.stale_retries",
		"metadata.pushes", "metadata.rereplications", "dissem.range_msgs", "dissem.reissues"),
	defs("virtual_ms", "lower", "dissem.predictor_latency_ms_p50"),
	defs("count", "lower", "aggtree.submissions", "aggtree.partials_merged", "aggtree.resubmits",
		"aggtree.takeovers", "aggtree.dup_contributions"),
	defs("virtual_ms", "lower", "aggtree.fanin_delay_ms_p50"),
	defs("rows", "lower", "relq.rows_scanned", "relq.rows_matched"),
	defs("blocks", "higher", "relq.blocks_pruned"),
	defs("ratio", "higher", "relq.plan_cache_hit_ratio"),
	defs("count", "higher", "core.queries"),
	defs("count", "lower", "core.events_per_query", "core.allocs_per_event"),
	defs("s", "lower", "host.wall_s"),
	defs("1/s", "higher", "host.events_per_cpu_s"),

	// Layer drivers: each layer alone, through its exported functions, on
	// seeded inputs; median of driverRuns runs.
	defs("ns", "lower", "ids.op_ns", "simnet.wheel_ns_per_event", "simnet.send_ns_per_msg",
		"pastry.route_ns_per_msg", "pastry.route_ns_per_hop", "pastry.join_ns", "metadata.push_ns",
		"dissem.ns_per_range_msg", "aggtree.ns_per_submission", "agg.merge_ns", "agg.codec_ns",
		"relq.scan_ns_per_row_unpruned", "relq.scan_ns_per_row_prunable", "relq.parse_bind_ns",
		"relq.insert_ns_per_row", "histogram.build_ns_per_value", "histogram.estimate_ns",
		"predictor.addmodel_ns", "predictor.merge_ns", "avail.learn_ns", "avail.probupby_ns",
		"anemone.gen_ns_per_row", "coords.observe_ns", "obs.observe_ns"),
	defs("ms", "lower", "relq.summary_build_ms", "avail.gen_ms", "coords.scope_build_ms"),
	defs("allocs", "lower", "simnet.wheel_allocs_per_event", "simnet.send_allocs_per_msg"),
	defs("bytes", "lower", "metadata.push_bytes", "histogram.encoded_bytes"),
	defs("msgs", "lower", "dissem.msgs_per_query", "aggtree.msgs_per_submission"),

	// From the traced repetition: each profile sample charged to the
	// innermost frame under repro/internal/<layer> (the shares sum to 1),
	// and the virtual-time critical path of each query split by phase.
	cpuShareDefs(),
	defs("virtual_ms", "lower", "phase.routing_ms", "phase.retry_backoff_ms",
		"phase.availability_wait_ms", "phase.execution_ms", "phase.aggregation_ms", "phase.other_ms"),
	defs("%", "lower", "trace_overhead_pct", "trace.unattributed_pct"),
	defs("count", "higher", "trace.profile_samples"),
	defs("s", "lower", "trace.run_until_self_s"),
)

func defs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

func cpuShareDefs() []metricDef {
	var names []string
	for _, l := range layers {
		names = append(names, l+".cpu_share")
	}
	return defs("share", "lower", append(names, "runtime_gc.cpu_share", "other.cpu_share")...)
}

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
