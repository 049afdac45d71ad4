//! The metric catalogue: every metric the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a test holds the two equal).

/// Printed with `--trace 0`: what a user submitting specs sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("report_ms_p50", "ms"),
    ("report_ms_p90", "ms"),
    ("node_slots_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Printed with `--trace 1`: the traced pass over the first
/// [`crate::TRACE_OPS`] ops. Times are means per traced op; counts and bytes
/// are totals over the pass.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("compiled.schedule_ms", "ms"),
    ("frames.adjacency_ms", "ms"),
    ("frames.plan_ms", "ms"),
    ("cache.trace_ms", "ms"),
    ("cache.trace_bytes", "bytes"),
    ("cache.schedules.hits", "count"),
    ("cache.schedules.misses", "count"),
    ("cache.adjacencies.hits", "count"),
    ("cache.adjacencies.misses", "count"),
    ("cache.plans.hits", "count"),
    ("cache.plans.misses", "count"),
    ("cache.traces.hits", "count"),
    ("cache.traces.misses", "count"),
    ("cache.searches.hits", "count"),
    ("cache.searches.misses", "count"),
    ("sweep.run_ms", "ms"),
    ("sweep.parse_ms", "ms"),
    ("report.json_ms", "ms"),
    ("simkernel.ns_per_node_slot", "ns"),
    ("simkernel.node_slots", "count"),
    ("simkernel.dispatch.analytic", "count"),
    ("simkernel.dispatch.partial_analytic", "count"),
    ("simkernel.dispatch.lane_scalar", "count"),
    ("simkernel.dispatch.lane_bernoulli", "count"),
    ("simkernel.dispatch.conflict_free", "count"),
    ("simkernel.dispatch.general_loop", "count"),
    ("simkernel.lane_fill", "fraction"),
    ("aggregate.merge_ms", "ms"),
    ("aggregate.groups", "count"),
    ("parallel.cpu_util", "fraction"),
    ("parallel.steal_claims", "count"),
    ("parallel.speedup", "ratio"),
    ("search.run_ms", "ms"),
    ("search.candidates", "count"),
    ("sweep.panics", "count"),
    ("sweep.errors", "count"),
    ("ops_failed_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
