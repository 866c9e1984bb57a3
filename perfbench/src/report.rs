//! The metric catalogue and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("harness.build_ms", "ms"),
    ("harness.and_gates", "count"),
    ("cases.constraints_ms", "ms"),
    ("cases.count", "count"),
    ("runner.overhead_ms", "ms"),
    ("runner.critical_path_ms", "ms"),
    ("sched.escalations", "count"),
    ("bdd.engine_ms", "ms"),
    ("bdd.ite_calls", "count"),
    ("bdd.cache_hits", "count"),
    ("bdd.cache_misses", "count"),
    ("bdd.cache_hit_ratio", "ratio"),
    ("bdd.cache_evictions", "count"),
    ("bdd.unique_probes", "count"),
    ("bdd.nodes_allocated", "count"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_freed", "count"),
    ("bdd.arena_peak_nodes", "count"),
    ("bdd.care_nodes", "count"),
    ("sweep.ms", "ms"),
    ("sweep.sat_calls", "count"),
    ("sweep.merges", "count"),
    ("sweep.merge_ratio", "ratio"),
    ("sweep.sim_rounds", "count"),
    ("sweep.ands_removed", "count"),
    ("tseitin.ms", "ms"),
    ("tseitin.clauses", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.restarts", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("cache.dispatch_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.hit_ratio", "ratio"),
    ("campaign.clean_ms", "ms"),
    ("campaign.mutant_ms", "ms"),
    ("campaign.warm_ms", "ms"),
    ("campaign.screened_out", "count"),
    ("campaign.cases_run", "count"),
    ("campaign.cases_replayed", "count"),
    ("cex.replay_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Values by metric name. Accumulating helpers keep layer code short.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// An empty set.
    pub fn new() -> Values {
        Values::default()
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Adds `value` to `name` (from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Raises `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// The value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `name` to `num / den`, or 0 when `den` is 0.
    pub fn ratio(&mut self, name: &'static str, num: &str, den: f64) {
        let value = if den > 0.0 { self.get(num) / den } else { 0.0 };
        self.set(name, value);
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `catalogue` with its unit, in catalogue order.
///
/// # Panics
/// Panics if a value is missing or not finite: every catalogued metric
/// must be measured, and JSON has no NaN.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = *values
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest decimal that reads back to the same
        // f64: all the digits, and always a JSON number.
        write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}
