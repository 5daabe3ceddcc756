//! Metric names and units, the layer map, and the JSON the benchmark
//! prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("speedup_vs_1t", "x"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms_lo", "ms"),
    ("query_p50_ms_hi", "ms"),
    ("peak_qps", "1/s"),
    ("update_visible_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("graphgen.s", "s"),
    ("storage.load_s", "s"),
    ("storage.load_mb_per_s", "MB/s"),
    ("storage.store_s", "s"),
    ("preprocess.s", "s"),
    ("preprocess.share", "fraction"),
    ("preprocess.csr_both_s", "s"),
    ("preprocess.csr_in_s", "s"),
    ("preprocess.csr_out_s", "s"),
    ("preprocess.csr_und_s", "s"),
    ("preprocess.medges_per_s", "Medges/s"),
    ("algo.bfs_s", "s"),
    ("algo.pagerank_s", "s"),
    ("algo.sssp_s", "s"),
    ("algo.wcc_s", "s"),
    ("algo.bfs_iters", "count"),
    ("algo.pagerank_iters", "count"),
    ("algo.sssp_iters", "count"),
    ("algo.wcc_iters", "count"),
    ("algo.us_per_iter", "us"),
    ("algo.medges_per_s", "Medges/s"),
    ("pool.regions", "count"),
    ("pool.regions_per_iter", "count"),
    ("pool.busy_s", "s"),
    ("pool.utilization", "fraction"),
    ("pool.imbalance", "ratio"),
    ("pool.steals", "count"),
    ("serve.query_tail_ms_lo", "ms"),
    ("serve.query_tail_ms_hi", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_tail", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_tail", "ms"),
    ("serve.demux_ms_p50", "ms"),
    ("serve.wave_size_mean", "count"),
    ("serve.waves_per_s", "1/s"),
    ("serve.queue_depth_max", "count"),
    ("serve.peak_rss_mb", "MB"),
    ("delta.apply_ms", "ms"),
    ("delta.compact_s", "s"),
    ("delta.merged_ops", "count"),
    ("delta.resident_mb", "MB"),
    ("harness.gen_lag_ms_max", "ms"),
    ("harness.error_rate", "fraction"),
    ("harness.job_self_s", "s"),
    ("harness.trace_overhead_job_s", "s"),
    ("harness.trace_overhead_query_ms", "ms"),
];

/// Which end-to-end metric each layer's metrics should move, on which
/// workload, and where they should not move: `(layer, moves, stays)`.
pub const LAYER_MAP: [(&str, &str, &str); 8] = [
    ("graphgen", "setup_s on rmat and road", "-"),
    ("storage", "job_s on rmat", "job_s on road (load is a few percent there)"),
    (
        "preprocess",
        "job_s, peak_rss_mb, setup_s on rmat; update_visible_ms on both (compaction rebuilds the CSR)",
        "job_s on road",
    ),
    (
        "algo",
        "job_s on road; job_s and speedup_vs_1t on rmat",
        "-",
    ),
    (
        "parallel",
        "speedup_vs_1t on rmat; job_s on road",
        "serve phases (the engine and writer pools share the counters, so pool metrics come from the jobs only)",
    ),
    (
        "serve",
        "query_*_lo, query_*_hi, peak_qps on both",
        "job_s, speedup_vs_1t",
    ),
    (
        "delta",
        "update_visible_ms, query_tail_ms_hi, peak_rss_mb on both",
        "query_*_lo, peak_qps",
    ),
    ("harness", "validity of the run, not a result", "-"),
];

/// A metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Collects metric values, checking each name against a table.
#[derive(Debug)]
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: Metrics,
}

impl MetricSet {
    /// An empty set for `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`. Panics on a name the table does not hold: that is
    /// a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"))
            .1;
        self.values.insert(name, (value, unit));
    }

    /// The values, once every metric of the table is set and finite.
    pub fn finish(self) -> Result<Metrics, String> {
        for (name, _) in self.table {
            match self.values.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some((v, _)) if !v.is_finite() => {
                    return Err(format!("metric {name} is not finite: {v}"))
                }
                _ => {}
            }
        }
        Ok(self.values)
    }
}

/// Escapes `s` for a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Every `"name": "<x>"` value in `text`.
    fn names_in(text: &str) -> Vec<String> {
        text.split("\"name\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn every_metric_name_is_valid_and_declared() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let (text, declared) = (declared.clone(), names_in(&declared));
        let all = END_TO_END.iter().chain(PER_LAYER.iter());
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "metric {name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
            assert!(
                declared.iter().any(|d| d == name),
                "{name} missing from BENCHMARK.json"
            );
        }
        for workload in crate::inputs::WORKLOADS {
            assert!(declared.iter().any(|d| d == workload.name));
            assert!(
                text.contains(&json_str(workload.why)),
                "{} why differs",
                workload.name
            );
        }
        // Nothing declared that the benchmark does not print.
        for d in &declared {
            let known =
                seen.contains(d.as_str()) || crate::inputs::WORKLOADS.iter().any(|w| w.name == d);
            assert!(known, "BENCHMARK.json declares {d}, which is never printed");
        }
    }

    #[test]
    fn unset_or_unknown_metrics_are_errors() {
        let mut set = MetricSet::new(&END_TO_END);
        set.set("setup_s", 1.0);
        assert!(set.finish().is_err());
        let result = std::panic::catch_unwind(|| MetricSet::new(&END_TO_END).set("nope", 1.0));
        assert!(result.is_err());
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::new();
        m.insert("job_s", (1.25, "s"));
        assert_eq!(
            result_line(4, 1, &m),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"job_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
