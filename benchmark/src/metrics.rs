//! The metric vocabulary — the same names and units `BENCHMARK.json`
//! lists — and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all five with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("call_p50_us", "us"),
    ("call_p90_us", "us"),
    ("rows_per_s", "1/s"),
    ("peak_mem_mb", "MB"),
];

/// Per-layer metrics (layer = crate name). Every workload reports all
/// of them with `--trace 1`; one that the workload does not exercise,
/// or whose source has disappeared, reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.rmat_gen_s", "s"),
    ("sparse.slice_rows_us", "us"),
    ("core.plan_build_ms", "ms"),
    ("core.launch_overhead_us", "us"),
    ("core.rows64_us", "us"),
    ("core.sigmoid_d32_gflops", "GFLOP/s"),
    ("core.sigmoid_d100_gflops", "GFLOP/s"),
    ("core.sigmoid_d128_gflops", "GFLOP/s"),
    ("core.spmm_d32_gflops", "GFLOP/s"),
    ("core.spmm_d100_gflops", "GFLOP/s"),
    ("core.spmm_d128_gflops", "GFLOP/s"),
    ("core.fr_d128_gflops", "GFLOP/s"),
    ("core.tdist_d128_gflops", "GFLOP/s"),
    ("core.spmm_d32_gbps", "GB/s"),
    ("core.spmm_d100_gbps", "GB/s"),
    ("core.spmm_d128_gbps", "GB/s"),
    ("core.bytes_per_edge_d128", "B"),
    ("core.spmm_d128_roof_frac", "ratio"),
    ("core.kernel_share_train", "ratio"),
    ("core.kernel_share_infer", "ratio"),
    ("core.kernel_share_point", "ratio"),
    ("core.kernel_share_zipf", "ratio"),
    ("core.kernel_share_remote", "ratio"),
    ("perf.stream_gbps", "GB/s"),
    ("perf.trace_overhead_frac", "ratio"),
    ("baseline.unfused_epoch_ratio", "ratio"),
    ("baseline.unfused_peak_mem_ratio", "ratio"),
    ("apps.epoch_s", "s"),
    ("apps.nonkernel_step_us", "us"),
    ("apps.final_loss", "nat"),
    ("serve.begin_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.fixed_cost_us", "us"),
    ("serve.oneshard_delta_us", "us"),
    ("serve.point_p99_us", "us"),
    ("serve.infer_overhead_frac", "ratio"),
    ("serve.rows_per_batch", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.delta_update_us", "us"),
    ("serve.zipf_p99_us", "us"),
    ("serve.requests_begun", "count"),
    ("serve.requests_failed", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.coalesced_misses", "count"),
    ("cache.evictions", "count"),
    ("cache.invalidated_rows", "count"),
    ("cache.resident_mb", "MB"),
    ("cache.cachedonly_call_us", "us"),
    ("rpc.encode_ns_per_row", "ns"),
    ("rpc.decode_ns_per_row", "ns"),
    ("rpc.frame_rw_ns_per_row", "ns"),
    ("rpc.wire_bytes_per_row", "B"),
    ("rpc.frames_per_call", "count"),
    ("rpc.rtt_p50_us", "us"),
    ("rpc.overhead_us", "us"),
    ("rpc.remote_p99_us", "us"),
    ("rpc.snapshot_ship_s", "s"),
    ("serve.span.embed_us", "us"),
    ("serve.span.cache_route_us", "us"),
    ("serve.span.enqueue_us", "us"),
    ("serve.span.batch_us", "us"),
    ("serve.span.kernel_us", "us"),
    ("serve.span.cache_fill_us", "us"),
    ("serve.span.harvest_us", "us"),
    ("serve.span.rpc_us", "us"),
    ("serve.unattributed_us", "us"),
];

/// Values for one vocabulary; every name starts at 0 so a result line
/// always carries the whole list.
pub struct Metrics {
    vocabulary: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(vocabulary: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { vocabulary, values: BTreeMap::new() }
    }

    /// Set a metric of this vocabulary.
    ///
    /// # Panics
    /// Panics on a name outside the vocabulary: that is a typo in the
    /// benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = self
            .vocabulary
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"));
        self.values.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Set from a source that may have disappeared in a refactor: a
    /// missing source leaves the metric at 0 and never fails the run.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        } else {
            eprintln!("note: {name} has no source in this build; it reads 0");
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": …, "unit": "…"}, …}` in vocabulary order.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .vocabulary
            .iter()
            .map(|(name, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(self.get(name)))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with all the digits of the measurement.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the driver reads: the last line of stdout.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid(name, "_.-", 64), "bad metric name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
            assert!(valid(unit, "_/%.-", 16), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// `BENCHMARK.json` and the program must list the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert_eq!(BENCHMARK_JSON.matches(&entry).count(), 1, "{entry} in BENCHMARK.json");
        }
        let listed = BENCHMARK_JSON.matches("\"better\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_carries_the_whole_vocabulary() {
        let mut m = Metrics::new(END_TO_END);
        m.set("call_p50_us", 141.8125);
        m.set("rows_per_s", f64::NAN);
        m.set_opt("peak_mem_mb", None);
        let line = result_line(true, 10, 0, &m);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"call_p50_us\": {\"value\": 141.8125, \"unit\": \"us\"}"));
        assert!(line.contains("\"rows_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "not in the vocabulary")]
    fn a_misspelt_metric_is_a_bug() {
        Metrics::new(END_TO_END).set("call_p50", 1.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
