//! Metrics-registry integration: the sample vocabularies behind
//! [`FrontEnd::register_metrics`](crate::FrontEnd::register_metrics),
//! plus the kernel-profile collector.
//!
//! Naming conventions (see the README's Observability section): every
//! metric is prefixed `fusedmm_`, monotonic counters end in `_total`,
//! latency summaries in `_seconds`. Labels: `shard` (band index within
//! a sharded front end), and on kernel samples `op` / `d` / `backend`
//! / `blocking`.

use fusedmm_cache::CacheMetrics;
use fusedmm_perf::registry::{MetricsRegistry, Sample};

/// Append every pair of `labels` to `s` (collectors apply one shared
/// label set to all their samples).
pub(crate) fn apply_labels(mut s: Sample, labels: &[(String, String)]) -> Sample {
    for (k, v) in labels {
        s = s.label(k.clone(), v.clone());
    }
    s
}

/// Append one cache's statistics as `fusedmm_cache_*` samples.
pub(crate) fn push_cache_samples(
    out: &mut Vec<Sample>,
    m: &CacheMetrics,
    labels: &[(String, String)],
) {
    let l = |s: Sample| apply_labels(s, labels);
    out.push(l(Sample::counter("fusedmm_cache_hits_total", m.hits)));
    out.push(l(Sample::counter("fusedmm_cache_misses_total", m.misses)));
    out.push(l(Sample::counter("fusedmm_cache_late_hits_total", m.late_hits)));
    out.push(l(Sample::counter("fusedmm_cache_inserts_total", m.inserts)));
    out.push(l(Sample::counter("fusedmm_cache_evictions_total", m.evictions)));
    out.push(l(Sample::counter("fusedmm_cache_invalidated_rows_total", m.invalidated_rows)));
    out.push(l(Sample::counter("fusedmm_cache_flushes_total", m.flushes)));
    out.push(l(Sample::counter("fusedmm_cache_coalesced_misses_total", m.coalesced_misses)));
    out.push(l(Sample::gauge("fusedmm_cache_resident_bytes", m.bytes as f64)));
    out.push(l(Sample::gauge("fusedmm_cache_resident_entries", m.entries as f64)));
    out.push(l(Sample::gauge("fusedmm_cache_inflight_rows", m.inflight_rows as f64)));
    out.push(l(Sample::gauge("fusedmm_cache_inflight_rows_peak", m.inflight_peak_rows as f64)));
    out.push(l(Sample::ratio("fusedmm_cache_hit_ratio", m.hit_ratio)));
}

/// Append one engine's request-outcome counters as
/// `fusedmm_requests_*` samples — the six buckets of the
/// reconciliation invariant `begun == harvested + degraded + shed +
/// failed + abandoned`.
pub(crate) fn push_outcome_samples(
    out: &mut Vec<Sample>,
    stats: &crate::ticket::RequestStats,
    labels: &[(String, String)],
) {
    use std::sync::atomic::Ordering;
    let l = |s: Sample| apply_labels(s, labels);
    out.push(l(Sample::counter(
        "fusedmm_requests_begun_total",
        stats.begun.load(Ordering::Relaxed),
    )));
    out.push(l(Sample::counter(
        "fusedmm_requests_harvested_total",
        stats.harvested.load(Ordering::Relaxed),
    )));
    out.push(l(Sample::counter(
        "fusedmm_requests_degraded_total",
        stats.degraded.load(Ordering::Relaxed),
    )));
    out.push(l(Sample::counter("fusedmm_requests_shed_total", stats.shed.load(Ordering::Relaxed))));
    out.push(l(Sample::counter(
        "fusedmm_requests_failed_total",
        stats.failed.load(Ordering::Relaxed),
    )));
    out.push(l(Sample::counter(
        "fusedmm_requests_abandoned_total",
        stats.abandoned.load(Ordering::Relaxed),
    )));
}

/// Register the process-global kernel profile table
/// ([`fusedmm_core::kernel_profiles`]) with `registry`: one
/// `fusedmm_kernel_*` sample set per `(op, d, backend, blocking)`
/// shape this process has launched. Serving engines launch their row
/// work through the same plans, on whichever thread combines a band's
/// queue, so this covers their kernel time too.
///
/// Convert accumulated edges to FLOPs with
/// [`fusedmm_perf::flops::flops_per_edge`]; the serving bench does
/// this to print achieved-vs-roofline GFLOP/s per shape.
pub fn register_kernel_profiles(registry: &MetricsRegistry) {
    registry.register(|out| {
        for p in fusedmm_core::kernel_profiles() {
            let d = p.d.to_string();
            let l = |s: Sample| {
                s.label("op", p.pattern.name())
                    .label("d", d.clone())
                    .label("backend", p.backend.label())
                    .label("blocking", p.blocking)
            };
            out.push(l(Sample::counter("fusedmm_kernel_calls_total", p.calls)));
            out.push(l(Sample::counter("fusedmm_kernel_rows_total", p.rows)));
            out.push(l(Sample::counter("fusedmm_kernel_edges_total", p.edges)));
            out.push(l(Sample::gauge("fusedmm_kernel_seconds_total", p.elapsed.as_secs_f64())));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_perf::registry::MetricsRegistry;

    #[test]
    fn kernel_profile_collector_exposes_labeled_shapes() {
        use fusedmm_core::fusedmm_opt;
        use fusedmm_ops::OpSet;
        use fusedmm_sparse::coo::{Coo, Dedup};
        use fusedmm_sparse::dense::Dense;
        // A d no other test in this crate uses, so the process-global
        // table assertion is isolated.
        const D: usize = 44;
        let n = 16;
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        let a = c.to_csr(Dedup::Sum);
        let x = Dense::filled(n, D, 0.3);
        let y = Dense::filled(n, D, 0.2);
        let _ = fusedmm_opt(&a, &x, &y, &OpSet::gcn());
        let reg = MetricsRegistry::new();
        register_kernel_profiles(&reg);
        let snap = reg.snapshot();
        let calls = snap
            .counter("fusedmm_kernel_calls_total", &[("op", "gcn"), ("d", "44")])
            .expect("gcn/44 launch recorded");
        assert!(calls >= 1);
        let sample = snap
            .get("fusedmm_kernel_edges_total", &[("op", "gcn"), ("d", "44")])
            .expect("edges sample");
        assert!(sample.labels.iter().any(|(k, _)| k == "backend"));
        assert!(sample.labels.iter().any(|(k, _)| k == "blocking"));
    }
}
