//! The five workloads and what they share: sizes, the engine
//! configuration, reference checks, and registry lookups by exported
//! name.

pub mod infer;
pub mod point;
pub mod remote;
pub mod train;
pub mod zipf;

use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm::perf::MetricValue;
use fusedmm::prelude::*;
use fusedmm::sparse::slice::{gather_rows, slice_rows};

use crate::harness::{Timed, Workload};
use crate::inputs::Fingerprint;
use crate::metrics::Metrics;
use crate::spans::{Recorder, Span};

/// Embedding dimension of every workload (the paper's d).
pub const D: usize = 128;

/// What a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// 1, or 16 under `--smoke`: every graph shrinks by this factor.
    pub shrink: usize,
}

impl Params {
    /// A full-size vertex count, shrunk under `--smoke`.
    pub fn vertices(&self, full: usize) -> usize {
        full / self.shrink
    }

    /// A per-purpose seed derived from `--seed`.
    pub fn seed_for(&self, purpose: u64) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(purpose)
    }
}

/// What `setup` hands back besides the workload.
pub struct SetupInfo {
    /// Time spent fingerprinting inputs: benchmark bookkeeping, taken
    /// off `setup_s`.
    pub excluded: Duration,
    pub rmat_gen_s: f64,
    pub fingerprint: String,
    /// `plan().blocking()` as a Debug string: the autotuner may choose
    /// differently in every process, so it is recorded, not pinned.
    pub plan: String,
    /// Calls per caller the warm-up made; the timed pass continues the
    /// id stream from there.
    pub warmup_calls: usize,
    /// Workload-specific set-up timings, as layer metrics.
    pub layer: Vec<(&'static str, f64)>,
}

/// A workload the driver can run end to end.
pub trait Bench: Workload + Sized {
    const NAME: &'static str;

    /// Calls per caller the traced pass replays.
    const TRACED_CALLS: usize;

    /// The layer metric that holds this workload's kernel share.
    const KERNEL_SHARE: &'static str;

    /// The operator set this workload's kernels run.
    fn ops() -> OpSet;

    /// Generate inputs from the seed, build the program under test
    /// with `tracer`, and warm it up with a fixed number of calls.
    fn setup(p: &Params, tracer: Arc<Tracer>) -> (Self, SetupInfo);

    /// Correctness checks that run after the timed pass; each returns
    /// its description when it fails.
    fn verify(&self) -> Vec<String>;

    /// The layer pass: measure the layers this workload exercises from
    /// outside, and read the counters the program exports.
    fn layer_pass(&self, p: &Params, timed: &Timed, counters: &Counters, out: &mut Metrics);

    /// Layer metrics taken from the benchmark's own spans of the
    /// traced pass (`call_p50_us` is the traced calls' median).
    fn own_span_metrics(&self, _spans: &[Span], _out: &mut Metrics) {}

    /// Every sample the program under test exports right now.
    fn exported(&self) -> MetricsSnapshot;
}

/// The program's exported samples on either side of the timed pass.
pub struct Counters {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Counters {
    /// How much the samples called `name` grew over the timed pass.
    pub fn delta(&self, name: &str) -> Option<f64> {
        Some(sample_sum(&self.after, name)? - sample_sum(&self.before, name)?)
    }

    /// Where the samples called `name` stood after the timed pass.
    pub fn last(&self, name: &str) -> Option<f64> {
        sample_sum(&self.after, name)
    }
}

/// Tracing, admission and fault injection set explicitly so that no
/// environment variable reaches the engine; everything else default.
pub fn engine_config(tracer: &Arc<Tracer>) -> EngineConfig {
    EngineConfig {
        tracer: Some(Arc::clone(tracer)),
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

/// One `embed`. With a recorder, the call is split at the ticket —
/// the same code path, `embed` being `embed_begin` then `wait` — with
/// a span around each half.
pub fn embed_call(
    rec: Option<&mut Recorder>,
    request: u64,
    embed: impl FnOnce() -> Result<Dense, ServeError>,
    begin: impl FnOnce() -> Result<Ticket<Dense>, ServeError>,
) -> Result<Dense, ServeError> {
    let Some(rec) = rec else { return embed() };
    rec.span("serve.embed", 0, request, |rec, call| {
        rec.span("serve.embed_begin", call, request, |_, _| begin())
            .and_then(|ticket| rec.span("serve.wait", call, request, |_, _| ticket.wait()))
    })
}

/// The serve workloads' graph and features, and how long `rmat` took.
pub fn serve_inputs(p: &Params, n: usize, edges_per_vertex: usize) -> (Csr, Dense, Dense, f64) {
    let t = Instant::now();
    let a = graph(n, edges_per_vertex, p.seed_for(1));
    let rmat_gen_s = t.elapsed().as_secs_f64();
    (
        a,
        random_features(n, D, 0.5, p.seed_for(2)),
        random_features(n, D, 0.5, p.seed_for(3)),
        rmat_gen_s,
    )
}

/// A fingerprint begun with the graph and both feature matrices.
pub fn fingerprint_of(a: &Csr, x: &Dense, y: &Dense) -> Fingerprint {
    let mut fp = Fingerprint::default();
    fp.usizes(a.rowptr()).usizes(a.colidx()).f32s(a.values()).f32s(x.as_slice()).f32s(y.as_slice());
    fp
}

/// The rows `ids` of the fused result, by the reference kernel on a
/// row slice of `a`.
pub fn reference_rows(a: &Csr, ids: &[usize], x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    fusedmm_reference(&slice_rows(a, ids).adj, &gather_rows(x, ids), y, ops)
}

/// Relative tolerance of every comparison with the reference kernel.
/// A hub row sums thousands of terms, so the bound scales with the
/// row's magnitude: `|got − want| ≤ 1e-4 · (1 + ‖want row‖∞)`.
pub const TOLERANCE: f32 = 1e-4;

pub fn close(got: &Dense, want: &Dense) -> bool {
    got.nrows() == want.nrows()
        && got.ncols() == want.ncols()
        && (0..want.nrows()).all(|r| {
            let scale = 1.0 + want.row(r).iter().fold(0f32, |m, v| m.max(v.abs()));
            got.row(r).iter().zip(want.row(r)).all(|(g, w)| (g - w).abs() <= TOLERANCE * scale)
        })
}

pub fn bit_identical(a: &Dense, b: &Dense) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Sum of every sample called `name`, whatever its labels; `None` when
/// the program exports no such sample (any more).
pub fn sample_sum(snap: &MetricsSnapshot, name: &str) -> Option<f64> {
    let mut found = None;
    for s in snap.samples.iter().filter(|s| s.name == name) {
        let v = match &s.value {
            MetricValue::Counter(c) => *c as f64,
            MetricValue::Gauge(g) => *g,
            _ => continue,
        };
        *found.get_or_insert(0.0) += v;
    }
    found
}

/// Median of the first histogram sample called `name`, µs.
pub fn exported_p50_us(snap: &MetricsSnapshot, name: &str) -> Option<f64> {
    snap.samples.iter().find_map(|s| match &s.value {
        MetricValue::Histogram(h) if s.name == name => Some(h.p50.as_secs_f64() * 1e6),
        _ => None,
    })
}

/// Seconds the dispatcher has spent inside kernels in this process.
pub fn kernel_seconds() -> f64 {
    let registry = MetricsRegistry::new();
    register_kernel_profiles(&registry);
    sample_sum(&registry.snapshot(), "fusedmm_kernel_seconds_total").unwrap_or(0.0)
}

/// `begun == harvested + degraded + shed + failed + abandoned`, by
/// exported name. Returns `(begun, failed)`; `Err` when it is off.
pub fn request_ledger(snap: &MetricsSnapshot) -> Result<(f64, f64), String> {
    let get = |outcome: &str| {
        let name = format!("fusedmm_requests_{outcome}_total");
        // The front end's sample carries no `shard` label; band
        // engines repeat the ledger per shard.
        snap.samples
            .iter()
            .find(|s| s.name == name && !s.labels.iter().any(|(k, _)| k == "shard"))
            .and_then(|s| match s.value {
                MetricValue::Counter(c) => Some(c as f64),
                _ => None,
            })
    };
    let Some(begun) = get("begun") else { return Ok((0.0, 0.0)) };
    let outcomes = ["harvested", "degraded", "shed", "failed", "abandoned"];
    let resolved: f64 = outcomes.iter().filter_map(|o| get(o)).sum();
    if begun == resolved {
        Ok((begun, get("failed").unwrap_or(0.0)))
    } else {
        Err(format!("request ledger is off: begun {begun} != resolved {resolved}"))
    }
}

/// RMAT graph with the generator's default skew.
pub fn graph(n: usize, edges_per_vertex: usize, seed: u64) -> Csr {
    rmat(&RmatConfig::new(n, edges_per_vertex * n).with_seed(seed))
}

/// First row of `a` at or after a seeded start with 1 ≤ degree ≤ 4.
pub fn low_degree_row(a: &Csr, seed: u64) -> usize {
    let n = a.nrows();
    let start = (seed % n as u64) as usize;
    (0..n).map(|i| (start + i) % n).find(|&u| (1..=4).contains(&a.row_nnz(u))).unwrap_or(start)
}
