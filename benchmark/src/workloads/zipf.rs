//! `serve_zipf_mixed` — a two-shard `ShardedEngine` with the result
//! cache on, two callers reading Zipf-skewed batches, and a
//! `delta_update` of hot rows before every segment. `cache`,
//! `FeatureStore` and shard scatter/gather do the work: the same
//! `embed` path as `serve_point` driven differently (hits beside
//! computes, reads after writes), so a cache-side gain that costs
//! invalidation or the uncached path shows as a loss on one of the two.
//!
//! The write sits between segments, off their clock, because a write
//! inside them made every metric twice as noisy: with a delta every
//! 50th or every 500th call of one caller the run-to-run spread of
//! p50/p90 was 12–19 %, without writes 5 %. A `delta_update` copies
//! both feature matrices (≈ 100 ms for 128 MiB), so it is timed on its
//! own as `serve.delta_update_us`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use fusedmm::prelude::*;

use super::{
    close, embed_call, engine_config, fingerprint_of, kernel_seconds, reference_rows, serve_inputs,
    Bench, Counters, Params, SetupInfo, D,
};
use crate::harness::{median, median_us, Call, Timed, Workload};
use crate::inputs::{batch_of, zipf_stream, Rng, Zipf};
use crate::metrics::Metrics;
use crate::spans::Recorder;

const VERTICES: usize = 1 << 17;
const EDGES_PER_VERTEX: usize = 16;
const SHARDS: usize = 2;
const CALLERS: usize = 2;
const BATCH: usize = 64;
const ZIPF_S: f64 = 1.1;
/// Cache budget: the payload of a quarter of the rows.
const CACHED_ROWS_SHARE: usize = 4;
/// Rows one `delta_update` rewrites, Zipf-drawn.
const DELTA_ROWS: usize = 32;
/// Distinct write sets; later deltas reuse them in turn.
const WRITE_SETS: usize = 64;
/// Per caller, ≈ 0.5 s.
const SEGMENT_CALLS: usize = 1000;
const WARMUP_CALLS: usize = 1000;
const STREAM_CALLS: usize = 1 << 15;
const LAYER_CALLS: usize = 500;

struct WriteSet {
    rows: Vec<usize>,
    x: Dense,
    y: Dense,
}

pub struct ZipfMixed {
    engine: ShardedEngine,
    a: Csr,
    /// One id stream per caller.
    streams: Vec<Vec<u32>>,
    writes: Vec<WriteSet>,
    /// Latencies of the `delta_update` calls, µs.
    delta_us: Mutex<Vec<f64>>,
    /// The tick the last write preceded, and the rows it rewrote.
    rewritten: Mutex<Option<(usize, Vec<usize>)>>,
    registry: MetricsRegistry,
}

fn ops() -> OpSet {
    OpSet::sigmoid_embedding(None)
}

impl ZipfMixed {
    /// A response against the reference kernel on the current epoch:
    /// nothing writes while a segment runs, so that is the epoch the
    /// embed was pinned to.
    fn matches_reference(&self, ids: &[usize], got: &Dense) -> bool {
        let epoch = self.engine.store().snapshot();
        close(got, &reference_rows(&self.a, ids, epoch.x(), epoch.y(), &ops()))
    }
}

impl Workload for ZipfMixed {
    fn callers(&self) -> usize {
        CALLERS
    }

    fn segment_calls(&self) -> usize {
        SEGMENT_CALLS
    }

    /// One `delta_update` before every segment, off the segment's
    /// clock: the segment's reads then meet a cache whose hottest rows
    /// were just invalidated.
    fn before_segment(&self, first: usize) {
        let w = &self.writes[(first / SEGMENT_CALLS) % self.writes.len()];
        let start = Instant::now();
        self.engine.store().delta_update(&w.rows, &w.x, &w.y);
        self.delta_us.lock().expect("delta latencies").push(start.elapsed().as_secs_f64() * 1e6);
        *self.rewritten.lock().expect("rewritten rows") = Some((first, w.rows.clone()));
    }

    fn call(&self, caller: usize, index: usize, rec: Option<&mut Recorder>) -> Call {
        let request = (caller as u64) << 32 | index as u64;
        let mut ids = batch_of(&self.streams[caller], BATCH, index);
        // Caller 0's first embed after the write leads with the
        // rewritten rows, and is checked against the reference.
        let after_write = match &*self.rewritten.lock().expect("rewritten rows") {
            Some((at, rows)) if caller == 0 && *at == index => {
                ids[..DELTA_ROWS].copy_from_slice(rows);
                true
            }
            _ => false,
        };
        let start = Instant::now();
        let result =
            embed_call(rec, request, || self.engine.embed(&ids), || self.engine.embed_begin(&ids));
        let latency = start.elapsed();
        let ok = match &result {
            // The rewritten rows must reflect the write: a stale cached
            // row here is cached ≢ uncached.
            Ok(rows) if after_write => self.matches_reference(&ids, rows),
            Ok(rows) => rows.nrows() == BATCH,
            Err(_) => false,
        };
        Call { latency, rows: BATCH, failed: !ok }
    }
}

impl Bench for ZipfMixed {
    const NAME: &'static str = "serve_zipf_mixed";
    const TRACED_CALLS: usize = 1000;
    const KERNEL_SHARE: &'static str = "core.kernel_share_zipf";

    fn ops() -> OpSet {
        ops()
    }

    fn setup(p: &Params, tracer: Arc<Tracer>) -> (ZipfMixed, SetupInfo) {
        let n = p.vertices(VERTICES);
        let (a, x, y, rmat_gen_s) = serve_inputs(p, n, EDGES_PER_VERTEX);
        let mut rng = Rng::new(p.seed_for(4));
        let zipf = Zipf::new(n, ZIPF_S, &mut rng);
        let streams: Vec<Vec<u32>> =
            (0..CALLERS).map(|_| zipf_stream(&zipf, STREAM_CALLS, BATCH, &mut rng)).collect();
        let writes: Vec<WriteSet> = (0..WRITE_SETS as u64)
            .map(|k| {
                let mut rows: Vec<usize> = Vec::with_capacity(DELTA_ROWS);
                while rows.len() < DELTA_ROWS {
                    let id = zipf.sample(&mut rng) as usize;
                    if !rows.contains(&id) {
                        rows.push(id);
                    }
                }
                WriteSet {
                    rows,
                    x: random_features(DELTA_ROWS, D, 0.5, p.seed_for(100 + 2 * k)),
                    y: random_features(DELTA_ROWS, D, 0.5, p.seed_for(101 + 2 * k)),
                }
            })
            .collect();

        let t = Instant::now();
        let mut fp = fingerprint_of(&a, &x, &y);
        for s in &streams {
            fp.u32s(s);
        }
        for w in &writes {
            fp.usizes(&w.rows).f32s(w.x.as_slice()).f32s(w.y.as_slice());
        }
        let excluded = t.elapsed();

        let cache =
            CacheConfig { byte_budget: n / CACHED_ROWS_SHARE * D * 4, ..CacheConfig::default() };
        let config = EngineConfig { cache: Some(cache), ..engine_config(&tracer) };
        let engine = ShardedEngine::new(a.clone(), x, y, ops(), SHARDS, config);
        let registry = MetricsRegistry::new();
        engine.register_metrics(&registry);
        let zipf = ZipfMixed {
            engine,
            a,
            streams,
            writes,
            delta_us: Mutex::default(),
            rewritten: Mutex::default(),
            registry,
        };
        let gate = crate::harness::StealGate::off();
        crate::harness::run_calls(&zipf, 0, WARMUP_CALLS, &gate, None);
        zipf.delta_us.lock().expect("delta latencies").clear();
        let info = SetupInfo {
            excluded,
            rmat_gen_s,
            fingerprint: fp.hex(),
            plan: format!("{:?}", zipf.engine.plans().plan_for(&ops(), D).blocking()),
            warmup_calls: WARMUP_CALLS,
            layer: Vec::new(),
        };
        (zipf, info)
    }

    fn verify(&self) -> Vec<String> {
        Vec::new()
    }

    fn layer_pass(&self, _p: &Params, timed: &Timed, counters: &Counters, out: &mut Metrics) {
        let epoch = self.engine.store().snapshot();
        let plan = self.engine.plans().plan_for(&ops(), D);
        let first = timed.next_index;

        // The kernel alone on batches of this size.
        let batches = (first..first + LAYER_CALLS).map(|i| batch_of(&self.streams[1], BATCH, i));
        let rows64 = median_us(batches, |ids| {
            std::hint::black_box(plan.execute_rows(&self.a, &ids, epoch.x(), epoch.y(), &ops()));
        });
        out.set("core.rows64_us", rows64);

        // Route + copy with no kernel: a resident batch, cache only.
        let resident = batch_of(&self.streams[1], BATCH, first);
        self.engine.embed(&resident).expect("embed");
        let cached_only = EmbedOptions::with_quality(Quality::CachedOnly);
        let cachedonly = median_us(0..LAYER_CALLS, |_| {
            let ticket = self.engine.embed_begin_opts(&resident, cached_only);
            std::hint::black_box(ticket.and_then(|t| t.wait()).expect("cached-only embed"));
        });
        out.set("cache.cachedonly_call_us", cachedonly);

        // Counters the program exports, over the timed pass.
        let delta = |name: &str| counters.delta(name);
        let ratio =
            |num: Option<f64>, den: Option<f64>| Some(num? / den?).filter(|r| r.is_finite());
        let (computed, batches) =
            (delta("fusedmm_rows_computed_total"), delta("fusedmm_batches_dispatched_total"));
        out.set_opt("serve.rows_per_batch", ratio(computed, batches));
        out.set_opt("serve.dedup_ratio", ratio(computed, delta("fusedmm_rows_requested_total")));
        let (hits, misses) =
            (delta("fusedmm_cache_hits_total"), delta("fusedmm_cache_misses_total"));
        out.set_opt("cache.hit_ratio", ratio(hits, hits.zip(misses).map(|(h, m)| h + m)));
        out.set_opt("cache.coalesced_misses", delta("fusedmm_cache_coalesced_misses_total"));
        out.set_opt("cache.evictions", delta("fusedmm_cache_evictions_total"));
        out.set_opt("cache.invalidated_rows", delta("fusedmm_cache_invalidated_rows_total"));
        out.set_opt(
            "cache.resident_mb",
            counters.last("fusedmm_cache_resident_bytes").map(|b| b / (1 << 20) as f64),
        );

        let deltas = self.delta_us.lock().expect("delta latencies").clone();
        if !deltas.is_empty() {
            out.set("serve.delta_update_us", median(deltas));
        }
        out.set("serve.zipf_p99_us", timed.latency_percentile(0.99));

        // Kernel share over one more segment of the traffic.
        let kernel_before = kernel_seconds();
        let gate = crate::harness::StealGate::off();
        let slice = crate::harness::run_calls(self, first, SEGMENT_CALLS, &gate, None);
        let wall: f64 = slice.latency_us.iter().sum::<f64>() / 1e6;
        out.set(Self::KERNEL_SHARE, (kernel_seconds() - kernel_before) / wall);
    }

    fn exported(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}
