//! Online serving: load a graph once, answer per-node traffic, publish
//! live feature updates, and shard the engine PART1D-style.
//!
//! Spins up the [`Engine`] on an RMAT graph and issues a mixed workload
//! from several client threads — per-node embedding refreshes (through
//! the micro-batcher and the row-subset kernel) interleaved with
//! candidate-edge scoring (the SDDMM-only path) — while a trainer
//! thread publishes refreshed embeddings through the epoch-versioned
//! [`FeatureStore`]. Then cuts the same graph into nnz-balanced row
//! bands with [`ShardedEngine`] and verifies the sharded results match
//! the single engine bit for bit.
//!
//! Finally, re-serves a hot-repeat workload through the epoch-aware
//! result cache (`FUSEDMM_CACHE_MB`, default 64; 0 disables) and
//! verifies cached responses stay bit-identical across publishes and
//! delta updates while the hit counters climb.
//!
//! Then drives a 4× overload of mixed-tier requests (Exact /
//! TopKNeighbors / CachedOnly, some with deadlines) against an engine
//! whose admission policy and fault plan resolve from the environment
//! (`FUSEDMM_ADMIT_INFLIGHT`, `FUSEDMM_FAULT_PLAN`) and proves every
//! ticket resolves with exactly reconciling counters — the chaos-smoke
//! CI entry point.
//!
//! Closes with the telemetry layer: one [`MetricsRegistry`] snapshot
//! enumerating every engine/shard/cache/kernel metric in the process
//! (dumped as Prometheus text via `FUSEDMM_METRICS_PROM=<path>` and
//! JSON via `FUSEDMM_METRICS_JSON=<path>`), and a fully-sampled
//! lifecycle trace of a ticketed, cache-missing, sharded request
//! (chrome://tracing JSON via `FUSEDMM_TRACE_JSON=<path>`).
//!
//! Run: `cargo run --release --example serving`
//! Scale down (e.g. CI smoke runs): `FUSEDMM_SERVE_N=2000`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm::prelude::*;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Explicitly unlimited admission and disabled fault injection, so the
/// chaos environment (`FUSEDMM_FAULT_PLAN` / `FUSEDMM_ADMIT_*`) only
/// drives the dedicated overload section at the end — the
/// bit-identity assertions above it stay deterministic.
fn steady_config() -> EngineConfig {
    EngineConfig {
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

fn main() {
    // Record the hardware path before anything else, so pasted output
    // always says which SIMD backend produced the numbers below.
    println!("{}", fusedmm::kernel::cpu_features());

    // The "model": a scale-free graph and trained-looking features.
    let n = env_usize("FUSEDMM_SERVE_N", 20_000);
    let d = env_usize("FUSEDMM_SERVE_D", 64);
    let clients = env_usize("FUSEDMM_SERVE_CLIENTS", 8);
    let rounds = env_usize("FUSEDMM_SERVE_ROUNDS", 50);
    let a = rmat(&RmatConfig::new(n, 8 * n));
    println!(
        "loading graph: {} vertices, {} edges, avg degree {:.1}, d={d}",
        a.nrows(),
        a.nnz(),
        a.avg_degree()
    );
    let feats = random_features(n, d, 0.5, 42);

    // One engine, loaded once: plan prepared, partitions precomputed.
    // The features become epoch 0 of the engine's FeatureStore.
    let engine = Engine::new(
        a.clone(),
        feats.clone(),
        feats.clone(),
        OpSet::sigmoid_embedding(None),
        steady_config(),
    );
    println!("engine ready: plan = {:?}, backend = {}\n", engine.plan(), engine.plan().backend());

    // A full-graph inference pass — the classic batch call, for
    // comparison with the per-request path below.
    let t0 = std::time::Instant::now();
    let z = engine.infer_full();
    println!(
        "full-graph inference: {} rows in {:.1} ms",
        z.nrows(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Mixed serving traffic with live feature updates: clients
    // alternate embedding refreshes (64-node subsets) with
    // candidate-edge scoring, while a "trainer" publishes refreshed
    // embeddings every few rounds. Each response pins one feature
    // epoch end-to-end, so traffic never observes a torn swap.
    println!("serving {clients} concurrent clients x {rounds} rounds while a trainer publishes...");
    std::thread::scope(|s| {
        // The trainer: epoch k scales the features by a tiny factor —
        // stand-in for a training loop pushing fresh embeddings.
        let store = engine.store().clone();
        let trainer_feats = feats.clone();
        s.spawn(move || {
            for k in 0..10u32 {
                std::thread::sleep(Duration::from_millis(20));
                let scale = 1.0 + k as f32 * 0.01;
                let fresh = Dense::from_fn(n, d, |r, c| trainer_feats.get(r, c) * scale);
                store.publish(fresh.clone(), fresh);
            }
        });
        for c in 0..clients {
            let engine = &engine;
            s.spawn(move || {
                for r in 0..rounds {
                    // Clients c and c+4 ask for the same subset. Each
                    // blocking caller runs its own launches, so their
                    // rows are computed twice (`coalescing saved`
                    // reads ≈ 0 %); tickets share launches below.
                    let nodes: Vec<usize> =
                        (0..64).map(|i| ((c % 4) * 7919 + r * 104_729 + i * 31) % n).collect();
                    let z = engine.embed(&nodes).expect("embed");
                    assert_eq!(z.nrows(), nodes.len());

                    let pairs: Vec<(usize, usize)> =
                        nodes.iter().map(|&u| (u, (u * 13 + 1) % n)).collect();
                    let scores = engine.score_edges(&pairs).expect("score");
                    assert!(scores.iter().all(|s| s.is_finite()));
                }
            });
        }
    });

    let m = engine.metrics();
    let embed = m.histogram("fusedmm_embed_latency_seconds", &[]).expect("latency sample");
    println!("\nserving metrics:\nembed: {embed}");
    println!("batches: {}", m.sum("fusedmm_batches_dispatched_total"));
    let (requested, computed) =
        (m.sum("fusedmm_rows_requested_total"), m.sum("fusedmm_rows_computed_total"));
    println!(
        "\ncoalescing saved {:.1}% of row computations ({requested} requested, {computed} computed)",
        100.0 * (1.0 - computed as f64 / requested.max(1) as f64),
    );

    // Sharded serving: cut the graph into nnz-balanced PART1D bands,
    // one band engine per shard behind a scatter/gather front end —
    // bit-identical to the single engine on the same epoch.
    let shards = env_usize("FUSEDMM_SERVE_SHARDS", 4);
    println!("\nsharding the graph into {shards} nnz-balanced bands...");
    let cfg = steady_config();
    let sharded = ShardedEngine::new(
        a.clone(),
        feats.clone(),
        feats,
        OpSet::sigmoid_embedding(None),
        shards,
        cfg.clone(),
    );
    println!("band boundaries: {:?}", sharded.boundaries());
    // A baseline single engine borrowing the *same* store, so both
    // read the same feature epoch — their results must be bit-identical.
    let baseline =
        Engine::with_store(a.clone(), sharded.store().clone(), OpSet::sigmoid_embedding(None), cfg);
    let nodes: Vec<usize> = (0..256).map(|i| (i * 131) % n).collect();
    let pairs: Vec<(usize, usize)> = nodes.iter().map(|&u| (u, (u * 7 + 3) % n)).collect();
    let z = sharded.embed(&nodes).expect("sharded embed");
    let scores = sharded.score_edges(&pairs).expect("sharded score");
    assert_eq!(
        z,
        baseline.embed(&nodes).expect("baseline embed"),
        "sharded embed must be bit-identical"
    );
    assert_eq!(
        scores,
        baseline.score_edges(&pairs).expect("baseline score"),
        "sharded scores must be bit-identical"
    );
    println!("sharded results verified bit-identical to a single engine on the same store");
    let sm = sharded.metrics();
    let per_band: Vec<u64> = (0..sharded.nshards())
        .filter_map(|s| sm.counter("fusedmm_rows_computed_total", &[("shard", &s.to_string())]))
        .collect();
    println!("rows computed per band: {per_band:?}");

    // Result caching: hot repeats served from memory, publishes flush
    // lazily, delta updates invalidate only their touch set.
    let cache_mb = env_usize("FUSEDMM_CACHE_MB", 64);
    if cache_mb == 0 {
        println!("\nresult cache disabled (FUSEDMM_CACHE_MB=0)");
        return;
    }
    println!("\nserving a hot-repeat workload through the result cache ({cache_mb} MiB)...");
    let store = sharded.store().clone();
    let epoch0 = store.snapshot();
    let cached = Engine::new(
        a.clone(),
        epoch0.x().clone(),
        epoch0.y().clone(),
        OpSet::sigmoid_embedding(None),
        EngineConfig { cache: Some(CacheConfig::with_mb(cache_mb)), ..steady_config() },
    );
    // A skewed hot set: 90% of requests revisit the same 256 nodes.
    let hot: Vec<usize> = (0..256).map(|i| (i * 977) % n).collect();
    std::thread::scope(|s| {
        for c in 0..clients {
            let cached = &cached;
            let hot = &hot;
            s.spawn(move || {
                for r in 0..rounds {
                    let nodes: Vec<usize> = (0..64)
                        .map(|i| {
                            let k = c * 31 + r * 17 + i;
                            if k % 10 != 0 {
                                hot[k % hot.len()]
                            } else {
                                (k * 7919) % n
                            }
                        })
                        .collect();
                    let z = cached.embed(&nodes).expect("cached embed");
                    assert_eq!(z.nrows(), nodes.len());
                }
            });
        }
    });
    // Mid-stream writes: a delta patch keeps the hot set warm, a
    // publish flushes it — served rows must track both, bit-exactly.
    let probe: Vec<usize> = hot.iter().take(32).copied().collect();
    let patch_rows = [probe[0]];
    let patch = Dense::from_fn(1, d, |_, k| 0.25 + k as f32 * 0.001);
    cached.store().delta_update(&patch_rows, &patch, &patch);
    let after_delta = cached.embed(&probe).expect("probe after delta");
    let uncached_after = Engine::with_store(
        a.clone(),
        cached.store().clone(),
        OpSet::sigmoid_embedding(None),
        steady_config(),
    );
    assert_eq!(
        after_delta,
        uncached_after.embed(&probe).expect("uncached probe"),
        "cached responses must stay bit-identical after a delta update"
    );
    let m = cached.metrics();
    let cache = |name: &str| m.counter(name, &[]).expect("cache enabled");
    let (hits, misses) = (cache("fusedmm_cache_hits_total"), cache("fusedmm_cache_misses_total"));
    let (inserts, retired) =
        (cache("fusedmm_cache_inserts_total"), cache("fusedmm_cache_invalidated_rows_total"));
    println!(
        "cache after hot-repeat traffic + a delta update: {hits} hits, {misses} misses, \
         {inserts} inserts, {retired} rows invalidated"
    );
    assert!(hits > 0, "cache enabled but zero hits recorded — hot repeats were not served");
    assert!(inserts > 0);
    println!(
        "cache verified: {:.1}% of {} row lookups served from memory",
        100.0 * hits as f64 / (hits + misses) as f64,
        hits + misses
    );

    // Non-blocking ticketed serving with miss coalescing: one thread
    // launches a deep window of `embed_begin` tickets, does other work
    // (here: nothing but issuing more), and harvests completions with
    // `wait_any` — parked until some ticket is ready, in completion
    // order, no spin. `embed_begin` only enqueues, so nothing runs
    // until the harvest does: later tickets asking for the same hot
    // nodes register against the in-flight rows instead of recomputing
    // them, and the harvesting thread runs the queued window as one
    // shared launch.
    let depth = env_usize("FUSEDMM_SERVE_INFLIGHT", 256);
    println!("\nnon-blocking serving: launching a window of {depth} ticketed requests...");
    let ticketed = Engine::new(
        a.clone(),
        epoch0.x().clone(),
        epoch0.y().clone(),
        OpSet::sigmoid_embedding(None),
        EngineConfig { cache: Some(CacheConfig::with_mb(cache_mb)), ..steady_config() },
    );
    let requests: Vec<Vec<usize>> =
        (0..depth).map(|r| (0..16).map(|i| hot[(r * 3 + i) % hot.len()]).collect()).collect();
    let t0 = std::time::Instant::now();
    let mut open: Vec<Ticket<Dense>> =
        requests.iter().map(|nodes| ticketed.embed_begin(nodes).expect("begin")).collect();
    let mut results: Vec<Option<Dense>> = (0..depth).map(|_| None).collect();
    while let Some(i) = wait_any(&mut open) {
        results[i] = Some(open[i].poll().expect("ready after wait_any").expect("ticketed embed"));
    }
    let elapsed = t0.elapsed();
    let tm = ticketed.metrics();
    let gauge = |name: &str| tm.gauge_value(name, &[]).expect("front-end gauge");
    println!(
        "harvested {depth} tickets in {:.1} ms ({:.0} req/s, peak in-flight {})",
        elapsed.as_secs_f64() * 1e3,
        depth as f64 / elapsed.as_secs_f64(),
        gauge("fusedmm_requests_inflight_peak")
    );
    let cache = |name: &str| tm.counter(name, &[]).expect("ticketed engine runs cached");
    let coalesced = cache("fusedmm_cache_coalesced_misses_total");
    println!(
        "coalescing: {coalesced} of {} misses rode another request's computation ({} rows \
         dispatched)",
        cache("fusedmm_cache_misses_total"),
        tm.sum("fusedmm_rows_computed_total")
    );
    // Ticketed responses are bit-identical to blocking serving: the
    // window was launched against one quiescent epoch, so a blocking
    // re-request must reproduce every harvested row exactly.
    for (nodes, z) in requests.iter().zip(&results) {
        assert_eq!(
            z.as_ref().expect("harvested"),
            &ticketed.embed(nodes).expect("blocking re-check"),
            "ticketed response diverged from blocking embed"
        );
    }
    assert_eq!(gauge("fusedmm_requests_inflight"), 0.0, "every ticket resolved");
    if depth >= 2 {
        assert!(coalesced > 0, "a deep window over a hot set must coalesce concurrent misses");
    }
    println!("verified: {depth} ticketed responses bit-identical to blocking embed");

    // Telemetry: one registry enumerating every engine, shard, cache,
    // and kernel-shape metric this process produced, plus a
    // fully-sampled lifecycle trace of a ticketed, cache-missing,
    // sharded request — the span tree the chrome://tracing dump shows.
    println!("\ntelemetry: metrics registry + request lifecycle trace...");
    let tracer = Tracer::new(1.0, 8192);
    let traced = ShardedEngine::new(
        a.clone(),
        epoch0.x().clone(),
        epoch0.y().clone(),
        OpSet::sigmoid_embedding(None),
        shards,
        EngineConfig {
            cache: Some(CacheConfig::with_mb(cache_mb)),
            tracer: Some(tracer.clone()),
            ..steady_config()
        },
    );
    // Cold nodes spanning every band: the request misses the cache,
    // fans out to its owning shards, and back-fills on the way out.
    let step = (n / 48).max(1);
    let cold: Vec<usize> = (0..48).map(|i| (i * step).min(n - 1)).collect();
    let ticket = traced.embed_begin(&cold).expect("traced begin");
    std::hint::black_box(ticket.wait().expect("traced harvest"));
    let spans = tracer.spans();
    let kinds: std::collections::BTreeSet<&'static str> =
        spans.iter().map(|s| s.kind.label()).collect();
    println!(
        "trace captured {} spans across stages: {}",
        spans.len(),
        kinds.iter().copied().collect::<Vec<_>>().join(", ")
    );
    for stage in ["embed", "cache_route", "enqueue", "batch", "kernel", "cache_fill", "harvest"] {
        assert!(kinds.contains(stage), "lifecycle stage {stage} missing from the trace");
    }

    // Overload & degradation: a fresh sharded engine whose admission
    // policy and fault plan resolve from the environment
    // (`FUSEDMM_ADMIT_INFLIGHT` / `FUSEDMM_ADMIT_ROWS` /
    // `FUSEDMM_FAULT_PLAN`), driven 4× past its in-flight cap with
    // mixed-tier traffic. Every ticket must resolve — harvested,
    // degraded, shed, or failed — and the counters must reconcile
    // exactly, panics and poisoned fills included.
    quiet_injected_panics();
    let policy = AdmissionPolicy::from_env();
    let chaos_depth = if policy.max_inflight > 0 { 4 * policy.max_inflight } else { 128 };
    println!(
        "\noverload & degradation: {chaos_depth} mixed-tier requests against \
         admission {policy:?}, fault plan {}...",
        if FaultPlan::from_env().is_some_and(|p| p.is_active()) { "ACTIVE" } else { "inactive" }
    );
    let chaos = ShardedEngine::new(
        a,
        epoch0.x().clone(),
        epoch0.y().clone(),
        OpSet::sigmoid_embedding(None),
        shards,
        EngineConfig {
            cache: Some(CacheConfig::with_mb(cache_mb)),
            // admission: None / fault: None -> resolve from the env.
            ..EngineConfig::default()
        },
    );
    let mut chaos_tix: Vec<Ticket<EmbedResponse>> = Vec::new();
    let (mut eager_shed, mut eager_expired) = (0u64, 0u64);
    for r in 0..chaos_depth {
        let nodes: Vec<usize> = (0..8).map(|i| (r * 977 + i * 131) % n).collect();
        let opts = match r % 4 {
            0 | 1 => EmbedOptions::default(),
            2 => EmbedOptions::with_quality(Quality::TopKNeighbors(4)),
            _ => {
                EmbedOptions::with_deadline(Instant::now() + Duration::from_millis((r % 8) as u64))
            }
        };
        match chaos.embed_begin_opts(&nodes, opts) {
            Ok(t) => chaos_tix.push(t),
            Err(ServeError::Shed { .. }) => eager_shed += 1,
            Err(ServeError::DeadlineExpired) => eager_expired += 1,
            Err(e) => panic!("unexpected eager error under overload: {e}"),
        }
    }
    // Harvest the whole window with wait_any (O(1) wakeup per
    // completion): no ticket may hang, whatever the fault plan did.
    let (mut ok_exact, mut ok_degraded, mut failed) = (0u64, 0u64, 0u64);
    while let Some(i) = wait_any(&mut chaos_tix) {
        match chaos_tix[i].poll().expect("ready after wait_any") {
            Ok(resp) if resp.any_degraded() => ok_degraded += 1,
            Ok(_) => ok_exact += 1,
            Err(ServeError::PartFailed { .. }) | Err(ServeError::DeadlineExpired) => failed += 1,
            Err(e) => panic!("unexpected harvest error under overload: {e}"),
        }
    }
    drop(chaos_tix);
    let cm = chaos.metrics();
    println!(
        "overload outcomes: {ok_exact} exact, {ok_degraded} degraded, {failed} failed, \
         {eager_shed} shed, {eager_expired} expired at admission"
    );
    let outcome = |o: &str| cm.sum(&format!("fusedmm_requests_{o}_total"));
    let outcomes = ["harvested", "degraded", "shed", "failed", "abandoned"];
    println!(
        "ledger: {} begun = {}",
        outcome("begun"),
        outcomes.map(|o| format!("{} {o}", outcome(o))).join(" + ")
    );
    assert_eq!(
        outcome("begun"),
        outcomes.iter().map(|o| outcome(o)).sum::<u64>(),
        "request reconciliation must be exact under chaos"
    );
    if policy.is_limited() {
        assert!(
            outcome("shed") + outcome("degraded") > 0,
            "a 4x overload past the admission cap must shed or degrade"
        );
    }
    println!("overload verified: every ticket resolved, counters reconcile exactly");

    let registry = MetricsRegistry::new();
    chaos.register_metrics(&registry);
    engine.register_metrics(&registry, &[("engine", "mixed")]);
    cached.register_metrics(&registry, &[("engine", "cached")]);
    ticketed.register_metrics(&registry, &[("engine", "ticketed")]);
    traced.register_metrics(&registry);
    register_kernel_profiles(&registry);
    let snap = registry.snapshot();
    println!(
        "registry snapshot: {} samples (engines, shards, cache, kernel shapes)",
        snap.samples.len()
    );

    let dump = |var: &str, contents: String| {
        if let Ok(path) = std::env::var(var) {
            if !path.is_empty() {
                if let Some(dir) = std::path::Path::new(&path).parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir).expect("create telemetry dir");
                    }
                }
                std::fs::write(&path, contents).expect("write telemetry dump");
                println!("wrote {var} -> {path}");
            }
        }
    };
    dump("FUSEDMM_METRICS_PROM", snap.to_prometheus());
    dump("FUSEDMM_METRICS_JSON", snap.to_json());
    dump("FUSEDMM_TRACE_JSON", tracer.chrome_json());
}
