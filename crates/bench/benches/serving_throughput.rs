//! Serving-throughput benchmark: concurrent clients issuing node-subset
//! embedding requests through the engine's micro-batcher, swept over
//! request batch sizes {1, 16, 256}, over 1/2/4-shard PART1D engines,
//! under publish-while-serving (reader p99 across epoch swaps), over
//! zipf-skewed hot-repeat traffic with the result cache on/off (hit
//! ratio and p50/p99 per cell), and — open-loop — over ticketed
//! (`embed_begin`) in-flight windows swept across depth × shards ×
//! cache, with coalesced-miss and peak-in-flight counters per cell.
//! An overload point (offered depth ≫ admission cap) reports shed
//! rate, degraded rate, and served p99 with admission control off vs
//! on, and a degraded-tier sweep reports the `TopKNeighbors(k)`
//! max-abs error against the exact embedding per k.
//!
//! Reports requests/sec, deduplicated rows/sec, and the p50/p99
//! end-to-end request latency recorded by the engine's histogram.
//!
//! Knobs: `FUSEDMM_SERVE_N` (vertices), `FUSEDMM_SERVE_D` (dimension),
//! `FUSEDMM_SERVE_CLIENTS`, `FUSEDMM_SERVE_REQS` (requests per client),
//! `FUSEDMM_CACHE_MB` (cache budget for the cache sweep),
//! `FUSEDMM_BENCH_JSON` (write the whole report as JSON to this path —
//! the bench-smoke CI job archives it as a workflow artifact).
//!
//! Run: `cargo bench --bench serving_throughput`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm_bench::report::{run_meta, JsonReport, Table};
use fusedmm_bench::workloads::{env_usize, ZipfSampler};
use fusedmm_core::kernel_profiles;
use fusedmm_graph::features::random_features;
use fusedmm_graph::rmat::{rmat, RmatConfig};
use fusedmm_ops::OpSet;
use fusedmm_perf::flops::flops_per_edge;
use fusedmm_perf::roofline::arithmetic_intensity;
use fusedmm_perf::stream::stream_triad;
use fusedmm_serve::{
    wait_any, AdmissionPolicy, CacheConfig, EmbedOptions, EmbedResponse, Engine, EngineConfig,
    FaultPlan, Quality, ServeError, ShardedEngine, Ticket, Tracer,
};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

const BATCH_SIZES: [usize; 3] = [1, 16, 256];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Zipf exponents for the cache sweep: uniform, moderate, web-style.
const ZIPF_SKEWS: [f64; 3] = [0.0, 0.8, 1.2];
/// In-flight window depths for the open-loop ticket sweep.
const INFLIGHT_DEPTHS: [usize; 3] = [1, 16, 128];

fn config() -> EngineConfig {
    // Unlimited admission and no injection: the steady-state sweeps
    // must not be perturbed by a chaos environment
    // (FUSEDMM_ADMIT_* / FUSEDMM_FAULT_PLAN); only the dedicated
    // overload sweep opts into admission control, explicitly.
    EngineConfig {
        coalesce_window: Duration::from_micros(100),
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

fn drive_clients(
    clients: usize,
    requests_per_client: usize,
    batch: usize,
    n: usize,
    embed: impl Fn(&[usize]) -> Dense + Sync,
) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let embed = &embed;
            s.spawn(move || {
                for r in 0..requests_per_client {
                    let nodes: Vec<usize> =
                        (0..batch).map(|i| (c * 7919 + r * 104_729 + i * 31) % n).collect();
                    std::hint::black_box(embed(&nodes));
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

fn batch_size_sweep(a: &Csr, feats: &Dense, n: usize, clients: usize, requests: usize) -> Table {
    let mut table = Table::new(&[
        "Batch",
        "Requests",
        "req/s",
        "rows/s (deduped)",
        "p50 (us)",
        "p99 (us)",
        "max (us)",
        "kernel launches",
    ]);
    for batch in BATCH_SIZES {
        // Fresh engine per batch size so the histogram isolates one
        // configuration.
        let engine = Engine::new(
            a.clone(),
            feats.clone(),
            feats.clone(),
            OpSet::sigmoid_embedding(None),
            config(),
        );
        let elapsed = drive_clients(clients, requests, batch, n, |nodes| {
            engine.embed(nodes).expect("embed request")
        });
        let m = engine.metrics();
        table.row(vec![
            batch.to_string(),
            format!("{}", m.embed.count),
            format!("{:.0}", (clients * requests) as f64 / elapsed),
            format!("{:.0}", m.rows_computed as f64 / elapsed),
            format!("{:.0}", m.embed.p50.as_secs_f64() * 1e6),
            format!("{:.0}", m.embed.p99.as_secs_f64() * 1e6),
            format!("{:.0}", m.embed.max.as_secs_f64() * 1e6),
            m.batches_dispatched.to_string(),
        ]);
    }
    table.print();
    println!("\nShape to verify: rows/s rises with batch size while the micro-batcher's");
    println!("kernel launches stay well below the request count.\n");
    table
}

fn shard_sweep(a: &Csr, feats: &Dense, n: usize, clients: usize, requests: usize) -> Table {
    let batch = 64;
    let mut table = Table::new(&[
        "Shards",
        "req/s",
        "merged p50 (us)",
        "merged p99 (us)",
        "embed p99/shard (us)",
    ]);
    for shards in SHARD_COUNTS {
        let engine = ShardedEngine::new(
            a.clone(),
            feats.clone(),
            feats.clone(),
            OpSet::sigmoid_embedding(None),
            shards,
            config(),
        );
        let elapsed = drive_clients(clients, requests, batch, n, |nodes| {
            engine.embed(nodes).expect("sharded embed")
        });
        let m = engine.metrics();
        // Each shard engine's own embed histogram (enqueue → batch
        // completion) is the unskewed per-shard latency; the front
        // end's fanout metric traces gather order, not compute.
        let per_shard: Vec<String> =
            m.per_shard.iter().map(|s| format!("{:.0}", s.embed.p99.as_secs_f64() * 1e6)).collect();
        table.row(vec![
            shards.to_string(),
            format!("{:.0}", (clients * requests) as f64 / elapsed),
            format!("{:.0}", m.embed.p50.as_secs_f64() * 1e6),
            format!("{:.0}", m.embed.p99.as_secs_f64() * 1e6),
            per_shard.join("/"),
        ]);
    }
    table.print();
    println!("\nShape to verify: the nnz-balanced cut keeps per-shard embed p99s close");
    println!("to each other (no straggler band).\n");
    table
}

fn publish_while_serving(
    a: &Csr,
    feats: &Dense,
    n: usize,
    clients: usize,
    requests: usize,
) -> Table {
    let d = feats.ncols();
    let batch = 64;
    let mut table =
        Table::new(&["Publishes", "req/s", "p50 (us)", "p99 (us)", "max (us)", "epochs served"]);
    for publish_every in [None, Some(Duration::from_millis(5)), Some(Duration::from_millis(1))] {
        let engine = Engine::new(
            a.clone(),
            feats.clone(),
            feats.clone(),
            OpSet::sigmoid_embedding(None),
            config(),
        );
        let stop = AtomicBool::new(false);
        let mut elapsed = 0.0;
        std::thread::scope(|s| {
            if let Some(every) = publish_every {
                let store = engine.store().clone();
                let stop = &stop;
                let base = feats.clone();
                s.spawn(move || {
                    let mut k = 0u32;
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(every);
                        let scale = 1.0 + (k % 16) as f32 * 0.001;
                        let fresh = Dense::from_fn(n, d, |r, c| base.get(r, c) * scale);
                        store.publish(fresh.clone(), fresh);
                        k += 1;
                    }
                });
            }
            elapsed = drive_clients(clients, requests, batch, n, |nodes| {
                engine.embed(nodes).expect("embed during publishes")
            });
            stop.store(true, Ordering::Release);
        });
        let m = engine.metrics();
        table.row(vec![
            match publish_every {
                None => "none".into(),
                Some(e) => format!("every {:?}", e),
            },
            format!("{:.0}", (clients * requests) as f64 / elapsed),
            format!("{:.0}", m.embed.p50.as_secs_f64() * 1e6),
            format!("{:.0}", m.embed.p99.as_secs_f64() * 1e6),
            format!("{:.0}", m.embed.max.as_secs_f64() * 1e6),
            format!("{}", m.epoch_swaps + 1),
        ]);
    }
    table.print();
    println!("\nShape to verify: reader p99 moves little as publish frequency rises —");
    println!("the RCU swap keeps the read hot path lock-brief, and batches pin their");
    println!("epoch instead of waiting out a publish.");
    table
}

fn cache_sweep(a: &Csr, feats: &Dense, n: usize, clients: usize, requests: usize) -> Table {
    let batch = 64;
    let cache_mb = env_usize("FUSEDMM_CACHE_MB", 256);
    let mut table = Table::new(&[
        "Skew",
        "Cache",
        "req/s",
        "hit ratio",
        "p50 (us)",
        "p99 (us)",
        "rows computed",
    ]);
    for skew in ZIPF_SKEWS {
        for cached in [false, true] {
            let cfg =
                EngineConfig { cache: cached.then(|| CacheConfig::with_mb(cache_mb)), ..config() };
            let engine = Engine::new(
                a.clone(),
                feats.clone(),
                feats.clone(),
                OpSet::sigmoid_embedding(None),
                cfg,
            );
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for c in 0..clients {
                    let engine = &engine;
                    s.spawn(move || {
                        // Every client draws from the same popularity
                        // distribution (different seeds), so hot nodes
                        // repeat within and across clients.
                        let mut zipf = ZipfSampler::new(n, skew, 0xC0FFEE + c as u64);
                        for _ in 0..requests {
                            let nodes = zipf.batch(batch);
                            std::hint::black_box(engine.embed(&nodes).expect("zipf embed"));
                        }
                    });
                }
            });
            let elapsed = t0.elapsed().as_secs_f64();
            let m = engine.metrics();
            let hit = match m.cache {
                Some(c) => format!("{:.1}%", c.overall_hit_ratio() * 100.0),
                None => "-".into(),
            };
            table.row(vec![
                format!("{skew:.1}"),
                if cached { "on".into() } else { "off".into() },
                format!("{:.0}", (clients * requests) as f64 / elapsed),
                hit,
                format!("{:.0}", m.embed.p50.as_secs_f64() * 1e6),
                format!("{:.0}", m.embed.p99.as_secs_f64() * 1e6),
                m.rows_computed.to_string(),
            ]);
        }
    }
    table.print();
    println!("\nShape to verify: hit ratio, the cache-on p50 win, and the drop in rows");
    println!("computed all grow with skew — at s=1.2 most rows come from memory, while");
    println!("at s=0.0 (uniform) the cache only helps once the set fits its budget.");
    table
}

/// Either front end behind the ticketed request surface, so the
/// open-loop sweep can drive single and sharded engines with one loop.
enum AnyServe {
    Single(Engine),
    Sharded(ShardedEngine),
}

impl AnyServe {
    fn build(a: &Csr, feats: &Dense, shards: usize, cache: Option<CacheConfig>) -> AnyServe {
        let cfg = EngineConfig { cache, ..config() };
        let ops = OpSet::sigmoid_embedding(None);
        if shards <= 1 {
            AnyServe::Single(Engine::new(a.clone(), feats.clone(), feats.clone(), ops, cfg))
        } else {
            AnyServe::Sharded(ShardedEngine::new(
                a.clone(),
                feats.clone(),
                feats.clone(),
                ops,
                shards,
                cfg,
            ))
        }
    }

    fn embed_begin(&self, nodes: &[usize]) -> Ticket<Dense> {
        match self {
            AnyServe::Single(e) => e.embed_begin(nodes).expect("embed_begin"),
            AnyServe::Sharded(e) => e.embed_begin(nodes).expect("sharded embed_begin"),
        }
    }

    /// (merged p50 us, merged p99 us, peak in-flight, coalesced misses)
    fn observed(&self) -> (f64, f64, u64, Option<u64>) {
        match self {
            AnyServe::Single(e) => {
                let m = e.metrics();
                (
                    m.embed.p50.as_secs_f64() * 1e6,
                    m.embed.p99.as_secs_f64() * 1e6,
                    m.inflight_peak,
                    m.cache.map(|c| c.coalesced_misses),
                )
            }
            AnyServe::Sharded(e) => {
                let m = e.metrics();
                (
                    m.embed.p50.as_secs_f64() * 1e6,
                    m.embed.p99.as_secs_f64() * 1e6,
                    m.inflight_peak,
                    m.cache.map(|c| c.coalesced_misses),
                )
            }
        }
    }
}

/// Open-loop ticketed serving: every client keeps a window of `depth`
/// un-harvested tickets open, harvesting the oldest only when the
/// window fills — the non-blocking front end's intended shape. Swept
/// over in-flight depth × shard count × cache on/off.
fn inflight_sweep(a: &Csr, feats: &Dense, n: usize, clients: usize, requests: usize) -> Table {
    let batch = 16;
    let cache_mb = env_usize("FUSEDMM_CACHE_MB", 256);
    let mut table = Table::new(&[
        "Shards",
        "Cache",
        "Depth",
        "req/s",
        "p50 (us)",
        "p99 (us)",
        "peak in-flight",
        "coalesced",
    ]);
    for shards in [1usize, 4] {
        for cached in [false, true] {
            for depth in INFLIGHT_DEPTHS {
                let engine = AnyServe::build(
                    a,
                    feats,
                    shards,
                    cached.then(|| CacheConfig::with_mb(cache_mb)),
                );
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for c in 0..clients {
                        let engine = &engine;
                        s.spawn(move || {
                            // `wait_any` parks on the whole window and
                            // harvests whichever ticket completes first
                            // (O(1) wakeup work per completion) — no
                            // poll loop, no head-of-line blocking on
                            // the oldest ticket.
                            let mut window: Vec<Ticket<Dense>> = Vec::new();
                            for r in 0..requests {
                                // Overlapping hot subsets across
                                // clients, so concurrent misses on the
                                // same node exercise coalescing.
                                let nodes: Vec<usize> = (0..batch)
                                    .map(|i| ((c % 2) * 449 + r * 131 + i * 17) % n)
                                    .collect();
                                window.push(engine.embed_begin(&nodes));
                                if window.len() >= depth {
                                    let i = wait_any(&mut window).expect("window has live tickets");
                                    let done = window.swap_remove(i);
                                    std::hint::black_box(done.wait().expect("harvest"));
                                }
                            }
                            while let Some(i) = wait_any(&mut window) {
                                let done = window.swap_remove(i);
                                std::hint::black_box(done.wait().expect("drain"));
                            }
                        });
                    }
                });
                let elapsed = t0.elapsed().as_secs_f64();
                let (p50, p99, peak, coalesced) = engine.observed();
                table.row(vec![
                    shards.to_string(),
                    if cached { "on".into() } else { "off".into() },
                    depth.to_string(),
                    format!("{:.0}", (clients * requests) as f64 / elapsed),
                    format!("{p50:.0}"),
                    format!("{p99:.0}"),
                    peak.to_string(),
                    coalesced.map_or("-".into(), |c| c.to_string()),
                ]);
            }
        }
    }
    table.print();
    println!("\nShape to verify: req/s climbs with depth (the dispatcher batches a full");
    println!("window per launch) while blocking-equivalent depth 1 sets the floor; with");
    println!("the cache on, deeper windows raise coalesced counts instead of recomputing.");
    table
}

/// Overload point: offered load far past the admission cap (window
/// depth = 8 x cap per client), with admission control off vs on. With
/// it off, every request queues and the tail latency is the queue;
/// with it on, the ladder answers part of the load from the cache
/// (degraded) and sheds the rest at the door, keeping the served p99
/// flat. Shed and degraded rates come from the engine's own counters.
fn overload_sweep(a: &Csr, feats: &Dense, n: usize, clients: usize) -> Table {
    let batch = 16;
    let cap = 32usize;
    let depth = 8 * cap;
    let requests = 4 * depth;
    let cache_mb = env_usize("FUSEDMM_CACHE_MB", 256);
    let mut table = Table::new(&[
        "Admission",
        "offered",
        "shed %",
        "degraded %",
        "served p99 (us)",
        "served req/s",
    ]);
    // Three policies: accept-everything, hard cap alone (shed-only,
    // degrade rung disabled), and the full ladder (degrade at 75% of
    // the cap, shed at the cap).
    let policies = [
        ("off", AdmissionPolicy::unlimited()),
        (
            "cap 32, shed-only",
            AdmissionPolicy { max_inflight: cap, max_queued_rows: 0, degrade_fraction: 1.0 },
        ),
        (
            "cap 32, degrade 75%",
            AdmissionPolicy { max_inflight: cap, max_queued_rows: 0, degrade_fraction: 0.75 },
        ),
    ];
    for (label, policy) in policies {
        let engine = Engine::new(
            a.clone(),
            feats.clone(),
            feats.clone(),
            OpSet::sigmoid_embedding(None),
            EngineConfig {
                cache: Some(CacheConfig::with_mb(cache_mb)),
                admission: Some(policy),
                ..config()
            },
        );
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let engine = &engine;
                s.spawn(move || {
                    let mut window: Vec<Ticket<EmbedResponse>> = Vec::new();
                    for r in 0..requests {
                        let nodes: Vec<usize> =
                            (0..batch).map(|i| (c * 7919 + r * 131 + i * 17) % n).collect();
                        match engine.embed_begin_opts(&nodes, EmbedOptions::default()) {
                            Ok(t) => window.push(t),
                            // Shed at the door is the policy working;
                            // the engine counted it.
                            Err(ServeError::Shed { .. }) => {}
                            Err(e) => panic!("unexpected eager error: {e:?}"),
                        }
                        if window.len() >= depth {
                            let i = wait_any(&mut window).expect("window has live tickets");
                            let done = window.swap_remove(i);
                            std::hint::black_box(done.wait().expect("overload harvest"));
                        }
                    }
                    while let Some(i) = wait_any(&mut window) {
                        let done = window.swap_remove(i);
                        std::hint::black_box(done.wait().expect("overload drain"));
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let m = engine.metrics();
        let offered = m.requests_begun;
        let served = m.requests_harvested + m.requests_degraded;
        table.row(vec![
            label.into(),
            offered.to_string(),
            format!("{:.1}%", m.requests_shed as f64 / offered as f64 * 100.0),
            format!("{:.1}%", m.requests_degraded as f64 / offered as f64 * 100.0),
            format!("{:.0}", m.embed.p99.as_secs_f64() * 1e6),
            format!("{:.0}", served as f64 / elapsed),
        ]);
    }
    table.print();
    println!("\nShape to verify: with admission off everything is served but the p99 is");
    println!("the whole queue; with the ladder on, shed + degraded absorb the excess and");
    println!("the served p99 collapses toward the uncongested latency.");
    table
}

/// Degraded-tier accuracy: `TopKNeighbors(k)` truncates each row's
/// neighbor list to its k heaviest edges before the kernel runs — this
/// sweep measures the resulting error against the exact embedding, per
/// k, on one engine (so both tiers share one plan and one epoch).
fn topk_error_sweep(a: &Csr, feats: &Dense, n: usize) -> Table {
    let engine = Engine::new(
        a.clone(),
        feats.clone(),
        feats.clone(),
        OpSet::sigmoid_embedding(None),
        config(),
    );
    let nodes: Vec<usize> = (0..256).map(|i| (i * 131) % n).collect();
    let exact = engine.embed(&nodes).expect("exact embed");
    let mut table = Table::new(&["k", "max |err|", "mean |err|", "rows marked degraded"]);
    for k in [2usize, 4, 8, 16] {
        let resp = engine
            .embed_begin_opts(&nodes, EmbedOptions::with_quality(Quality::TopKNeighbors(k)))
            .expect("topk begin")
            .wait()
            .expect("topk embed");
        assert!(
            resp.served_degraded.iter().all(|&b| b),
            "every TopKNeighbors row carries its degraded mark"
        );
        let mut max_err = 0f64;
        let mut sum_err = 0f64;
        for r in 0..resp.rows.nrows() {
            for c in 0..resp.rows.ncols() {
                let e = (resp.rows.get(r, c) - exact.get(r, c)).abs() as f64;
                max_err = max_err.max(e);
                sum_err += e;
            }
        }
        let mean = sum_err / (resp.rows.nrows() * resp.rows.ncols()) as f64;
        table.row(vec![
            k.to_string(),
            format!("{max_err:.3e}"),
            format!("{mean:.3e}"),
            format!("{}/{}", resp.served_degraded.len(), nodes.len()),
        ]);
    }
    table.print();
    println!("\nShape to verify: max |err| falls monotonically as k grows — each extra");
    println!("retained neighbor closes the gap to the exact aggregation.");
    table
}

/// Overhead guard: the same closed-loop workload with tracing disabled
/// vs sampled on (1 request in 64), interleaved twice per mode with
/// best-of taken, so telemetry cannot silently tax the serving hot
/// path. Asserts the sampled p50 stays within 5% of the disabled p50
/// (plus 50 us absolute slack for smoke-scale noise).
fn telemetry_overhead(a: &Csr, feats: &Dense, n: usize, clients: usize, requests: usize) -> Table {
    let batch = 16;
    let run = |tracer: Arc<Tracer>| {
        let engine = Engine::new(
            a.clone(),
            feats.clone(),
            feats.clone(),
            OpSet::sigmoid_embedding(None),
            EngineConfig { tracer: Some(tracer), ..config() },
        );
        let elapsed = drive_clients(clients, requests, batch, n, |nodes| {
            engine.embed(nodes).expect("overhead embed")
        });
        let m = engine.metrics();
        (m.embed.p50.as_secs_f64() * 1e6, (clients * requests) as f64 / elapsed)
    };
    // Warm up the plan cache and allocator outside the measurement.
    let _ = run(Tracer::disabled());
    let mut off = (f64::INFINITY, 0f64);
    let mut on = (f64::INFINITY, 0f64);
    for _ in 0..2 {
        let r = run(Tracer::disabled());
        if r.0 < off.0 {
            off = r;
        }
        let r = run(Tracer::new(1.0 / 64.0, 4096));
        if r.0 < on.0 {
            on = r;
        }
    }
    let regression = (on.0 - off.0) / off.0 * 100.0;
    let mut table = Table::new(&["Tracing", "req/s", "p50 (us)", "p50 regression"]);
    table.row(vec!["off".into(), format!("{:.0}", off.1), format!("{:.0}", off.0), "-".into()]);
    table.row(vec![
        "1/64 sampled".into(),
        format!("{:.0}", on.1),
        format!("{:.0}", on.0),
        format!("{regression:+.1}%"),
    ]);
    table.print();
    let slack = off.0 * 0.05 + 50.0;
    assert!(
        on.0 <= off.0 + slack,
        "sampled tracing regressed embed p50 by {regression:.1}% ({:.0} us -> {:.0} us), \
         beyond the 5% + 50 us guard",
        off.0,
        on.0,
    );
    println!("\nGuard: sampled tracing held the p50 within 5% (+50 us slack) of tracing-off.\n");
    table
}

/// Achieved vs roofline GFLOP/s per kernel shape the dispatcher
/// launched anywhere in this process — the per-`(op, d, backend,
/// blocking)` accounting recorded by `core::dispatch`. The roof is
/// `STREAM bandwidth x AI(d, delta)` (paper Eq. 4) with `delta` taken
/// per shape from its accumulated edges/rows.
fn kernel_roofline() -> Table {
    let bw = stream_triad(8 << 20, 3).gbytes_per_sec;
    println!("STREAM triad bandwidth: {bw:.1} GB/s\n");
    let mut table = Table::new(&[
        "op",
        "d",
        "backend",
        "blocking",
        "launches",
        "rows",
        "avg deg",
        "GFLOP/s",
        "roofline",
        "efficiency",
    ]);
    for p in kernel_profiles() {
        let secs = p.elapsed.as_secs_f64();
        if p.rows == 0 || p.edges == 0 || secs <= 0.0 {
            continue;
        }
        let avg_degree = p.edges as f64 / p.rows as f64;
        let gflops = p.edges as f64 * flops_per_edge(p.pattern, p.d) as f64 / secs / 1e9;
        let roof = bw * arithmetic_intensity(p.d, avg_degree);
        table.row(vec![
            p.pattern.name().to_string(),
            p.d.to_string(),
            p.backend.label().to_string(),
            p.blocking.to_string(),
            p.calls.to_string(),
            p.rows.to_string(),
            format!("{avg_degree:.1}"),
            format!("{gflops:.2}"),
            format!("{roof:.2}"),
            format!("{:.0}%", gflops / roof * 100.0),
        ]);
    }
    table.print();
    println!("\nShape to verify: every shape sits under its bandwidth-bound roof; serving");
    println!("launches (small row subsets, latency-bound) land well below the batch roof.");
    table
}

fn main() {
    let n = env_usize("FUSEDMM_SERVE_N", 20_000);
    let d = env_usize("FUSEDMM_SERVE_D", 64);
    let clients = env_usize("FUSEDMM_SERVE_CLIENTS", 8);
    let requests_per_client = env_usize("FUSEDMM_SERVE_REQS", 64);

    let a = rmat(&RmatConfig::new(n, 8 * n).with_seed(1));
    let feats = random_features(n, d, 0.5, 2);
    println!(
        "serving throughput — {} vertices, {} edges, d={d}, {clients} clients x {requests_per_client} requests\n",
        a.nrows(),
        a.nnz()
    );

    let mut report = JsonReport::new();

    let meta = run_meta();
    meta.print();
    println!();
    report.section("meta", &meta);

    println!("== batch-size sweep (single engine) ==");
    report.section("batch_size", &batch_size_sweep(&a, &feats, n, clients, requests_per_client));

    println!("== PART1D shard sweep (batch 64) ==");
    report.section("shards", &shard_sweep(&a, &feats, n, clients, requests_per_client));

    println!("== publish-while-serving (batch 64) ==");
    report.section(
        "publish_while_serving",
        &publish_while_serving(&a, &feats, n, clients, requests_per_client),
    );

    println!("== zipf skew x result cache (batch 64) ==");
    report.section("zipf_cache", &cache_sweep(&a, &feats, n, clients, requests_per_client));

    println!("\n== open-loop ticketed serving: in-flight depth x shards x cache (batch 16) ==");
    report.section("inflight", &inflight_sweep(&a, &feats, n, clients, requests_per_client));

    println!("\n== overload point: admission off vs on (batch 16, depth 8x cap) ==");
    report.section("overload", &overload_sweep(&a, &feats, n, clients));

    println!("\n== TopKNeighbors degraded-tier error vs exact ==");
    report.section("topk_error", &topk_error_sweep(&a, &feats, n));

    println!("\n== telemetry overhead guard (batch 16) ==");
    report.section(
        "telemetry_overhead",
        &telemetry_overhead(&a, &feats, n, clients, requests_per_client),
    );

    println!("\n== kernel shapes: achieved vs roofline ==");
    report.section("kernel_roofline", &kernel_roofline());

    if let Some(path) = JsonReport::env_path() {
        report.write(&path).expect("write FUSEDMM_BENCH_JSON report");
        println!("\nJSON report written to {}", path.display());
    }
}
