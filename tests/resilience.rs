//! Resilience under overload and injected faults: the serving engines
//! must never hang a ticket, must reconcile their request counters
//! exactly (`begun == harvested + degraded + shed + failed +
//! abandoned`), and must keep Exact-tier responses bit-identical to a
//! fault-free run — even while the fault plan panics kernel launches,
//! delays cache fills, and poisons a cache segment, and the admission
//! policy sheds a 4× overload.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm::kernel::Partition;
use fusedmm::prelude::*;

/// `(begun, harvested + degraded + shed + failed + abandoned)` from
/// one scrape's ledger samples.
fn ledger(m: &MetricsSnapshot) -> (u64, u64) {
    let outcomes = ["harvested", "degraded", "shed", "failed", "abandoned"];
    let resolved = outcomes.iter().map(|o| m.sum(&format!("fusedmm_requests_{o}_total")));
    (m.sum("fusedmm_requests_begun_total"), resolved.sum())
}

#[test]
fn every_launch_panicking_resolves_typed_not_hung() {
    quiet_injected_panics();
    let n = 32;
    let a = rmat(&RmatConfig::new(n, 3 * n).with_seed(9));
    let x = random_features(n, 6, 0.5, 1);
    let y = random_features(n, 6, 0.5, 2);
    let eng = Engine::new(
        a,
        x,
        y,
        OpSet::sigmoid_embedding(None),
        EngineConfig {
            fault: Some(Arc::new(FaultPlan::parse("panic_every=1").unwrap())),
            ..EngineConfig::default()
        },
    );
    // Every launch panics, including the one-shot healthy-path retry:
    // the request must resolve with a typed error, never hang.
    assert_eq!(eng.embed(&[3, 7]), Err(ServeError::PartFailed { shard: None }));
    let m = eng.metrics();
    assert_eq!(m.counter("fusedmm_requests_failed_total", &[]), Some(1));
    let panics = m.sum("fusedmm_panics_caught_total");
    assert!(panics >= 2, "original launch and its retry both panicked");
    let (begun, resolved) = ledger(&m);
    assert_eq!(begun, resolved);
}

/// Two blocking callers run their own launches on the same two bands at
/// once, and each band still numbers its launches as one sequence for
/// the fault plan: exactly every second launch panics. Every request
/// resolves — healed by its retry, or `PartFailed` when the retry drew
/// an even number too — and the ledger balances.
#[test]
fn concurrent_claimants_panic_exactly_every_second_launch() {
    quiet_injected_panics();
    let n = 256;
    let a = rmat(&RmatConfig::new(n, 6 * n).with_seed(5));
    let (x, y) = (random_features(n, 16, 0.5, 1), random_features(n, 16, 0.5, 2));
    let fault = Some(Arc::new(FaultPlan::parse("panic_every=2").unwrap()));
    let config = EngineConfig { fault, ..EngineConfig::default() };
    let eng = ShardedEngine::new(a, x, y, OpSet::sigmoid_embedding(None), 2, config);
    let calls = 400;
    let barrier = std::sync::Barrier::new(2);
    let outcomes: Vec<Result<Dense, ServeError>> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..2)
            .map(|t| {
                let (eng, barrier) = (&eng, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    // Both shards every call, overlapping the other caller's rows.
                    let ids = |i: usize| [(i * 7 + t) % (n / 2), n / 2 + (i * 13 + t) % (n / 2)];
                    (0..calls).map(|i| eng.embed(&ids(i))).collect::<Vec<_>>()
                })
            })
            .collect();
        callers.into_iter().flat_map(|h| h.join().expect("caller panicked")).collect()
    });
    let healed = outcomes.iter().filter(|r| r.is_ok()).count();
    for r in &outcomes {
        assert!(matches!(r, Ok(_) | Err(ServeError::PartFailed { .. })), "{r:?}");
    }
    assert!(healed > 0, "most requests heal on their retry");
    let m = eng.metrics();
    for shard in ["0", "1"] {
        let count = |name| m.counter(name, &[("shard", shard)]).expect("a band counter");
        let panics = count("fusedmm_panics_caught_total");
        let launches = count("fusedmm_batches_dispatched_total") + panics;
        assert!(launches >= calls as u64, "shard {shard}: {launches} launches");
        assert_eq!(panics, launches / 2, "shard {shard}: every second launch panics");
    }
    let (begun, resolved) = ledger(&m);
    assert_eq!((begun, resolved), (2 * calls as u64, 2 * calls as u64));
}

/// A blocking caller whose request fails past its retry lets go of the
/// parts it still has queued: a second caller whose row coalesced onto
/// one of them runs it (and fails typed) instead of sleeping on a band
/// that nobody wakes. Every launch panics, so each round ends in
/// `PartFailed` for both callers; whenever caller 0 begins first, caller
/// 1's one row waits on caller 0's shard-1 part, which caller 0 never
/// runs, because its shard-0 part fails first.
#[test]
fn a_failed_claimant_leaves_its_queued_parts_to_coalesced_waiters() {
    quiet_injected_panics();
    let n = 64;
    let a = rmat(&RmatConfig::new(n, 4 * n).with_seed(3));
    let feats = random_features(n, 8, 0.5, 4);
    let config = EngineConfig {
        cache: Some(CacheConfig::default()),
        fault: Some(Arc::new(FaultPlan::parse("panic_every=1").unwrap())),
        ..EngineConfig::default()
    };
    let eng = Arc::new(ShardedEngine::new(a, feats.clone(), feats, OpSet::gcn(), 2, config));
    let rounds = 300;
    let arrived = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = std::sync::mpsc::channel();
    // Unscoped threads, joined only once every call has returned, and a
    // bounded receive: a hung call fails the test instead of hanging it.
    let callers: Vec<_> = (0..2)
        .map(|t| {
            let (eng, arrived, tx) = (Arc::clone(&eng), Arc::clone(&arrived), tx.clone());
            std::thread::spawn(move || {
                for r in 0..rounds {
                    // Start each round together (a sleeping barrier wakes
                    // one thread tens of µs late, so the calls rarely
                    // overlap), then caller 1 lags 0–15 µs: some rounds
                    // land it inside caller 0's call.
                    arrived.fetch_add(1, Ordering::AcqRel);
                    while arrived.load(Ordering::Acquire) < 2 * (r + 1) {
                        std::thread::yield_now();
                    }
                    let lag = Instant::now() + Duration::from_micros((t * (r % 16)) as u64);
                    while Instant::now() < lag {
                        std::hint::spin_loop();
                    }
                    let shared = n / 2 + r % (n / 2);
                    let ids = if t == 0 { vec![r % (n / 2), shared] } else { vec![shared] };
                    let _ = tx.send(eng.embed(&ids));
                }
            })
        })
        .collect();
    for call in 0..2 * rounds {
        let out = rx.recv_timeout(Duration::from_secs(30));
        let out = out.unwrap_or_else(|_| panic!("call {call} of {} never returned", 2 * rounds));
        assert!(matches!(out, Err(ServeError::PartFailed { .. })), "{out:?}");
    }
    callers.into_iter().for_each(|h| h.join().expect("caller panicked"));
    let (begun, resolved) = ledger(&eng.metrics());
    assert_eq!((begun, resolved), (2 * rounds as u64, 2 * rounds as u64));
}

#[test]
fn wait_any_drains_an_overloaded_window_across_shards() {
    let n = 96;
    let d = 8;
    let a = rmat(&RmatConfig::new(n, 4 * n).with_seed(11));
    let x = random_features(n, d, 0.5, 3);
    let y = random_features(n, d, 0.5, 4);
    let ops = OpSet::sigmoid_embedding(None);
    let single = Engine::new(a.clone(), x.clone(), y.clone(), ops.clone(), EngineConfig::default());
    let eng = ShardedEngine::new(a, x, y, ops, 3, EngineConfig::default());
    let windows: Vec<Vec<usize>> =
        (0..12).map(|i| vec![(i * 17) % n, (i * 5 + 3) % n, (i * 29 + 7) % n]).collect();
    let mut tix: Vec<Ticket<Dense>> = windows.iter().map(|w| eng.embed_begin(w).unwrap()).collect();
    let mut drained = 0;
    while let Some(i) = wait_any(&mut tix) {
        let z = tix[i].poll().expect("wait_any returns ready tickets").unwrap();
        assert_eq!(z, single.embed(&windows[i]).unwrap(), "window {i} bit-identical");
        drained += 1;
    }
    assert_eq!(drained, windows.len(), "every ticket completed exactly once");
}

#[test]
fn sharded_deadline_expiry_is_typed_and_counted() {
    let n = 48;
    let a = rmat(&RmatConfig::new(n, 3 * n).with_seed(5));
    let feats = random_features(n, 4, 0.5, 6);
    let config = EngineConfig {
        cache: Some(CacheConfig::default()),
        fault: Some(Arc::new(FaultPlan::parse("delay_fill_us=100000").unwrap())),
        ..EngineConfig::default()
    };
    let eng = ShardedEngine::new(a, feats.clone(), feats, OpSet::gcn(), 2, config);
    // Each piece queues behind an Exact launch whose cache fill the
    // fault plan stalls past the deadline; a different tier never
    // shares that launch, and the deadline is re-checked before its own.
    let ahead = eng.embed_begin(&[1, 47]).unwrap();
    let deadline = Instant::now() + Duration::from_millis(20);
    let opts = EmbedOptions { deadline: Some(deadline), quality: Quality::TopKNeighbors(2) };
    let t = eng.embed_begin_opts(&[1, 47], opts).unwrap();
    assert_eq!(t.wait().map(|r| r.rows), Err(ServeError::DeadlineExpired));
    ahead.wait().unwrap();
    let m = eng.metrics();
    assert_eq!(m.counter("fusedmm_requests_failed_total", &[]), Some(1));
    let expired = m.sum("fusedmm_expired_dropped_total");
    assert_eq!(expired, 2, "both pieces expired in their queues");
    assert_eq!(m.sum("fusedmm_rows_computed_total"), 2, "no kernel time past the deadline");
}

/// A request with a deadline runs its own parts as it begins, so a
/// window of them harvested late — after other work, once every
/// deadline has passed — is served in full, not expired in the queue.
#[test]
fn deadline_tickets_harvested_late_are_served() {
    let (n, d) = (96, 8);
    let a = rmat(&RmatConfig::new(n, 4 * n).with_seed(13));
    let x = random_features(n, d, 0.5, 7);
    let y = random_features(n, d, 0.5, 8);
    let ops = OpSet::sigmoid_embedding(None);
    let single = Engine::new(a.clone(), x.clone(), y.clone(), ops.clone(), EngineConfig::default());
    let windows: Vec<Vec<usize>> =
        (0..16).map(|i| vec![(i * 7) % n, (i * 13 + 5) % n, (i * 31 + 2) % n]).collect();
    for nshards in [1, 2] {
        let config =
            EngineConfig { cache: Some(CacheConfig::default()), ..EngineConfig::default() };
        let eng = ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops.clone(), nshards, config);
        let deadline = Instant::now() + Duration::from_millis(300);
        let opts = EmbedOptions::with_deadline(deadline);
        let mut tix: Vec<_> =
            windows.iter().map(|w| eng.embed_begin_opts(w, opts).unwrap()).collect();
        eng.embed(&[0, 1, 2]).unwrap();
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        let mut served = 0;
        while let Some(i) = wait_any(&mut tix) {
            let resp = tix[i].poll().expect("ready after wait_any").expect("served in time");
            assert_eq!(resp.rows, single.embed(&windows[i]).unwrap(), "window {i} bit-identical");
            served += 1;
        }
        let m = eng.metrics();
        assert_eq!(served, windows.len());
        let harvested = m.counter("fusedmm_requests_harvested_total", &[]);
        let failed = m.counter("fusedmm_requests_failed_total", &[]);
        assert_eq!((harvested, failed), (Some(17), Some(0)), "{nshards} shards");
        assert_eq!(m.sum("fusedmm_expired_dropped_total"), 0);
    }
}

/// Transport chaos: serve through real unix sockets whose coordinator
/// side severs the connection every Nth request frame and delays every
/// frame write — every request must resolve (typed `PartFailed` while
/// the link is down, never a hang), the front-end ledger must
/// reconcile exactly, every successful Exact response must stay
/// bit-identical to the fault-free in-process engine, and the
/// transport must keep reconnecting (with epoch-log catch-up) for the
/// whole run.
#[test]
fn transport_disconnect_chaos_resolves_every_request_and_reconciles() {
    let (n, d, nshards) = (96, 8, 2);
    let a = rmat(&RmatConfig::new(n, 3 * n).with_seed(9));
    let x = random_features(n, d, 0.5, 1);
    let y = random_features(n, d, 0.5, 2);
    let ops = OpSet::sigmoid_embedding(None);

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths: Vec<std::path::PathBuf> =
        (0..nshards).map(|s| dir.join(format!("fusedmm-chaos-{pid}-{s}.sock"))).collect();
    let servers: Vec<_> = (0..nshards)
        .map(|s| {
            let band = Partition::part1d(&a, nshards, PartitionStrategy::NnzBalanced).rows(s);
            let engine = WorkerEngine::new(
                &a,
                band,
                s,
                Dense::zeros(n, d),
                Dense::zeros(n, d),
                ops.clone(),
                EngineConfig { cache: Some(CacheConfig::default()), ..EngineConfig::default() },
            );
            WorkerServer::serve_unix(Arc::new(engine), &paths[s]).expect("bind chaos worker")
        })
        .collect();

    let mut rpc_config = RpcConfig::new(paths.clone());
    rpc_config.fault =
        Some(Arc::new(FaultPlan::parse("drop_conn_every=5,delay_frame_us=200").unwrap()));
    let transport = RpcTransport::connect(rpc_config).expect("connect chaos workers");
    let remote =
        RemoteShardedEngine::new(x.clone(), y.clone(), transport.clone(), EngineConfig::default());
    let fault_free = ShardedEngine::new(a, x, y, ops, nshards, EngineConfig::default());

    let total_reconnects = || (0..nshards).map(|s| transport.reconnects(s)).sum::<u64>();
    let mut reconnects_seen = 0u64;
    let (mut ok, mut failed) = (0u64, 0u64);
    for i in 0..40usize {
        // A delta every 10th request keeps the replicated log moving
        // while connections churn — reconnects must catch up.
        if i % 10 == 5 {
            let rows = vec![i % n, (i * 3 + 1) % n];
            let patch = Dense::from_fn(rows.len(), d, |r, k| (i + r * 3 + k) as f32 * 0.01);
            let re = remote.delta_update(&rows, &patch, &patch);
            let le = fault_free.store().delta_update(&rows, &patch, &patch);
            assert_eq!(re, le, "both sides mint the same epoch");
        }
        let nodes = vec![(i * 17) % n, (i * 5 + 3) % n, (i * 29 + 7) % n];
        match remote.embed(&nodes) {
            Ok(rows) => {
                assert_eq!(
                    rows,
                    fault_free.embed(&nodes).unwrap(),
                    "request {i}: surviving Exact response bit-identical"
                );
                ok += 1;
            }
            // The link was down or died mid-request: typed, not hung.
            Err(ServeError::PartFailed { .. }) => {
                failed += 1;
                // A failure means a link went down after the last
                // reconnect this loop saw: wait for the manager to
                // re-establish it before the next request.
                let deadline = Instant::now() + Duration::from_secs(30);
                while total_reconnects() == reconnects_seen {
                    assert!(Instant::now() < deadline, "request {i}: no link came back");
                    std::thread::sleep(Duration::from_millis(5));
                }
                reconnects_seen = total_reconnects();
            }
            Err(e) => panic!("request {i}: unexpected error under transport chaos: {e}"),
        }
    }
    assert!(ok > 0, "some requests survive the chaos (got {ok} ok / {failed} failed)");
    assert!(failed > 0, "drop_conn_every=5 fails some requests (got {ok} ok / {failed} failed)");
    assert!(total_reconnects() > 0, "severed links were re-established");

    let m = remote.metrics();
    let (begun, resolved) = ledger(&m);
    assert_eq!(begun, 40);
    assert_eq!(begun, resolved, "remote ledger reconciles exactly under transport chaos");
    assert_eq!(m.counter("fusedmm_requests_harvested_total", &[]), Some(ok));
    assert_eq!(m.counter("fusedmm_requests_failed_total", &[]), Some(failed));

    drop(remote);
    drop(servers);
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The chaos invariant: a 4× admission-cap overload of mixed
    /// tiers and random deadlines, against an engine whose fault plan
    /// panics every 3rd launch, delays fills, and poisons a cache
    /// segment — every ticket resolves (no hang), the counters
    /// reconcile exactly, and every non-degraded Exact response is
    /// bit-identical to the fault-free engine.
    #[test]
    fn overloaded_chaotic_serving_never_hangs_and_reconciles(
        seed in 0u64..64,
        picks in proptest::collection::vec((0usize..1000, 0u8..4, 0u8..3), 32..33),
    ) {
        quiet_injected_panics();
        let n = 96;
        let d = 8;
        let a = rmat(&RmatConfig::new(n, 4 * n).with_seed(seed));
        let x = random_features(n, d, 0.5, seed ^ 1);
        let y = random_features(n, d, 0.5, seed ^ 2);
        let ops = OpSet::sigmoid_embedding(None);
        let fault_free =
            ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops.clone(), 3, EngineConfig::default());
        let cap = 8u64;
        let eng = ShardedEngine::new(
            a,
            x,
            y,
            ops,
            3,
            EngineConfig {
                cache: Some(CacheConfig::default()),
                admission: Some(AdmissionPolicy {
                    max_inflight: cap as usize,
                    max_queued_rows: 256,
                    degrade_fraction: 0.75,
                }),
                fault: Some(Arc::new(
                    FaultPlan::parse("panic_every=3,delay_fill_us=100,poison_segment=1").unwrap(),
                )),
                ..EngineConfig::default()
            },
        );
        let mut metas: Vec<Vec<usize>> = Vec::new();
        let mut tix: Vec<Ticket<EmbedResponse>> = Vec::new();
        let mut shed_local = 0u64;
        for (i, &(node, tier, dl)) in picks.iter().enumerate() {
            let nodes = vec![node % n, (node * 7 + i) % n];
            let opts = match tier {
                0 => EmbedOptions::default(),
                1 => EmbedOptions::with_quality(Quality::TopKNeighbors(2)),
                2 => EmbedOptions::with_quality(Quality::CachedOnly),
                _ => EmbedOptions::with_deadline(
                    Instant::now() + Duration::from_millis(dl as u64 * 5),
                ),
            };
            match eng.embed_begin_opts(&nodes, opts) {
                Ok(t) => {
                    metas.push(nodes);
                    tix.push(t);
                }
                Err(ServeError::Shed { inflight, .. }) => {
                    prop_assert!(inflight >= cap, "shed only at or past the cap");
                    shed_local += 1;
                }
                // A zero-millisecond deadline expires before admission
                // finishes: an eager typed failure, not a hang.
                Err(ServeError::DeadlineExpired) => {}
                Err(e) => prop_assert!(false, "unexpected eager error: {e:?}"),
            }
        }
        // Exercise the O(1) wakeup path once, then drain the window
        // with a bounded wait: no ticket may hang.
        let mut results: Vec<Option<Result<EmbedResponse, ServeError>>> = Vec::new();
        results.resize_with(tix.len(), || None);
        if let Some(i) = wait_any(&mut tix) {
            results[i] = Some(tix[i].poll().expect("ready after wait_any"));
        }
        for (i, t) in tix.iter_mut().enumerate() {
            if !t.is_live() {
                continue;
            }
            let r = t
                .wait_deadline(Instant::now() + Duration::from_secs(20))
                .expect("no ticket hangs under chaos");
            results[i] = Some(r);
        }
        for (i, r) in results.into_iter().enumerate() {
            match r.expect("every ticket was harvested") {
                Ok(resp) => match resp.quality {
                    Quality::Exact => {
                        prop_assert!(!resp.any_degraded(), "Exact responses carry no marks");
                        prop_assert_eq!(
                            &resp.rows,
                            &fault_free.embed(&metas[i]).unwrap(),
                            "Exact-tier response {} bit-identical to the fault-free run",
                            i
                        );
                    }
                    Quality::TopKNeighbors(_) => {
                        prop_assert!(resp.served_degraded.iter().all(|&b| b));
                    }
                    Quality::CachedOnly => {
                        // Every row is either a marked zero (miss) or
                        // bit-identical to the fault-free exact row.
                        let exact = fault_free.embed(&metas[i]).unwrap();
                        for (row, &mark) in resp.served_degraded.iter().enumerate() {
                            if mark {
                                prop_assert!(
                                    resp.rows.row(row).iter().all(|&v| v == 0.0),
                                    "a degraded CachedOnly row is zeroed"
                                );
                            } else {
                                prop_assert_eq!(resp.rows.row(row), exact.row(row));
                            }
                        }
                    }
                },
                Err(ServeError::PartFailed { .. }) | Err(ServeError::DeadlineExpired) => {}
                Err(e) => prop_assert!(false, "unexpected harvest error: {e:?}"),
            }
        }
        drop(tix);
        let m = eng.metrics();
        let (begun, resolved) = ledger(&m);
        prop_assert_eq!(begun, picks.len() as u64, "every request counted begun");
        prop_assert_eq!(m.counter("fusedmm_requests_shed_total", &[]), Some(shed_local));
        prop_assert_eq!(begun, resolved, "reconciliation is exact: {}", m.to_prometheus());
    }
}
