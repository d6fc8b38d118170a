//! Telemetry exactness: one registry snapshot must reconcile — to the
//! unit — with the traffic driven through the serving engines under
//! concurrent ticketed load (requests begun == harvested + abandoned,
//! cache hits + misses == row lookups, registry == `metrics()`, no
//! lost updates), across 1/2/4 shards with the result cache off and
//! on; the Prometheus exposition must round-trip through the
//! text-format parser value-exactly; and a fully-sampled trace must be
//! a forest of well-formed trees (every span closed, exactly one root
//! per request, parents precede children, no cross-request links).

use std::collections::{BTreeSet, HashMap, VecDeque};

use fusedmm::perf::registry::{parse_prometheus, MetricValue};
use fusedmm::prelude::*;
use fusedmm::serve::{FrontEnd, LocalBands};

const CLIENTS: usize = 4;
const REQUESTS: usize = 42;
const BATCH: usize = 12;
/// Clients drop (abandon) tickets where `r % ABANDON_EVERY == 3`.
const ABANDON_EVERY: usize = 7;

fn graph(n: usize) -> Csr {
    rmat(&RmatConfig::new(n, 6 * n).with_seed(9))
}

fn config(cached: bool) -> EngineConfig {
    EngineConfig { cache: cached.then(CacheConfig::default), ..EngineConfig::default() }
}

/// A single or a sharded engine: both are the one front end over
/// in-process bands, so the reconciliation hammer sweeps them with the
/// same loop.
type Front = Box<dyn std::ops::Deref<Target = FrontEnd<LocalBands>> + Send + Sync>;

fn build(n: usize, shards: usize, cached: bool) -> Front {
    let a = graph(n);
    let x = random_features(n, 16, 0.5, 3);
    let y = random_features(n, 16, 0.5, 4);
    let ops = OpSet::sigmoid_embedding(None);
    if shards <= 1 {
        Box::new(Engine::new(a, x, y, ops, config(cached)))
    } else {
        Box::new(ShardedEngine::new(a, x, y, ops, shards, config(cached)))
    }
}

/// Drive `CLIENTS x REQUESTS` ticketed requests of `BATCH` overlapping
/// nodes through `front`, harvesting through a depth-8 window and
/// deliberately dropping every `ABANDON_EVERY`-th ticket unharvested.
/// Returns (requests issued, rows requested, tickets abandoned).
fn hammer(front: &Front, n: usize) -> (u64, u64, u64) {
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut window: VecDeque<(usize, Ticket<Dense>)> = VecDeque::new();
                for r in 0..REQUESTS {
                    // Hot overlap across clients so cache hits,
                    // misses, and coalescing all occur.
                    let nodes: Vec<usize> =
                        (0..BATCH).map(|i| ((c % 2) * 349 + r * 97 + i * 13) % n).collect();
                    window.push_back((r, front.embed_begin(&nodes).expect("begin")));
                    if window.len() >= 8 {
                        let (r, ticket) = window.pop_front().expect("window non-empty");
                        if r % ABANDON_EVERY == 3 {
                            drop(ticket);
                        } else {
                            std::hint::black_box(ticket.wait().expect("harvest"));
                        }
                    }
                }
                for (r, ticket) in window {
                    if r % ABANDON_EVERY == 3 {
                        drop(ticket);
                    } else {
                        std::hint::black_box(ticket.wait().expect("drain"));
                    }
                }
            });
        }
    });
    let issued = (CLIENTS * REQUESTS) as u64;
    let rows = issued * BATCH as u64;
    let abandoned = (CLIENTS * (0..REQUESTS).filter(|r| r % ABANDON_EVERY == 3).count()) as u64;
    (issued, rows, abandoned)
}

#[test]
fn registry_counters_reconcile_exactly_across_shards_and_cache() {
    let n = 600;
    for shards in [1usize, 2, 4] {
        for cached in [false, true] {
            let front = build(n, shards, cached);
            let registry = MetricsRegistry::new();
            front.register_metrics(&registry, &[]);
            let (issued, rows, abandoned) = hammer(&front, n);

            let m = front.metrics();
            let (begun, harvested, stats_abandoned) =
                (m.requests_begun, m.requests_harvested, m.requests_abandoned);
            let label = format!("shards={shards} cache={cached}");
            assert_eq!(begun, issued, "{label}: every issued request was begun");
            if cached {
                // A dropped ticket that resolved at creation (full
                // cache hit) was already harvested, so only pending
                // drops abandon.
                assert!(stats_abandoned <= abandoned, "{label}: abandoned <= dropped tickets");
            } else {
                assert_eq!(stats_abandoned, abandoned, "{label}: abandoned == dropped tickets");
            }
            assert_eq!(
                begun,
                harvested + stats_abandoned,
                "{label}: requests in == harvested + abandoned once all tickets resolved"
            );

            // The registry sees the same atomics — value-exact, no
            // lost updates.
            let snap = registry.snapshot();
            assert_eq!(snap.counter("fusedmm_requests_begun_total", &[]), Some(begun), "{label}");
            assert_eq!(
                snap.counter("fusedmm_requests_harvested_total", &[]),
                Some(harvested),
                "{label}"
            );
            assert_eq!(
                snap.counter("fusedmm_requests_abandoned_total", &[]),
                Some(stats_abandoned),
                "{label}"
            );

            if cached {
                let m = front.cache_metrics().expect("cache enabled");
                // Every requested row is exactly one lookup hit or
                // miss; late hits re-count a fill-raced miss as a hit
                // at routing, so they are subtracted.
                assert_eq!(
                    m.hits - m.late_hits + m.misses,
                    rows,
                    "{label}: cache hits + misses reconcile with rows looked up"
                );
                assert_eq!(snap.counter("fusedmm_cache_hits_total", &[]), Some(m.hits), "{label}");
                assert_eq!(
                    snap.counter("fusedmm_cache_misses_total", &[]),
                    Some(m.misses),
                    "{label}"
                );
                assert!(m.coalesced_misses <= m.misses, "{label}");
            } else {
                assert!(snap.counter("fusedmm_cache_hits_total", &[]).is_none(), "{label}");
            }

            // Sharded deployments expose every band's dispatcher
            // counters under shard labels; rows flow only through
            // bands, so the shard-tagged sum covers all computed rows.
            if shards > 1 {
                let mut shard_rows = 0;
                for s in 0..front.nshards() {
                    let tag = s.to_string();
                    shard_rows += snap
                        .counter("fusedmm_rows_computed_total", &[("shard", &tag)])
                        .expect("per-shard rows sample");
                }
                let engine_rows = front.metrics().band_total(|b| b.rows_computed);
                assert_eq!(shard_rows, engine_rows, "{label}: registry == per-shard metrics");
            }
        }
    }
}

#[test]
fn prometheus_exposition_round_trips_value_exactly() {
    let front = build(400, 2, true);
    let registry = MetricsRegistry::new();
    front.register_metrics(&registry, &[]);
    register_kernel_profiles(&registry);
    hammer(&front, 400);

    let snap = registry.snapshot();
    let text = snap.to_prometheus();
    let parsed = parse_prometheus(&text).expect("exposition parses");
    assert!(!parsed.is_empty());

    // Every counter and gauge survives the text round trip with its
    // exact value and full label set (histograms/ratios explode into
    // quantile series, checked by the perf crate's own tests).
    let by_key: HashMap<(String, BTreeSet<(String, String)>), f64> = parsed
        .into_iter()
        .map(|p| ((p.name.clone(), p.labels.iter().cloned().collect()), p.value))
        .collect();
    let mut checked = 0;
    for s in &snap.samples {
        let want = match s.value {
            MetricValue::Counter(v) => v as f64,
            MetricValue::Gauge(v) => v,
            _ => continue,
        };
        let key = (s.name.clone(), s.labels.iter().cloned().collect());
        let got = by_key.get(&key).unwrap_or_else(|| panic!("{} missing from exposition", s.name));
        assert_eq!(*got, want, "{} value drifted through the text format", s.name);
        checked += 1;
    }
    assert!(checked > 20, "expected a rich sample set, checked only {checked}");
}

#[test]
fn sampled_traces_form_well_formed_per_request_trees() {
    let n = 500;
    let tracer = Tracer::new(1.0, 8192);
    let a = graph(n);
    let x = random_features(n, 16, 0.5, 5);
    let y = random_features(n, 16, 0.5, 6);
    let engine = ShardedEngine::new(
        a,
        x,
        y,
        OpSet::sigmoid_embedding(None),
        2,
        EngineConfig { tracer: Some(tracer.clone()), ..config(true) },
    );
    // Concurrent ticketed traffic, all harvested, every request traced.
    std::thread::scope(|s| {
        for c in 0..3usize {
            let engine = &engine;
            s.spawn(move || {
                for r in 0..20usize {
                    let nodes: Vec<usize> =
                        (0..8).map(|i| (c * 211 + r * 61 + i * 7) % n).collect();
                    engine.embed_begin(&nodes).expect("begin").wait().expect("harvest");
                }
            });
        }
    });

    let spans = tracer.spans();
    assert!(!spans.is_empty(), "rate-1.0 tracer recorded nothing");
    // Index spans per trace; every span is closed by construction
    // (records carry both timestamps).
    let mut traces: HashMap<u64, Vec<&fusedmm::perf::trace::SpanRecord>> = HashMap::new();
    for s in &spans {
        assert!(s.end_ns >= s.start_ns, "span {} closed before it started", s.span);
        traces.entry(s.trace).or_default().push(s);
    }
    for (trace, spans) in &traces {
        let roots: Vec<_> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 1, "trace {trace} must have exactly one root");
        let root = roots[0];
        assert!(matches!(root.kind.label(), "embed"), "trace {trace} rooted at {:?}", root.kind);
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
        assert_eq!(ids.len(), spans.len(), "trace {trace} has duplicate span ids");
        let by_id: HashMap<u64, &&fusedmm::perf::trace::SpanRecord> =
            spans.iter().map(|s| (s.span, s)).collect();
        for s in spans {
            if s.parent == 0 {
                continue;
            }
            // Parents resolve within the same trace — no
            // cross-request leakage — and precede their children.
            let parent = by_id
                .get(&s.parent)
                .unwrap_or_else(|| panic!("trace {trace}: span {} orphaned", s.span));
            assert!(
                parent.start_ns <= s.start_ns,
                "trace {trace}: parent {} starts after child {}",
                parent.span,
                s.span
            );
            // Everything a request does happens inside its root span.
            assert!(
                s.start_ns >= root.start_ns && s.end_ns <= root.end_ns,
                "trace {trace}: span {} escapes its root's lifetime",
                s.span
            );
        }
    }
    // The chrome://tracing dump serializes every recorded span.
    let json = tracer.chrome_json();
    assert_eq!(json.matches("\"ph\": \"X\"").count(), spans.len());
}
