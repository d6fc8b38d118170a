//! One conformance script over every front end: `Engine`,
//! `ShardedEngine` at 1, 2 and 4 shards, and `RemoteShardedEngine`
//! over an in-process transport of `WorkerEngine`s, each with the
//! result cache off and on. They share one request path, so they must
//! answer alike: the same rows and scores bit for bit, the same typed
//! errors, the same tier marks, a reconciling ledger, one latency
//! observation per answered request, and `EngineShutdown` after
//! shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fusedmm_core::{fusedmm_reference, Partition, PartitionStrategy};
use fusedmm_ops::OpSet;
use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::remote::{EpochRecord, WorkerEngine, WorkerError};
use crate::store::FeatureEpoch;
use crate::ticket::{EmbedOptions, EmbedResponse, Quality};
use crate::transport::{PartOutcome, PartSlot, ShardTransport};
use crate::{
    CacheConfig, Engine, EngineConfig, FrontEnd, RemoteShardedEngine, ServeError, ShardedEngine,
};

/// An in-process transport: worker engines behind the trait, no
/// sockets — the remote front end without framing.
pub(crate) struct LocalTransport {
    workers: Vec<Arc<WorkerEngine>>,
    boundaries: Vec<usize>,
}

impl LocalTransport {
    pub(crate) fn new(a: &Csr, nshards: usize, d: usize, cache: bool) -> LocalTransport {
        let part = Partition::part1d(a, nshards, PartitionStrategy::NnzBalanced);
        let workers = (0..part.len())
            .map(|s| {
                let z = |rows| Dense::zeros(rows, d);
                let (x0, y0) = (z(a.nrows()), z(a.ncols()));
                let ops = OpSet::sigmoid_embedding(None);
                let worker = WorkerEngine::new(a, part.rows(s), s, x0, y0, ops, config(cache));
                Arc::new(worker)
            })
            .collect();
        LocalTransport { workers, boundaries: part.boundaries().to_vec() }
    }
}

impl ShardTransport for LocalTransport {
    fn nshards(&self) -> usize {
        self.workers.len()
    }

    fn boundaries(&self) -> Vec<usize> {
        self.boundaries.clone()
    }

    fn embed_part(
        &self,
        shard: usize,
        nodes: &Arc<[usize]>,
        epoch: &Arc<FeatureEpoch>,
        quality: Quality,
        deadline: Option<Instant>,
        slot: PartSlot,
    ) {
        let (worker, nodes, epoch) =
            (Arc::clone(&self.workers[shard]), Arc::clone(nodes), epoch.epoch());
        std::thread::spawn(move || match worker.embed_part(&nodes, epoch, quality, deadline) {
            Ok(resp) => slot.resolve(PartOutcome::Rows(resp.rows)),
            Err(WorkerError::Serve(ServeError::DeadlineExpired)) => {
                slot.resolve(PartOutcome::Expired)
            }
            Err(_) => slot.resolve(PartOutcome::Failed),
        });
    }

    fn score_part(
        &self,
        shard: usize,
        pairs: &[(usize, usize)],
        epoch: &Arc<FeatureEpoch>,
    ) -> Result<Vec<f32>, ServeError> {
        self.workers[shard]
            .score_part(pairs, epoch.epoch())
            .map_err(|_| ServeError::PartFailed { shard: Some(shard) })
    }

    fn ship(&self, record: &EpochRecord) {
        for w in &self.workers {
            w.apply(record.clone());
        }
    }
}

fn config(cache: bool) -> EngineConfig {
    EngineConfig { cache: cache.then(CacheConfig::default), ..EngineConfig::default() }
}

const N: usize = 80;
const D: usize = 12;

fn inputs() -> (Csr, Dense, Dense) {
    let mut c = Coo::new(N, N);
    for u in 0..N {
        // Skewed degrees so the nnz-balanced cut is non-trivial.
        let deg = if u % 7 == 0 { 9 } else { 2 };
        for k in 1..=deg {
            c.push(u, (u * 3 + k * 5 + 1) % N, 0.3 + k as f32 * 0.2);
        }
    }
    let x = Dense::from_fn(N, D, |r, k| ((r * 3 + k) as f32 * 0.05).sin());
    let y = Dense::from_fn(N, D, |r, k| ((r + k * 2) as f32 * 0.04).cos());
    (c.to_csr(Dedup::Sum), x, y)
}

/// Out of order, duplicated, crossing every band — and never asking
/// for node 1, which the `CachedOnly` probe below therefore misses.
fn requests() -> Vec<Vec<usize>> {
    vec![vec![79, 0, 40, 79, 13, 41, 7], vec![5, 64, 5], (0..N).step_by(3).collect(), vec![]]
}

/// What every front end must answer identically.
#[derive(Debug, PartialEq)]
struct Answers {
    rows: Vec<Dense>,
    scores: Vec<f32>,
    errors: Vec<ServeError>,
    topk: EmbedResponse,
}

/// Drive the script through `front`; returns the comparable answers and
/// the `CachedOnly` response (which depends on whether the front end
/// itself holds a cache). Checks the per-front-end invariants inline.
fn run<T: ShardTransport + ?Sized>(front: &FrontEnd<T>, label: &str) -> (Answers, EmbedResponse) {
    let rows: Vec<Dense> = requests().iter().map(|r| front.embed(r).expect(label)).collect();
    let pairs: Vec<(usize, usize)> = (0..N).map(|u| (u, (u * 7 + 3) % N)).collect();
    let scores = front.score_edges(&pairs).expect(label);
    let expired = EmbedOptions::with_deadline(Instant::now() - Duration::from_millis(1));
    let errors = vec![
        front.embed(&[3, N]).unwrap_err(),
        front.score_edges(&[(N, 0)]).unwrap_err(),
        front.score_edges(&[(0, N)]).unwrap_err(),
        front.embed_begin_opts(&[1], expired).unwrap_err(),
    ];
    let with = |nodes: &[usize], quality| {
        let opts = EmbedOptions::with_quality(quality);
        front.embed_begin_opts(nodes, opts).and_then(|t| t.wait()).expect(label)
    };
    let topk = with(&[79, 0, 40, 13, 0], Quality::TopKNeighbors(2));
    let cached_only = with(&[0, 1, 79, 1], Quality::CachedOnly);
    // Rows answered: every request, the top-k and the cached-only one.
    let answered = requests().len() as u64 + 2;
    let m = front.metrics();
    assert_eq!(m.embed.count, answered, "{label}: one latency observation per answer");
    let resolved = m.requests_harvested
        + m.requests_degraded
        + m.requests_shed
        + m.requests_failed
        + m.requests_abandoned;
    assert_eq!(m.requests_begun, resolved, "{label}: the ledger reconciles");
    assert_eq!((m.requests_begun, m.requests_failed), (answered + 1, 1), "{label}");
    front.shutdown();
    assert_eq!(front.embed(&[0]), Err(ServeError::EngineShutdown), "{label}");
    assert_eq!(front.score_edges(&[(0, 1)]), Err(ServeError::EngineShutdown), "{label}");
    (Answers { rows, scores, errors, topk }, cached_only)
}

#[test]
fn every_front_end_answers_the_script_alike() {
    let (a, x, y) = inputs();
    let ops = OpSet::sigmoid_embedding(None);
    let mut answers = Vec::new();
    for cache in [false, true] {
        let (cfg, label) = (config(cache), |name: &str| format!("{name} cache={cache}"));
        let engine = Engine::new(a.clone(), x.clone(), y.clone(), ops.clone(), cfg.clone());
        answers.push((label("engine"), cache, run(&*engine, &label("engine"))));
        for shards in [1, 2, 4] {
            let name = label(&format!("{shards}-shard"));
            let eng = ShardedEngine::new(
                a.clone(),
                x.clone(),
                y.clone(),
                ops.clone(),
                shards,
                cfg.clone(),
            );
            answers.push((name.clone(), cache, run(&*eng, &name)));
        }
        // The coordinator is uncached; `cache` turns the workers' on.
        let transport = Arc::new(LocalTransport::new(&a, 2, D, cache));
        let remote = RemoteShardedEngine::new(x.clone(), y.clone(), transport, config(false));
        answers.push((label("remote"), false, run(&*remote, &label("remote"))));
    }

    let (first, _, (want, _)) = &answers[0];
    let reference = fusedmm_reference(&a, &x, &y, &ops);
    for (rows, nodes) in want.rows.iter().zip(requests()) {
        for (i, &u) in nodes.iter().enumerate() {
            for (got, want) in rows.row(i).iter().zip(reference.row(u)) {
                assert!((got - want).abs() <= 1e-5, "row {u}: {got} vs {want}");
            }
        }
    }
    let out_of_range = ServeError::NodeOutOfRange { node: N, nvertices: N };
    let typed =
        [out_of_range.clone(), out_of_range.clone(), out_of_range, ServeError::DeadlineExpired];
    assert_eq!(want.errors, typed);
    assert_eq!(want.topk.served_degraded, vec![true; 5]);
    for (label, front_cache, (got, cached_only)) in &answers {
        assert!(got == want, "{label} answered differently from {first}");
        // Node 1 was never requested: with a front-end cache only its
        // rows miss (zeroed and marked); without one every row does.
        let marks = if *front_cache { vec![false, true, false, true] } else { vec![true; 4] };
        assert_eq!(cached_only.served_degraded, marks, "{label}");
        assert_eq!(cached_only.quality, Quality::CachedOnly, "{label}");
        for (i, &u) in [0usize, 1, 79, 1].iter().enumerate() {
            let row = match requests()[0].iter().position(|&v| v == u) {
                Some(j) if !marks[i] => want.rows[0].row(j).to_vec(),
                _ => vec![0.0; D],
            };
            assert_eq!(cached_only.rows.row(i), row.as_slice(), "{label}: row {i}");
        }
    }
}
