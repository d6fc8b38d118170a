//! The equivalence matrix over every front end. `Engine`,
//! `ShardedEngine` at 1, 2 and 4 shards, `RemoteShardedEngine` over
//! in-process workers (4 bands) and over unix sockets (2 bands) share one
//! request path, so on the same graph and features they must answer
//! what a plain `Engine` answers, bit for bit, with the result cache
//! off or on, under any load-time reordering (in-process front ends
//! only: the remote one refuses it), at any d, on degenerate graphs and
//! on features holding NaN and ±Inf rows.
//!
//! Each cell runs one script: embeds harvested by every ticket method,
//! `score_edges`, `infer_full` where the front end has it, typed
//! errors, tier marks, cache hits and the exact rows a delta retires,
//! deltas and a publish, two blocking callers at once on the cold
//! cache the publish leaves (the reference makes their calls one after
//! the other), the ledger, one latency observation per answer, the
//! request-side sample names, replicas holding exactly their band, and
//! `EngineShutdown` after shutdown.
//!
//! `tests/conformance.rs` runs a pairwise covering set of the axes plus
//! the full front end × cache × reordering product on RMAT and on a cut
//! with an empty band. A few other test files run a named [`slice`] of
//! the same cells where an invariant is theirs to name.

// Each test binary that includes the matrix uses part of it.
#![allow(dead_code)]

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::{Deref, Range};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use fusedmm::kernel::Partition;
use fusedmm::prelude::*;
use fusedmm::serve::{FeatureEpoch, FrontEnd, LocalBands};

// ---------------------------------------------------------------------
// The axes
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Front {
    Engine,
    Sharded(usize),
    /// `RemoteShardedEngine` over [`InProcess`] workers.
    Remote(usize),
    /// `RemoteShardedEngine` over `WorkerServer`s on unix sockets.
    Socket(usize),
}

const FRONTS: [Front; 6] = [
    Front::Engine,
    Front::Sharded(1),
    Front::Sharded(2),
    Front::Sharded(4),
    Front::Remote(4),
    Front::Socket(2),
];
const REORDERINGS: [Option<Reordering>; 3] =
    [None, Some(Reordering::DegreeSort), Some(Reordering::RcmBfs)];
const DIMS: [usize; 4] = [0, 1, 7, 64];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Graph {
    Rmat,
    /// Ten vertices, no edges.
    Empty,
    /// Vertices 1 and 4 have no edges; the rest form the path 0–2–3–5
    /// with a self loop on 3, both ways.
    IsolatedSymmetric,
    /// The same vertices, edges one way only.
    IsolatedDirected,
    /// One vertex with a self loop.
    OneVertex,
    /// Only vertices 4 and 5 have edges: a 4-way PART1D cut leaves its
    /// last band empty.
    EmptyBand,
}

const GRAPHS: [Graph; 6] = [
    Graph::Rmat,
    Graph::Empty,
    Graph::IsolatedSymmetric,
    Graph::IsolatedDirected,
    Graph::OneVertex,
    Graph::EmptyBand,
];

impl Graph {
    pub fn csr(self) -> Csr {
        let edges: &[(usize, usize)] = match self {
            Graph::Rmat => return rmat(&RmatConfig::new(96, 5 * 96).with_seed(21)),
            Graph::Empty => return Csr::empty(10, 10),
            Graph::IsolatedSymmetric => &[(0, 2), (2, 0), (2, 3), (3, 2), (3, 5), (5, 3), (3, 3)],
            Graph::IsolatedDirected => &[(0, 2), (2, 3), (3, 5), (3, 3)],
            Graph::OneVertex => &[(0, 0)],
            Graph::EmptyBand => &[(4, 5), (5, 4), (5, 5)],
        };
        let n = if self == Graph::OneVertex { 1 } else { 6 };
        let mut c = Coo::new(n, n);
        for &(u, v) in edges {
            c.push(u, v, 0.5 + (u + v) as f32 * 0.25);
        }
        c.to_csr(Dedup::Sum)
    }

    /// The deltas the script applies, one at a time with every row
    /// warm, and how many cached rows each retires: the patched row and
    /// the rows that read its `y`, nothing else.
    fn deltas(self) -> &'static [(&'static [usize], u64)] {
        match self {
            Graph::Rmat => &[(&[0], 38), (&[1, 95], 27)],
            Graph::Empty => &[(&[0], 1)],
            Graph::IsolatedSymmetric => &[(&[1], 1), (&[3], 3), (&[4], 1)],
            Graph::IsolatedDirected => &[(&[1], 1), (&[3], 2)],
            Graph::OneVertex => &[(&[0], 1)],
            Graph::EmptyBand => &[(&[2], 1), (&[5], 2), (&[4], 2)],
        }
    }
}

/// One cell: an index into each axis — front end, cache, reordering,
/// d, graph, features (finite or hostile).
pub type Cell6 = [usize; 6];
const AXES: Cell6 = [FRONTS.len(), 2, REORDERINGS.len(), DIMS.len(), GRAPHS.len(), 2];

/// The remote front end refuses a reordering.
fn feasible(c: &Cell6) -> bool {
    !matches!(FRONTS[c[0]], Front::Remote(_) | Front::Socket(_)) || c[2] == 0
}

fn pairs(c: &Cell6) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
    (0..6).flat_map(move |i| (i + 1..6).map(move |j| (i, c[i], j, c[j])))
}

/// Every feasible cell, the first axis varying fastest.
pub fn all_cells() -> Vec<Cell6> {
    let cell = |mut i: usize| {
        AXES.map(|len| {
            let v = i % len;
            i /= len;
            v
        })
    };
    (0..AXES.iter().product()).map(cell).filter(feasible).collect()
}

/// Greedy pairwise cover: every pair of axis values that some feasible
/// cell holds is held by at least one chosen cell.
pub fn covering_set() -> Vec<Cell6> {
    let all = all_cells();
    let mut open: HashSet<_> = all.iter().flat_map(pairs).collect();
    let mut cells = Vec::new();
    while !open.is_empty() {
        let best = all.iter().max_by_key(|c| pairs(c).filter(|p| open.contains(p)).count());
        let best = *best.expect("a feasible cell");
        for p in pairs(&best) {
            open.remove(&p);
        }
        cells.push(best);
    }
    cells
}

/// A cell's axis values.
pub struct Axes {
    pub front: Front,
    pub cache: bool,
    pub reordering: Option<Reordering>,
    pub d: usize,
    pub graph: Graph,
    pub hostile: bool,
}

pub fn axes(c: &Cell6) -> Axes {
    Axes {
        front: FRONTS[c[0]],
        cache: c[1] == 1,
        reordering: REORDERINGS[c[2]],
        d: DIMS[c[3]],
        graph: GRAPHS[c[4]],
        hostile: c[5] == 1,
    }
}

/// Every feasible cell whose axis values `keep` accepts.
pub fn slice(keep: impl Fn(&Axes) -> bool) -> Vec<Cell6> {
    all_cells().into_iter().filter(|c| keep(&axes(c))).collect()
}

// ---------------------------------------------------------------------
// Inputs and deployments
// ---------------------------------------------------------------------

/// Random features; hostile ones hold a NaN row, and rows with +Inf or
/// -Inf in every other lane, every fourth row.
pub fn features(n: usize, d: usize, seed: u64, hostile: bool) -> Dense {
    let base = random_features(n, d, 0.5, seed);
    Dense::from_fn(n, d, |r, k| match (hostile, (r + seed as usize) % 4, k % 2) {
        (true, 1, _) => f32::NAN,
        (true, 2, 0) => f32::INFINITY,
        (true, 3, 0) => f32::NEG_INFINITY,
        _ => base.get(r, k),
    })
}

pub fn config(cache: bool, reordering: Option<Reordering>) -> EngineConfig {
    EngineConfig {
        cache: cache.then(CacheConfig::default),
        reordering,
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

/// Fresh replicas of `a` cut into at most `nshards` bands, and the cut.
pub fn replicas(
    a: &Csr,
    nshards: usize,
    d: usize,
    cache: bool,
) -> (Vec<Arc<WorkerEngine>>, Vec<usize>) {
    let part = Partition::part1d(a, nshards, PartitionStrategy::NnzBalanced);
    let workers = (0..part.len())
        .map(|s| {
            let (x0, y0) = (Dense::zeros(a.nrows(), d), Dense::zeros(a.ncols(), d));
            let ops = OpSet::sigmoid_embedding(None);
            Arc::new(WorkerEngine::new(a, part.rows(s), s, x0, y0, ops, config(cache, None)))
        })
        .collect();
    (workers, part.boundaries().to_vec())
}

/// `record` as a worker owning `band` decodes it off a socket: a whole
/// generation holds exactly the band's rows of `X`.
fn narrowed(record: &EpochRecord, band: Range<usize>) -> EpochRecord {
    let cut = |x: &Dense| {
        let rows = &x.as_slice()[band.start * x.ncols()..band.end * x.ncols()];
        Arc::new(Dense::from_rows(band.len(), x.ncols(), rows).expect("band rows"))
    };
    match record.clone() {
        EpochRecord::Publish { epoch, x, y, .. } => {
            EpochRecord::Publish { epoch, x_start: band.start, x: cut(&x), y }
        }
        EpochRecord::Snapshot { epoch, x, y, .. } => {
            EpochRecord::Snapshot { epoch, x_start: band.start, x: cut(&x), y }
        }
        delta => delta,
    }
}

/// Holds every `score_part` until `expected` of them are in flight at
/// once; after 10 s the call fails typed instead of hanging.
pub struct Latch {
    entered: Mutex<usize>,
    all_in: Condvar,
    expected: usize,
}

impl Latch {
    pub fn new(expected: usize) -> Latch {
        Latch { entered: Mutex::new(0), all_in: Condvar::new(), expected }
    }
}

/// The remote front end's transport without the sockets: each part runs
/// on a thread of its own against its band's replica, and every record
/// reaches a replica as the socket ships it, narrowed to the band.
pub struct InProcess {
    pub workers: Vec<Arc<WorkerEngine>>,
    pub boundaries: Vec<usize>,
    pub latch: Option<Latch>,
}

impl ShardTransport for InProcess {
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
        let failed = ServeError::PartFailed { shard: Some(shard) };
        if let Some(latch) = &self.latch {
            let mut n = latch.entered.lock().unwrap();
            *n += 1;
            latch.all_in.notify_all();
            let ten_s = Duration::from_secs(10);
            let (n, _) =
                latch.all_in.wait_timeout_while(n, ten_s, |n| *n < latch.expected).unwrap();
            if *n < latch.expected {
                return Err(failed);
            }
        }
        self.workers[shard].score_part(pairs, epoch.epoch()).map_err(|_| failed)
    }

    fn ship(&self, record: &EpochRecord) {
        for (s, worker) in self.workers.iter().enumerate() {
            worker.apply(narrowed(record, self.boundaries[s]..self.boundaries[s + 1]));
        }
    }
}

/// Socket workers, their files removed once the servers are down.
struct Sockets {
    servers: Vec<WorkerServer>,
    paths: Vec<PathBuf>,
}

impl Drop for Sockets {
    fn drop(&mut self) {
        self.servers.clear();
        self.paths.iter().for_each(|p| drop(std::fs::remove_file(p)));
    }
}

enum Deployment {
    Local(Box<dyn Deref<Target = FrontEnd<LocalBands>>>),
    // Field order is drop order: the coordinator, then its workers.
    Remote {
        engine: Box<RemoteShardedEngine>,
        replicas: Vec<Arc<WorkerEngine>>,
        _sockets: Option<Sockets>,
    },
}

fn deploy(front: Front, cache: bool, reordering: Option<Reordering>, inp: &Inputs) -> Deployment {
    let (a, x, y) = (inp.a.clone(), inp.x.clone(), inp.y.clone());
    let (ops, cfg) = (OpSet::sigmoid_embedding(None), config(cache, reordering));
    let (nshards, socket) = match front {
        Front::Engine => return Deployment::Local(Box::new(Engine::new(a, x, y, ops, cfg))),
        Front::Sharded(s) => {
            return Deployment::Local(Box::new(ShardedEngine::new(a, x, y, ops, s, cfg)));
        }
        Front::Remote(s) => (s, false),
        Front::Socket(s) => (s, true),
    };
    let (workers, boundaries) = replicas(&a, nshards, inp.d, cache);
    let replicas = workers.clone();
    // The coordinator is uncached; `cache` turns the workers' on.
    let (transport, sockets): (Arc<dyn ShardTransport>, _) = if socket {
        static SOCKETS: AtomicUsize = AtomicUsize::new(0);
        let tag = SOCKETS.fetch_add(1, Ordering::Relaxed);
        let name = |s| format!("fusedmm-conformance-{}-{tag}-{s}.sock", std::process::id());
        let paths: Vec<PathBuf> =
            (0..workers.len()).map(|s| std::env::temp_dir().join(name(s))).collect();
        let servers = workers.into_iter().zip(&paths);
        let servers = servers.map(|(w, p)| WorkerServer::serve_unix(w, p).expect("bind")).collect();
        let mut rpc = RpcConfig::new(paths.clone());
        rpc.fault = Some(Arc::new(FaultPlan::disabled()));
        let transport = RpcTransport::connect(rpc).expect("connect loopback workers");
        (transport, Some(Sockets { servers, paths }))
    } else {
        (Arc::new(InProcess { workers, boundaries, latch: None }), None)
    };
    let engine = Box::new(RemoteShardedEngine::new(x, y, transport, config(false, None)));
    Deployment::Remote { engine, replicas, _sockets: sockets }
}

pub struct Inputs {
    pub graph: Graph,
    pub d: usize,
    pub hostile: bool,
    pub a: Csr,
    pub x: Dense,
    pub y: Dense,
}

impl Inputs {
    pub fn new(graph: Graph, d: usize, hostile: bool) -> Inputs {
        let a = graph.csr();
        let n = a.nrows();
        let (x, y) = (features(n, d, 1, hostile), features(n, d, 2, hostile));
        Inputs { graph, d, hostile, a, x, y }
    }
}

// ---------------------------------------------------------------------
// The script
// ---------------------------------------------------------------------

/// What every front end must answer identically: each observation's
/// bits (shape first) under a name, the typed errors, the top-k marks.
#[derive(Default)]
struct Answers {
    seen: Vec<(String, Vec<u32>)>,
    errors: Vec<ServeError>,
    topk_marks: Vec<bool>,
}

impl Answers {
    fn rows(&mut self, what: impl Into<String>, z: &Dense) {
        let shape = [z.nrows() as u32, z.ncols() as u32];
        let bits = z.as_slice().iter().map(|v| v.to_bits());
        self.seen.push((what.into(), shape.into_iter().chain(bits).collect()));
    }

    fn scores(&mut self, what: &str, s: &[f32]) {
        self.seen.push((what.into(), s.iter().map(|v| v.to_bits()).collect()));
    }
}

/// What the script needs beyond the front end's request API.
struct Hooks<'a> {
    delta: &'a dyn Fn(&[usize], &Dense, &Dense) -> u64,
    publish: &'a dyn Fn(Dense, Dense) -> u64,
    infer: Option<&'a dyn Fn() -> Dense>,
    replicas: &'a [Arc<WorkerEngine>],
    /// The front end holds a result cache (not only its replicas).
    front_cache: bool,
    /// The front end or its replicas hold one.
    cache: bool,
    /// The concurrent step's two callers run at once (else one after
    /// the other, on this thread).
    together: bool,
}

/// Begin every request before harvesting any, then harvest request `i`
/// by `wait`, a `poll` loop, `wait_deadline` or `wait_any` over the
/// window, as `i % 4` says.
fn harvest<T: ShardTransport + ?Sized>(front: &FrontEnd<T>, requests: &[Vec<usize>]) -> Vec<Dense> {
    let mut by: [Vec<(usize, Ticket<Dense>)>; 4] = Default::default();
    for (i, nodes) in requests.iter().enumerate() {
        by[i % 4].push((i, front.embed_begin(nodes).expect("embed_begin")));
    }
    let [by_wait, by_poll, by_deadline, by_any] = by;
    let mut out: Vec<Option<Dense>> = vec![None; requests.len()];
    let (ids, mut window): (Vec<usize>, Vec<_>) = by_any.into_iter().unzip();
    while let Some(j) = wait_any(&mut window) {
        out[ids[j]] = Some(window[j].poll().expect("wait_any found it ready").expect("rows"));
    }
    for (i, mut t) in by_deadline {
        let deadline = Instant::now() + Duration::from_secs(30);
        out[i] = Some(t.wait_deadline(deadline).expect("in time").expect("rows"));
    }
    for (i, mut t) in by_poll {
        out[i] = Some(loop {
            match t.poll() {
                Some(rows) => break rows.expect("rows"),
                None => std::thread::yield_now(),
            }
        });
    }
    for (i, t) in by_wait {
        out[i] = Some(t.wait().expect("rows"));
    }
    out.into_iter().map(|z| z.expect("harvested")).collect()
}

/// Requests each caller of the concurrent step makes.
const ROUNDS: usize = 12;

/// Caller `c`'s `r`-th request of the concurrent step: eight ids, seven
/// of them also in the other caller's request of the same round.
fn caller_request(n: usize, c: usize, r: usize) -> Vec<usize> {
    (c..c + 8).map(|i| (i * 5 + r * 3) % n).collect()
}

/// The concurrent step's answers, caller 0's requests first: blocking
/// `embed`s from two threads released together before each round, or,
/// when `together` is false, both callers' requests made one after the
/// other here.
fn two_callers<T: ShardTransport + ?Sized>(
    front: &FrontEnd<T>,
    together: bool,
    label: &str,
) -> Vec<Dense> {
    let n = front.nvertices();
    let barrier = Barrier::new(2);
    let caller = |c: usize| -> Vec<Dense> {
        let round = |r| {
            if together {
                barrier.wait();
            }
            front.embed(&caller_request(n, c, r)).expect(label)
        };
        (0..ROUNDS).map(round).collect()
    };
    if !together {
        return (0..2).flat_map(caller).collect();
    }
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..2).map(|c| s.spawn(move || caller(c))).collect();
        callers.into_iter().flat_map(|h| h.join().expect("a caller panicked")).collect()
    })
}

/// Drive the script through `front`, checking what depends on the
/// front end inline; returns the answers to compare and the scrape.
fn run<T: ShardTransport + ?Sized>(
    front: &FrontEnd<T>,
    hooks: &Hooks,
    inp: &Inputs,
    label: &str,
) -> (Answers, MetricsSnapshot) {
    let (n, d) = (inp.a.nrows(), inp.d);
    let all: Vec<usize> = (0..n).collect();
    let requests = vec![
        vec![n - 1, 0, n / 2, n - 1, n / 3],
        vec![n / 2, n / 2],
        (0..n).step_by(3).collect(),
        vec![],
        (0..n).rev().collect(),
    ];
    let pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u * 7 + 3) % n)).collect();
    let mut ans = Answers::default();
    let answered = Cell::new(0u64);
    let embed = |nodes: &[usize]| {
        answered.set(answered.get() + 1);
        front.embed(nodes).expect(label)
    };
    let window = |ans: &mut Answers, when: &str| {
        answered.set(answered.get() + requests.len() as u64);
        for (i, z) in harvest(front, &requests).iter().enumerate() {
            ans.rows(format!("{when}: ticket {i}"), z);
        }
    };
    let with = |nodes: &[usize], quality| {
        answered.set(answered.get() + 1);
        let opts = EmbedOptions::with_quality(quality);
        front.embed_begin_opts(nodes, opts).and_then(Ticket::wait).expect(label)
    };
    let cache_count = |name: &str| {
        let replicas = hooks.replicas.iter().map(|r| {
            let registry = MetricsRegistry::new();
            r.register_metrics(&registry);
            registry.snapshot()
        });
        let scrapes = std::iter::once(front.metrics()).chain(replicas);
        scrapes.filter_map(|m| m.counter(name, &[])).reduce(|a, b| a + b)
    };
    // Every epoch a replica pins holds exactly its band of X and all of Y.
    let bands_held = |epoch: u64| {
        for r in hooks.replicas {
            let (band, pinned) = (r.band(), r.pinned(epoch).expect("the current epoch is pinned"));
            assert_eq!((pinned.x_start(), pinned.x().nrows()), (band.start, band.len()), "{label}");
            assert_eq!(pinned.y().nrows(), n, "{label}: a replica holds all of Y");
        }
    };

    let first = embed(&requests[0]);
    ans.rows("epoch 0: embed", &first);
    // Only the first request has been answered: with a front-end cache
    // its rows hit; every other row misses, zeroed and marked.
    let unseen = (0..n).find(|u| !requests[0].contains(u));
    let probe: Vec<usize> = [0, n - 1].into_iter().chain(unseen).collect();
    let cached_only = with(&probe, Quality::CachedOnly);
    assert_eq!(cached_only.quality, Quality::CachedOnly, "{label}");
    for (i, u) in probe.iter().enumerate() {
        let hit = requests[0].iter().position(|v| v == u).filter(|_| hooks.front_cache);
        assert_eq!(cached_only.served_degraded[i], hit.is_none(), "{label}: mark of {u}");
        let row = hit.map_or(vec![0.0; d], |j| first.row(j).to_vec());
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(cached_only.rows.row(i)), bits(&row), "{label}: cached-only row {u}");
    }
    window(&mut ans, "epoch 0");
    // Everything was asked for: a warm pass hits every row.
    let hits = cache_count("fusedmm_cache_hits_total");
    assert_eq!(hits.is_some(), hooks.cache, "{label}: cache samples iff a cache");
    ans.rows("epoch 0: all rows", &embed(&all));
    if let Some(before) = hits {
        assert_eq!(cache_count("fusedmm_cache_hits_total").unwrap() - before, n as u64, "{label}");
    }
    ans.scores("epoch 0: scores", &front.score_edges(&pairs).expect(label));
    if let Some(infer) = hooks.infer {
        ans.rows("epoch 0: infer_full", &infer());
    }
    let topk = with(&[n - 1, 0, n / 2, n / 3, 0], Quality::TopKNeighbors(2));
    ans.rows("epoch 0: top-k", &topk.rows);
    ans.topk_marks = topk.served_degraded;
    let expired = EmbedOptions::with_deadline(Instant::now() - Duration::from_millis(1));
    ans.errors = vec![
        front.embed(&[n / 2, n]).unwrap_err(),
        front.score_edges(&[(n, 0)]).unwrap_err(),
        front.score_edges(&[(0, n)]).unwrap_err(),
        front.embed_begin_opts(&[0], expired).unwrap_err(),
    ];
    bands_held(0);

    // One delta at a time with every row warm: each retires exactly its
    // rows, and the next pass recomputes (and re-warms) them. A replica
    // has applied a record once it has served a part pinned at it.
    for (step, &(rows, retired)) in inp.graph.deltas().iter().enumerate() {
        let before = cache_count("fusedmm_cache_invalidated_rows_total");
        let seed = 10 + step as u64;
        let patch = |seed| features(rows.len(), d, seed, inp.hostile);
        let epoch = (hooks.delta)(rows, &patch(seed), &patch(seed + 1));
        ans.rows(format!("epoch {epoch}: all rows"), &embed(&all));
        if let Some(before) = before {
            let now = cache_count("fusedmm_cache_invalidated_rows_total").unwrap();
            assert_eq!(now - before, retired, "{label}: rows a delta on {rows:?} retired");
        }
        bands_held(epoch);
    }
    let (x, y) = (features(n, d, 3, inp.hostile), features(n, d, 4, inp.hostile));
    let epoch = (hooks.publish)(x, y);
    // The publish left every cached row stale: the two callers' misses
    // meet, and with a cache one waits on a row the other computes.
    answered.set(answered.get() + 2 * ROUNDS as u64);
    for (i, z) in two_callers(front, hooks.together, label).iter().enumerate() {
        ans.rows(format!("epoch {epoch}: caller {} embed {}", i / ROUNDS, i % ROUNDS), z);
    }
    window(&mut ans, &format!("epoch {epoch}"));
    ans.scores("last epoch: scores", &front.score_edges(&pairs).expect(label));
    if let Some(infer) = hooks.infer {
        ans.rows("last epoch: infer_full", &infer());
    }
    bands_held(epoch);

    let m = front.metrics();
    let latency = m.histogram("fusedmm_embed_latency_seconds", &[]).expect(label);
    assert_eq!(latency.count, answered.get(), "{label}: one latency observation per answer");
    let count = |outcome: &str| m.counter(&format!("fusedmm_requests_{outcome}_total"), &[]);
    let outcomes = ["harvested", "degraded", "shed", "failed", "abandoned"];
    let resolved: u64 = outcomes.iter().map(|o| count(o).expect(label)).sum();
    assert_eq!(count("begun"), Some(resolved), "{label}: the ledger reconciles");
    assert_eq!((count("begun"), count("failed")), (Some(answered.get() + 1), Some(1)), "{label}");
    // One sample per band: fan-out per shard, rows computed per
    // in-process band (none behind a remote transport).
    let per_band = |name: &str| m.samples.iter().filter(|s| s.name == name).count();
    assert_eq!(per_band("fusedmm_fanout_gather_seconds"), front.nshards(), "{label}");
    let local_bands = if hooks.replicas.is_empty() { front.nshards() } else { 0 };
    assert_eq!(per_band("fusedmm_rows_computed_total"), local_bands, "{label}");
    front.shutdown();
    assert_eq!(front.embed(&[0]), Err(ServeError::EngineShutdown), "{label}");
    assert_eq!(front.score_edges(&[(0, 0)]), Err(ServeError::EngineShutdown), "{label}");
    (ans, m)
}

fn run_deployment(
    deployment: &Deployment,
    inp: &Inputs,
    cache: bool,
    together: bool,
    label: &str,
) -> (Answers, MetricsSnapshot) {
    match deployment {
        Deployment::Local(front) => {
            let hooks = Hooks {
                delta: &|rows, x, y| front.store().delta_update(rows, x, y),
                publish: &|x, y| front.store().publish(x, y),
                infer: Some(&|| front.infer_full()),
                replicas: &[],
                front_cache: cache,
                cache,
                together,
            };
            run(front, &hooks, inp, label)
        }
        Deployment::Remote { engine, replicas, .. } => {
            let hooks = Hooks {
                delta: &|rows, x, y| engine.delta_update(rows, x, y),
                publish: &|x, y| engine.publish(x, y),
                infer: None,
                replicas,
                front_cache: false,
                cache,
                together,
            };
            run(engine, &hooks, inp, label)
        }
    }
}

/// A plain `Engine`'s answers: what every cell on the same inputs must
/// answer. On finite features its rows are anchored to the reference
/// kernel (approximately: the blocked kernel folds in another order).
fn reference(inp: &Inputs) -> Answers {
    let engine = deploy(Front::Engine, false, None, inp);
    if let (false, Deployment::Local(front)) = (inp.hostile, &engine) {
        let want = fusedmm_reference(&inp.a, &inp.x, &inp.y, &OpSet::sigmoid_embedding(None));
        assert!(front.infer_full().max_abs_diff(&want) <= 1e-5, "{:?} d={}", inp.graph, inp.d);
    }
    let want = run_deployment(&engine, inp, false, false, "reference").0;
    let out_of_range = ServeError::NodeOutOfRange { node: inp.a.nrows(), nvertices: inp.a.nrows() };
    let typed =
        [out_of_range.clone(), out_of_range.clone(), out_of_range, ServeError::DeadlineExpired];
    assert_eq!(want.errors, typed);
    assert!(want.topk_marks.iter().all(|&m| m), "the top-k tier marks every row");
    want
}

pub fn check_cells(cells: &[Cell6]) {
    assert!(!cells.is_empty(), "an empty slice checks nothing");
    let mut references: HashMap<(Graph, usize, bool), Answers> = HashMap::new();
    let mut scrapes = Vec::new();
    for c in cells {
        let Axes { front, cache, reordering, d, graph, hostile } = axes(c);
        let inp = Inputs::new(graph, d, hostile);
        let label = format!(
            "[{front:?}, cache {cache}, {reordering:?}, d={}, {:?}, hostile {}]",
            inp.d, inp.graph, inp.hostile
        );
        let want =
            references.entry((inp.graph, inp.d, inp.hostile)).or_insert_with(|| reference(&inp));
        let deployment = deploy(front, cache, reordering, &inp);
        let (got, scrape) = run_deployment(&deployment, &inp, cache, true, &label);
        // The remote front end has no `infer_full`.
        let remote = matches!(deployment, Deployment::Remote { .. });
        let want_seen =
            want.seen.iter().filter(|(what, _)| !remote || !what.ends_with("infer_full"));
        assert_eq!(got.seen.len(), want_seen.clone().count(), "{label}");
        for ((what, bits), (want_what, want_bits)) in got.seen.iter().zip(want_seen) {
            assert_eq!(what, want_what, "{label}");
            assert!(bits == want_bits, "{label}: {what} differs from a plain Engine's");
        }
        assert_eq!((&got.errors, &got.topk_marks), (&want.errors, &want.topk_marks), "{label}");
        scrapes.push((label, scrape));
    }
    // One vocabulary: every front end exports its request side under
    // the same unlabeled names. A band's samples are unlabeled only in
    // an `Engine` (elsewhere they carry `shard`), and the cache's only
    // where the front end holds one, so both are set aside.
    let per_band: BTreeSet<&str> = scrapes
        .iter()
        .flat_map(|(_, m)| &m.samples)
        .filter(|s| s.labels.iter().any(|(k, _)| k == "shard"))
        .map(|s| s.name.as_str())
        .collect();
    let request_side = |m: &MetricsSnapshot| -> BTreeSet<String> {
        let unlabeled = m.samples.iter().filter(|s| s.labels.is_empty());
        unlabeled
            .map(|s| s.name.clone())
            .filter(|name| !per_band.contains(name.as_str()) && !name.starts_with("fusedmm_cache_"))
            .collect()
    };
    let vocabulary = request_side(&scrapes[0].1);
    assert!(vocabulary.contains("fusedmm_requests_begun_total"), "{vocabulary:?}");
    assert!(vocabulary.contains("fusedmm_embed_latency_seconds"), "{vocabulary:?}");
    for (label, m) in &scrapes {
        assert_eq!(request_side(m), vocabulary, "{label} exports other request-side names");
    }
}
