//! A feature generation exists once per process that holds it: what
//! the coordinator allocates when it seeds and publishes, that a fresh
//! replica holds and serves nothing until its first record (and that
//! record is then its only pair), and that a worker's band
//! engine does not sit out a coalescing window nobody can join — and
//! that a write the store would refuse never reaches the log. A
//! replica holds only its band's rows of `X`, and serves what the
//! in-process engine serves from all of them. The counting allocator
//! is installed so "no copy" is checked in bytes, and the tests run one
//! at a time (its counters are process-wide).

use std::ops::Range;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fusedmm_core::{Partition, PartitionStrategy};
use fusedmm_ops::OpSet;
use fusedmm_perf::memtrack::{self, CountingAllocator};
use fusedmm_serve::remote::{
    EpochRecord, PartOutcome, PartSlot, RemoteShardedEngine, ShardTransport, WorkerEngine,
    WorkerError,
};
use fusedmm_serve::{
    AdmissionPolicy, EngineConfig, FaultPlan, FeatureEpoch, Quality, ServeError, ShardedEngine,
};
use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const N: usize = 4096;
const D: usize = 128;
/// One `N x D` matrix; a generation is two.
const MATRIX: usize = N * D * 4;

fn graph() -> Csr {
    let mut c = Coo::new(N, N);
    for u in 0..N {
        for k in 1..=3 {
            c.push(u, (u * 7 + k * 13) % N, 0.5);
        }
    }
    c.to_csr(Dedup::Sum)
}

fn feats(seed: f32) -> Dense {
    Dense::from_fn(N, D, |r, k| ((r * 13 + k * 7) as f32 * 0.017 + seed).sin() * 0.6)
}

fn config(coalesce_window: Duration) -> EngineConfig {
    EngineConfig {
        coalesce_window,
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

fn worker(a: &Csr, coalesce_window: Duration) -> WorkerEngine {
    let (x0, y0) = (Dense::zeros(N, D), Dense::zeros(N, D));
    WorkerEngine::new(a, 0..N, 0, x0, y0, OpSet::sigmoid_embedding(None), config(coalesce_window))
}

fn storage(m: &Dense) -> *const f32 {
    m.as_slice().as_ptr()
}

/// A transport that keeps what it is shipped and serves nothing: the
/// coordinator's side of replication, alone.
#[derive(Default)]
struct Recording {
    shipped: Mutex<Vec<EpochRecord>>,
}

impl ShardTransport for Recording {
    fn nshards(&self) -> usize {
        1
    }

    fn boundaries(&self) -> Vec<usize> {
        vec![0, N]
    }

    fn embed_part(
        &self,
        _shard: usize,
        _nodes: &[usize],
        _epoch: &Arc<FeatureEpoch>,
        _quality: Quality,
        _deadline: Option<Instant>,
        slot: PartSlot,
    ) {
        slot.resolve(PartOutcome::Failed);
    }

    fn score_part(
        &self,
        shard: usize,
        _pairs: &[(usize, usize)],
        _epoch: &Arc<FeatureEpoch>,
    ) -> Result<Vec<f32>, ServeError> {
        Err(ServeError::PartFailed { shard: Some(shard) })
    }

    fn ship(&self, record: &EpochRecord) {
        self.shipped.lock().expect("shipped").push(record.clone());
    }
}

#[test]
fn seeding_and_publishing_share_the_stores_allocation_with_the_record() {
    let _serial = serial();
    assert!(memtrack::is_active());
    let transport = Arc::new(Recording::default());
    let shipped_storage = |i: usize| match &transport.shipped.lock().expect("shipped")[i] {
        EpochRecord::Publish { x, y, .. } | EpochRecord::Snapshot { x, y, .. } => {
            (storage(x), storage(y))
        }
        EpochRecord::Delta { .. } => panic!("record {i} is a delta"),
    };

    let (x, y) = (feats(0.1), feats(0.9));
    let (remote, seeded) = memtrack::measure_peak(|| {
        RemoteShardedEngine::new(x, y, Arc::clone(&transport) as _, config(Duration::ZERO))
    });
    assert!(seeded < MATRIX / 20, "seeding the log allocated {seeded} bytes");
    let epoch = remote.store().snapshot();
    assert_eq!(shipped_storage(0), (storage(epoch.x()), storage(epoch.y())));

    let (x2, y2) = (feats(0.4), feats(0.6));
    let (wanted_x, wanted_y) = (storage(&x2), storage(&y2));
    let (minted, published) = memtrack::measure_peak(|| remote.publish(x2, y2));
    assert_eq!(minted, 1);
    assert!(published < MATRIX / 20, "publish allocated {published} bytes");
    let epoch = remote.store().snapshot();
    assert_eq!((storage(epoch.x()), storage(epoch.y())), (wanted_x, wanted_y), "moved, not copied");
    assert_eq!(shipped_storage(1), (wanted_x, wanted_y));
}

#[test]
fn an_unseeded_replica_holds_and_serves_nothing() {
    let _serial = serial();
    let a = graph();
    let worker = worker(&a, Duration::ZERO);
    assert!(worker.is_fresh());
    let unseeded = [
        worker.embed_part(&[1], 0, Quality::Exact, None).map(drop),
        worker.score_part(&[(1, 2)], 0).map(drop),
    ];
    for outcome in unseeded {
        match outcome {
            Err(WorkerError::EpochUnavailable { epoch: 0, current: 0 }) => {}
            other => panic!("an unseeded replica must serve nothing, got {other:?}"),
        }
    }
    // A restarted replica joining a coordinator that is at epoch 5.
    let before = memtrack::live_bytes();
    let (x, y) = (Arc::new(feats(0.1)), Arc::new(feats(0.9)));
    let record = EpochRecord::Snapshot { epoch: 5, x_start: 0, x, y };
    assert_eq!(worker.apply(record), 5);
    let grew = memtrack::live_bytes().saturating_sub(before);
    assert!(worker.embed_part(&[1], 5, Quality::Exact, None).is_ok());
    assert!(!worker.is_fresh());
    // The snapshot is the only pair: nothing made room for it.
    assert!(
        grew.abs_diff(2 * MATRIX) < MATRIX / 20,
        "seeding grew live bytes by {grew}; one generation is {}",
        2 * MATRIX
    );
}

#[test]
#[should_panic(expected = "no snapshot has seeded")]
fn a_delta_before_any_snapshot_is_a_log_gap() {
    let _serial = serial();
    let a = graph();
    let worker = worker(&a, Duration::ZERO);
    worker.apply(EpochRecord::Delta {
        epoch: 1,
        rows: vec![0],
        x_rows: Dense::filled(1, D, 1.0),
        y_rows: Dense::filled(1, D, 1.0),
    });
}

#[test]
fn a_worker_does_not_sit_out_the_callers_coalesce_window() {
    let _serial = serial();
    /// Long enough that a worker which lingers fails the bound below
    /// instead of squeaking past it.
    const LONG_WINDOW: Duration = Duration::from_secs(20);
    let a = graph();
    let worker = Arc::new(worker(&a, LONG_WINDOW));
    worker.apply(EpochRecord::Snapshot {
        epoch: 0,
        x_start: 0,
        x: Arc::new(feats(0.1)),
        y: Arc::new(feats(0.9)),
    });
    let (tx, rx) = mpsc::channel();
    let serving = Arc::clone(&worker);
    // Detached on purpose: if the worker lingers, the test fails at the
    // timeout below rather than joining a 20 s wait.
    std::thread::spawn(move || {
        let _ = tx.send(serving.embed_part(&[3, 4, 5], 0, Quality::Exact, None).map(|r| r.rows));
    });
    let rows = rx
        .recv_timeout(LONG_WINDOW / 4)
        .expect("embed_part is the band queue's only producer: nothing to wait for")
        .expect("embed_part");
    assert_eq!((rows.nrows(), rows.ncols()), (3, D));
}

#[test]
fn a_delta_the_store_would_refuse_panics_before_anything_ships() {
    let _serial = serial();
    let transport = Arc::new(Recording::default());
    let remote = RemoteShardedEngine::new(
        feats(0.1),
        feats(0.9),
        Arc::clone(&transport) as _,
        config(Duration::ZERO),
    );
    let shipped = || transport.shipped.lock().expect("shipped").len();
    let one_row = Dense::zeros(1, D);
    // Row `N` is past the last row; two ids with one patch row is short.
    for rows in [&[N][..], &[0, 1][..]] {
        let before = shipped();
        let write = || remote.delta_update(rows, &one_row, &one_row);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(write));
        assert!(refused.is_err(), "rows {rows:?}: the delta must be refused");
        assert_eq!(shipped(), before, "rows {rows:?}: the refused record reached the log");
        assert_eq!(remote.store().current_epoch(), 0, "rows {rows:?}: an epoch was minted");
    }
}

/// `record` as a worker owning global rows `band` decodes it off the
/// socket: a whole generation holds exactly the band's rows of `X`.
fn narrowed(record: &EpochRecord, band: Range<usize>) -> EpochRecord {
    let exact = |x: &Dense| {
        let d = x.ncols();
        Arc::new(
            Dense::from_rows(band.len(), d, &x.as_slice()[band.start * d..band.end * d]).unwrap(),
        )
    };
    match record {
        EpochRecord::Publish { epoch, x_start: 0, x, y } => EpochRecord::Publish {
            epoch: *epoch,
            x_start: band.start,
            x: exact(x),
            y: Arc::clone(y),
        },
        EpochRecord::Snapshot { epoch, x_start: 0, x, y } => EpochRecord::Snapshot {
            epoch: *epoch,
            x_start: band.start,
            x: exact(x),
            y: Arc::clone(y),
        },
        other => other.clone(),
    }
}

/// Two band workers behind a transport that hands each the records a
/// socket would: its band's rows of `X`, all of `Y`.
struct BandWorkers {
    workers: Vec<Arc<WorkerEngine>>,
    boundaries: Vec<usize>,
}

impl BandWorkers {
    fn new(a: &Csr) -> BandWorkers {
        let part = Partition::part1d(a, 2, PartitionStrategy::NnzBalanced);
        let boundaries = part.boundaries().to_vec();
        let workers = (0..2)
            .map(|s| {
                let band = boundaries[s]..boundaries[s + 1];
                let (x0, y0) = (Dense::zeros(N, D), Dense::zeros(N, D));
                let ops = OpSet::sigmoid_embedding(None);
                Arc::new(WorkerEngine::new(a, band, s, x0, y0, ops, config(Duration::ZERO)))
            })
            .collect();
        BandWorkers { workers, boundaries }
    }
}

impl ShardTransport for BandWorkers {
    fn nshards(&self) -> usize {
        self.workers.len()
    }

    fn boundaries(&self) -> Vec<usize> {
        self.boundaries.clone()
    }

    fn embed_part(
        &self,
        shard: usize,
        nodes: &[usize],
        epoch: &Arc<FeatureEpoch>,
        quality: Quality,
        deadline: Option<Instant>,
        slot: PartSlot,
    ) {
        match self.workers[shard].embed_part(nodes, epoch.epoch(), quality, deadline) {
            Ok(resp) => slot.resolve(PartOutcome::Rows(resp.rows)),
            Err(_) => slot.resolve(PartOutcome::Failed),
        }
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
        for (s, worker) in self.workers.iter().enumerate() {
            worker.apply(narrowed(record, self.boundaries[s]..self.boundaries[s + 1]));
        }
    }
}

#[test]
fn band_local_replicas_serve_what_the_in_process_engine_serves_at_every_epoch() {
    let _serial = serial();
    let a = graph();
    let ops = OpSet::sigmoid_embedding(None);
    let (x, y) = (feats(0.1), feats(0.9));
    let local = ShardedEngine::new(a.clone(), x.clone(), y.clone(), ops, 2, config(Duration::ZERO));
    let transport = Arc::new(BandWorkers::new(&a));
    let remote =
        RemoteShardedEngine::new(x, y, Arc::clone(&transport) as _, config(Duration::ZERO));
    let cut = transport.boundaries[1];
    assert!(0 < cut && cut < N, "two non-empty bands");
    let all: Vec<usize> = (0..N).collect();
    let pairs: Vec<(usize, usize)> = (0..N).map(|u| (u, (u * 11 + 5) % N)).collect();
    let same = |epoch: u64| {
        assert_eq!(remote.embed(&all).unwrap(), local.embed(&all).unwrap(), "embed at {epoch}");
        let (r, l) = (remote.score_edges(&pairs).unwrap(), local.score_edges(&pairs).unwrap());
        let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r), bits(&l), "score_edges at {epoch}");
        // Every epoch a replica pins holds exactly its band of X.
        for (s, worker) in transport.workers.iter().enumerate() {
            let band = transport.boundaries[s]..transport.boundaries[s + 1];
            let pinned = worker.pinned(epoch).expect("the current epoch is pinned");
            assert_eq!((pinned.x_start(), pinned.x().nrows()), (band.start, band.len()));
            assert_eq!(pinned.y().nrows(), N, "a replica holds all of Y");
        }
    };
    same(0);
    // Rows on both sides of the cut and at both ends.
    let rows = vec![0, cut - 1, cut, cut + 1, N - 1];
    let patch = |seed: f32| Dense::from_fn(rows.len(), D, |r, k| ((r * 3 + k) as f32 + seed).sin());
    for (epoch, seed) in [(1, 0.3), (2, 0.7)] {
        assert_eq!(remote.delta_update(&rows, &patch(seed), &patch(-seed)), epoch);
        assert_eq!(local.store().delta_update(&rows, &patch(seed), &patch(-seed)), epoch);
        same(epoch);
    }
    let (x3, y3) = (feats(0.4), feats(0.6));
    assert_eq!(remote.publish(x3.clone(), y3.clone()), 3);
    assert_eq!(local.store().publish(x3, y3), 3);
    same(3);
    assert_eq!(remote.delta_update(&rows, &patch(0.5), &patch(0.2)), 4);
    assert_eq!(local.store().delta_update(&rows, &patch(0.5), &patch(0.2)), 4);
    same(4);
}

#[test]
#[should_panic(expected = "misses band")]
fn a_snapshot_whose_x_misses_the_band_panics_before_the_store_changes() {
    let _serial = serial();
    let a = graph();
    let half = N / 2;
    let (x0, y0) = (Dense::zeros(N, D), Dense::zeros(N, D));
    let ops = OpSet::sigmoid_embedding(None);
    let worker = WorkerEngine::new(&a, 0..half, 0, x0, y0, ops, config(Duration::ZERO));
    worker.apply(EpochRecord::Snapshot {
        epoch: 0,
        x_start: 0,
        x: Arc::new(feats(0.1)),
        y: Arc::new(feats(0.9)),
    });
    let seeded = worker.pinned(0).expect("seeded");
    // Global rows 1..N: row 0 of the band is missing.
    let x = Dense::from_rows(N - 1, D, &feats(0.4).as_slice()[D..]).unwrap();
    let record =
        EpochRecord::Snapshot { epoch: 1, x_start: 1, x: Arc::new(x), y: Arc::new(feats(0.6)) };
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.apply(record)));
    assert_eq!(worker.current_epoch(), 0, "the refused record reached the store");
    assert!(worker.pinned(1).is_err(), "the refused record was pinned");
    assert!(Arc::ptr_eq(&worker.pinned(0).unwrap(), &seeded), "the history changed");
    std::panic::resume_unwind(refused.expect_err("the record misses the band"));
}
