//! A feature generation exists once per process that holds it: what
//! the coordinator allocates when it seeds and publishes, that a fresh
//! replica holds and serves nothing until its first record (and that
//! record is then its only pair), that a worker computes each part on
//! the thread serving it, that a write the store would refuse never
//! reaches the log, and that a record missing part of a replica's band
//! is refused. (That a replica holds exactly its band of `X` and serves
//! what the in-process engine serves is checked by every remote cell of
//! `tests/conformance.rs`.) The counting allocator
//! is installed so "no copy" is checked in bytes, and the tests run one
//! at a time (its counters are process-wide).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use fusedmm_ops::OpSet;
use fusedmm_perf::memtrack::{self, CountingAllocator};
use fusedmm_serve::remote::{
    EpochRecord, PartOutcome, PartSlot, RemoteShardedEngine, ShardTransport, WorkerEngine,
    WorkerError,
};
use fusedmm_serve::{EngineConfig, FaultPlan, FeatureEpoch, Quality, ServeError};
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

fn worker(a: &Csr, config: EngineConfig) -> WorkerEngine {
    let (x0, y0) = (Dense::zeros(N, D), Dense::zeros(N, D));
    WorkerEngine::new(a, 0..N, 0, x0, y0, OpSet::sigmoid_embedding(None), config)
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
        _nodes: &Arc<[usize]>,
        _epoch: &Arc<FeatureEpoch>,
        _quality: Quality,
        _deadline: Option<Instant>,
        slot: PartSlot,
    ) {
        slot.resolve(PartOutcome::Failed);
    }

    fn score_part(
        &self,
        _shard: usize,
        _pairs: &[(usize, usize)],
        _epoch: &Arc<FeatureEpoch>,
        slot: PartSlot,
    ) {
        slot.resolve(PartOutcome::Failed);
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
        EpochRecord::Snapshot { x, y, .. } => (storage(x), storage(y)),
        EpochRecord::Delta { .. } => panic!("record {i} is a delta"),
    };

    let (x, y) = (feats(0.1), feats(0.9));
    let (remote, seeded) = memtrack::measure_peak(|| {
        RemoteShardedEngine::new(x, y, Arc::clone(&transport) as _, EngineConfig::default())
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
    let worker = worker(&a, EngineConfig::default());
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
    let worker = worker(&a, EngineConfig::default());
    worker.apply(EpochRecord::Delta {
        epoch: 1,
        rows: vec![0],
        x_rows: Dense::filled(1, D, 1.0),
        y_rows: Dense::filled(1, D, 1.0),
    });
}

#[test]
fn a_worker_computes_its_part_on_the_serving_thread() {
    let _serial = serial();
    let a = graph();
    // Every launch panics, so the panic hook names the thread that ran
    // each one: the part's launch and its retry.
    let panic_every_launch = Some(Arc::new(FaultPlan::parse("panic_every=1").expect("plan")));
    let worker = worker(&a, EngineConfig { fault: panic_every_launch, ..EngineConfig::default() });
    worker.apply(EpochRecord::Snapshot {
        epoch: 0,
        x_start: 0,
        x: Arc::new(feats(0.1)),
        y: Arc::new(feats(0.9)),
    });
    let launched_on = Arc::new(Mutex::new(Vec::new()));
    let previous = std::panic::take_hook();
    let seen = Arc::clone(&launched_on);
    std::panic::set_hook(Box::new(move |_| {
        let name = std::thread::current().name().map(str::to_owned);
        seen.lock().expect("names").push(name);
    }));
    let served = std::thread::Builder::new()
        .name("serve-loop".into())
        .spawn(move || worker.embed_part(&[3, 4, 5], 0, Quality::Exact, None).map(|r| r.rows))
        .expect("spawn")
        .join()
        .expect("the launch panics are caught");
    std::panic::set_hook(previous);
    assert!(
        matches!(served, Err(WorkerError::Serve(ServeError::PartFailed { .. }))),
        "both launches panicked: {served:?}"
    );
    let names = launched_on.lock().expect("names").clone();
    assert_eq!(names, vec![Some("serve-loop".to_string()); 2], "no other thread launched");
}

#[test]
fn a_delta_the_store_would_refuse_panics_before_anything_ships() {
    let _serial = serial();
    let transport = Arc::new(Recording::default());
    let remote = RemoteShardedEngine::new(
        feats(0.1),
        feats(0.9),
        Arc::clone(&transport) as _,
        EngineConfig::default(),
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

#[test]
#[should_panic(expected = "misses band")]
fn a_snapshot_whose_x_misses_the_band_panics_before_the_store_changes() {
    let _serial = serial();
    let a = graph();
    let half = N / 2;
    let (x0, y0) = (Dense::zeros(N, D), Dense::zeros(N, D));
    let ops = OpSet::sigmoid_embedding(None);
    let worker = WorkerEngine::new(&a, 0..half, 0, x0, y0, ops, EngineConfig::default());
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
