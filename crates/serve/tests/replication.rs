//! A feature generation exists once per process that holds it: what
//! the coordinator allocates when it seeds and publishes, that a fresh
//! replica holds and serves nothing until its first record (and that
//! record is then its only pair), and that a worker's band
//! engine does not sit out a coalescing window nobody can join — and
//! that a write the store would refuse never reaches the log. The
//! counting allocator is installed so "no copy" is checked in bytes,
//! and the tests run one at a time (its counters are process-wide).

use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fusedmm_ops::OpSet;
use fusedmm_perf::memtrack::{self, CountingAllocator};
use fusedmm_serve::remote::{
    EpochRecord, PartOutcome, PartSlot, RemoteShardedEngine, ShardTransport, WorkerEngine,
    WorkerError,
};
use fusedmm_serve::{AdmissionPolicy, EngineConfig, FaultPlan, FeatureEpoch, Quality, ServeError};
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
    let record =
        EpochRecord::Snapshot { epoch: 5, x: Arc::new(feats(0.1)), y: Arc::new(feats(0.9)) };
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
