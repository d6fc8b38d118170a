//! Epoch-versioned feature storage: the serving engine's write path.
//!
//! The engine used to own `X`/`Y` frozen forever — a training loop had
//! no way to publish refreshed embeddings without restarting traffic.
//! [`FeatureStore`] fixes that with RCU-style versioning:
//!
//! * readers call [`FeatureStore::snapshot`] and get an
//!   `Arc<FeatureEpoch>` — an immutable `(epoch, X, Y)` triple. The
//!   read path is a brief shared-lock Arc clone (no allocation, no
//!   copies, never blocked by an in-progress feature build);
//! * writers call [`FeatureStore::publish`] (whole matrices) or
//!   [`FeatureStore::delta_update`] (a row patch) to mint the next
//!   epoch and swap the pointer. Old epochs stay alive exactly as long
//!   as some in-flight batch still pins them, then drop;
//! * a delta pays for the rows it touches when it can: if nothing but
//!   the store holds the current generation (no snapshot, epoch
//!   record, log base or replica history), the rows are written in
//!   place under the write lock and readers wait only for that row
//!   copy. Otherwise it is copy-on-write — both matrices are cloned
//!   outside the lock and readers wait only for the pointer swap.
//!   Either way no holder of a snapshot ever sees it change.
//!
//! The epoch-pinning contract: every serving batch resolves one
//! snapshot up front and computes every output row from it, so a
//! response is never torn across a swap — it reflects exactly one
//! epoch, even while publishes race the request.
//!
//! Feature *shapes* are frozen at store construction (publishing a
//! different `nrows`/`d` panics): engines key their kernel plans on the
//! dimension and validate node ids against the row counts once, at
//! load time.
//!
//! A store holds `Y` whole and the rows of `X` in its *band*: all of
//! them everywhere except in a remote worker's replica, which holds
//! only the rows its band's kernel reads. Writes still speak global row
//! ids; a replica's delta writes the `X` rows inside its band and every
//! `Y` row.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use fusedmm_sparse::dense::Dense;
use fusedmm_sparse::Permutation;

/// One immutable published generation of the feature matrices.
///
/// The matrices sit behind `Arc`s so a generation exists once per
/// process: the epoch records a coordinator replicates, its epoch
/// log's base and a replica's pinned history all hold these
/// allocations, not copies of them. Immutable to every holder: the
/// store patches a generation in place only while it is the sole one
/// (see [`FeatureStore::delta_update`]).
#[derive(Debug)]
pub struct FeatureEpoch {
    epoch: u64,
    /// Global id of `x`'s row 0.
    x_start: usize,
    x: Arc<Dense>,
    y: Arc<Dense>,
}

impl FeatureEpoch {
    /// The generation number (0 for the load-time features, +1 per
    /// publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Target-side features: global rows `x_start()..x_start() +
    /// x().nrows()` of `A`'s row space — every row, except in a remote
    /// worker's replica, which holds its band's rows only.
    pub fn x(&self) -> &Dense {
        &self.x
    }

    /// The global id of [`x`](Self::x)'s row 0: 0 except in a replica,
    /// where it is the band's first row. Kernels read row `u` of the
    /// global `X` at row `u - x_start()`.
    pub fn x_start(&self) -> usize {
        self.x_start
    }

    /// Neighbor-side features (one row per vertex of `A`'s column
    /// space).
    pub fn y(&self) -> &Dense {
        &self.y
    }

    /// Shared handles to `(X, Y)` — what an epoch record carries.
    pub fn shared(&self) -> (Arc<Dense>, Arc<Dense>) {
        (Arc::clone(&self.x), Arc::clone(&self.y))
    }
}

/// Global rows `rows` of `x`, whose row 0 is global row `x_start`, as a
/// matrix of their own: one copy of a contiguous slice, no index
/// vector.
pub(crate) fn copy_rows(x: &Dense, x_start: usize, rows: Range<usize>) -> Dense {
    let d = x.ncols();
    let slice = &x.as_slice()[(rows.start - x_start) * d..(rows.end - x_start) * d];
    Dense::from_rows(rows.len(), d, slice).expect("rows.len() * d entries")
}

/// Write global row `rows[i]` of `y`, and of `x` when it falls in
/// `x_band` (the global rows `x` holds), from row `i` of the patches.
fn write_rows(
    x: &mut Dense,
    x_band: &Range<usize>,
    y: &mut Dense,
    rows: &[usize],
    x_rows: &Dense,
    y_rows: &Dense,
) {
    for (i, &u) in rows.iter().enumerate() {
        if x_band.contains(&u) {
            x.row_mut(u - x_band.start).copy_from_slice(x_rows.row(i));
        }
        y.row_mut(u).copy_from_slice(y_rows.row(i));
    }
}

/// Observer of epoch transitions, registered with
/// [`FeatureStore::subscribe`]. Invalidation-aware layers (the result
/// cache, epoch-keyed plan entries) implement this to learn *which
/// kind* of write minted an epoch — a publish invalidates everything, a
/// delta update only a touch set.
///
/// # Ordering contract
///
/// The store calls a listener **before** the epoch swap becomes
/// visible, while holding the writer lock: when `on_publish(k)` /
/// `on_delta(k, ..)` runs, no reader can have pinned epoch `k` yet, and
/// no other writer can race the notification. A cache that retires
/// entries inside the callback therefore closes the window in which a
/// reader at epoch `k` could observe a stale pre-`k` entry. Callbacks
/// must not call back into the store's write path (deadlock) and should
/// stay short — they run on the publisher's critical path.
pub trait EpochListener: Send + Sync {
    /// Epoch `epoch` is about to be minted by a whole-matrix
    /// [`publish`](FeatureStore::publish): every derived result is
    /// invalid.
    fn on_publish(&self, epoch: u64);

    /// Epoch `epoch` is about to be minted by a
    /// [`delta_update`](FeatureStore::delta_update) patching exactly
    /// `rows`: only results depending on those rows are invalid.
    fn on_delta(&self, epoch: u64, rows: &[usize]);
}

/// Epoch-versioned `(X, Y)` holder shared by every engine (and every
/// shard) serving the same model. See the module docs for the
/// reader/writer contract.
pub struct FeatureStore {
    current: RwLock<Arc<FeatureEpoch>>,
    /// Serializes writers so a `delta_update`'s read-modify-publish is
    /// atomic; readers never touch this.
    writer: Mutex<()>,
    /// Epoch-transition observers, notified under the writer lock
    /// before each swap (see [`EpochListener`]). Held weakly: a
    /// dropped subscriber (e.g. a cache whose engine shut down) is
    /// pruned at the next notification instead of being invalidated
    /// forever.
    listeners: RwLock<Vec<Weak<dyn EpochListener>>>,
    swaps: AtomicU64,
    /// Rows of the global `X`: the id space writes are checked against.
    x_rows: usize,
    /// The global rows of `X` each epoch holds: `0..x_rows` except in a
    /// replica, where it is the worker's band.
    x_band: Range<usize>,
    y_rows: usize,
    d: usize,
    /// When the engine serves a reordered graph, epochs hold features
    /// in *internal* (permuted) row order while the write path keeps
    /// speaking external vertex ids: `publish` permutes incoming
    /// matrices, `delta_update` translates row ids. Listeners are
    /// notified with internal ids — they key on the same rows the
    /// kernels read.
    perm: Option<Arc<Permutation>>,
}

impl std::fmt::Debug for FeatureStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureStore")
            .field("x_rows", &self.x_rows)
            .field("x_band", &self.x_band)
            .field("y_rows", &self.y_rows)
            .field("d", &self.d)
            .field("epoch", &self.current_epoch())
            .field("listeners", &self.listeners.read().len())
            .finish()
    }
}

impl FeatureStore {
    /// Wrap the load-time features as epoch 0.
    ///
    /// # Panics
    /// Panics when `x` and `y` disagree on the embedding dimension.
    pub fn new(x: Dense, y: Dense) -> FeatureStore {
        assert_eq!(x.ncols(), y.ncols(), "X and Y must share the embedding dimension");
        let (x_rows, y_rows, d) = (x.nrows(), y.nrows(), x.ncols());
        FeatureStore::at_epoch_zero(0..x_rows, x_rows, y_rows, d, Arc::new(x), Arc::new(y))
    }

    /// A replica store for the worker owning global rows `band` of an
    /// `x_rows × d` `X` (and all of a `y_rows × d` `Y`). It holds no
    /// features yet: at epoch 0 one shared `0 × d` generation (no
    /// allocation). The first [`publish_at`](Self::publish_at) seeds it
    /// through the usual shape check, which expects `band.len()` rows of
    /// `X`. Nobody may pin epoch 0 here — a kernel handed the empty
    /// generation panics on its row bounds instead of serving zeros.
    pub(crate) fn unseeded(
        band: Range<usize>,
        x_rows: usize,
        y_rows: usize,
        d: usize,
    ) -> FeatureStore {
        let empty = Arc::new(Dense::zeros(0, d));
        FeatureStore::at_epoch_zero(band, x_rows, y_rows, d, Arc::clone(&empty), empty)
    }

    fn at_epoch_zero(
        x_band: Range<usize>,
        x_rows: usize,
        y_rows: usize,
        d: usize,
        x: Arc<Dense>,
        y: Arc<Dense>,
    ) -> FeatureStore {
        let epoch = FeatureEpoch { epoch: 0, x_start: x_band.start, x, y };
        FeatureStore {
            current: RwLock::new(Arc::new(epoch)),
            writer: Mutex::new(()),
            listeners: RwLock::new(Vec::new()),
            swaps: AtomicU64::new(0),
            x_rows,
            x_band,
            y_rows,
            d,
            perm: None,
        }
    }

    /// Wrap load-time features given in **external** row order as
    /// epoch 0 of a store whose epochs live in the permuted (internal)
    /// order. Writers keep using external ids — see the `perm` field
    /// docs. Built by engines configured with a reordering; snapshots
    /// hand the kernels rows in the same order as the permuted matrix.
    ///
    /// # Panics
    /// Panics when the dimensions disagree or either matrix's row count
    /// differs from the permutation length.
    pub fn with_permutation(x: Dense, y: Dense, perm: Arc<Permutation>) -> FeatureStore {
        assert_eq!(x.nrows(), perm.len(), "X rows != permutation length");
        assert_eq!(y.nrows(), perm.len(), "Y rows != permutation length");
        let mut store = FeatureStore::new(perm.permute_rows(&x), perm.permute_rows(&y));
        store.perm = Some(perm);
        store
    }

    /// The permutation separating external ids from epoch row order,
    /// when this store backs a reordered engine.
    pub fn permutation(&self) -> Option<&Arc<Permutation>> {
        self.perm.as_ref()
    }

    /// Register an epoch-transition observer (see [`EpochListener`] for
    /// the ordering contract). The store keeps only a weak reference:
    /// when the subscriber's last `Arc` drops (its engine shut down),
    /// the slot is pruned at the next write instead of taxing every
    /// future publish forever.
    ///
    /// Registration serializes with writers: it lands either entirely
    /// before an in-flight write (and is notified of its epoch) or
    /// entirely after its install (so every epoch the listener's
    /// readers can pin post-dates registration). Without this a
    /// listener slipping in between a write's notification and its
    /// swap would silently miss one invalidation.
    pub fn subscribe(&self, listener: Arc<dyn EpochListener>) {
        let _w = self.writer.lock();
        self.listeners.write().push(Arc::downgrade(&listener));
    }

    /// Call `notify` on every live listener, pruning dead ones.
    /// Runs under the writer lock, before the matching swap.
    fn for_each_listener(&self, notify: impl Fn(&dyn EpochListener)) {
        let mut listeners = self.listeners.write();
        listeners.retain(|weak| match weak.upgrade() {
            Some(listener) => {
                notify(&*listener);
                true
            }
            None => false,
        });
    }

    /// Rows of the global `X` (fixed across epochs) — a replica holds
    /// only its band of them, see [`FeatureEpoch::x_start`].
    pub fn x_rows(&self) -> usize {
        self.x_rows
    }

    /// Rows of `Y` (fixed across epochs).
    pub fn y_rows(&self) -> usize {
        self.y_rows
    }

    /// The embedding dimension (fixed across epochs).
    pub fn d(&self) -> usize {
        self.d
    }

    /// Pin the current epoch. The returned snapshot stays valid (and
    /// immutable) for as long as the caller holds it, regardless of
    /// how many publishes happen meanwhile.
    pub fn snapshot(&self) -> Arc<FeatureEpoch> {
        Arc::clone(&self.current.read())
    }

    /// The current epoch number, without pinning it.
    pub fn current_epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// How many epoch swaps ([`publish`](Self::publish) +
    /// [`delta_update`](Self::delta_update)) have completed.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Publish whole replacement matrices as the next epoch; returns
    /// the new epoch number. In-flight batches keep serving the epoch
    /// they pinned; new snapshots see the published features.
    ///
    /// # Panics
    /// Panics when the shapes differ from the load-time shapes.
    pub fn publish(&self, x: Dense, y: Dense) -> u64 {
        self.check_shapes(&x, &y);
        let (x, y) = match &self.perm {
            Some(p) => (p.permute_rows(&x), p.permute_rows(&y)),
            None => (x, y),
        };
        self.publish_shared(Arc::new(x), Arc::new(y))
    }

    /// [`publish`](Self::publish) of matrices somebody else may keep
    /// holding, already in epoch (internal) row order and already
    /// through [`check_shapes`](Self::check_shapes): the new epoch is
    /// these allocations. The remote coordinator ships a generation and
    /// then installs the same one.
    pub(crate) fn publish_shared(&self, x: Arc<Dense>, y: Arc<Dense>) -> u64 {
        let _w = self.writer.lock();
        // Writers are serialized, so the next epoch number is stable
        // from here until `install`; announce it before any reader can
        // pin it.
        let next = self.current.read().epoch + 1;
        self.for_each_listener(|l| l.on_publish(next));
        self.install(next, x, y);
        next
    }

    /// Patch `rows` of both matrices — `x_rows_new`/`y_rows_new` hold
    /// one replacement row per entry of `rows` — and publish the result
    /// as the next epoch; returns the new epoch number.
    ///
    /// When nothing but the store holds the current generation (no
    /// snapshot, epoch record, log base or replica history), the rows
    /// are written in place and readers wait only for that row copy.
    /// Otherwise the patch lands in a copy-on-write clone made outside
    /// the reader lock, and readers are only blocked for the pointer
    /// swap.
    ///
    /// # Panics
    /// Panics when a row id is out of range or the patch dimensions
    /// disagree with the store's.
    pub fn delta_update(&self, rows: &[usize], x_rows_new: &Dense, y_rows_new: &Dense) -> u64 {
        self.check_delta(rows, x_rows_new, y_rows_new);
        // External row ids become epoch (internal) rows here; listeners
        // and the patch agree on the translated set.
        let mapped: Vec<usize>;
        let rows: &[usize] = match &self.perm {
            Some(p) => {
                mapped = p.map_to_new(rows);
                &mapped
            }
            None => rows,
        };
        let _w = self.writer.lock();
        let next = self.current.read().epoch + 1;
        self.patch(next, rows, x_rows_new, y_rows_new);
        next
    }

    /// Replication seam: install whole matrices **as** epoch `epoch`,
    /// which may jump ahead of (or equal) the current number — a
    /// replica applying a coordinator's snapshot record lands directly
    /// on the coordinator's epoch numbering instead of minting its own.
    /// `x` holds exactly the store's band of `X`.
    /// Listeners are notified with the applied epoch (`on_publish`),
    /// under the same before-the-swap ordering contract as
    /// [`publish`](Self::publish).
    ///
    /// # Panics
    /// Panics on a shape mismatch, on a permuted store (replicas hold
    /// internal-order features; the coordinator translates ids before
    /// shipping), or when `epoch` would move the store backwards.
    pub(crate) fn publish_at(&self, epoch: u64, x: Arc<Dense>, y: Arc<Dense>) {
        self.check_shapes(&x, &y);
        assert!(self.perm.is_none(), "replica stores hold internal-order features");
        let _w = self.writer.lock();
        let current = self.current.read().epoch;
        assert!(epoch >= current, "epoch log regressed: applying {epoch} over {current}");
        self.for_each_listener(|l| l.on_publish(epoch));
        self.install(epoch, x, y);
    }

    /// Replication seam: apply a coordinator's delta record **as**
    /// epoch `epoch`. Unlike [`publish_at`](Self::publish_at) the base
    /// matters — a patch only reproduces the coordinator's matrices
    /// when applied to the epoch right before it — so the record must
    /// be the immediate successor of the replica's current epoch.
    /// `rows` are internal row ids (the coordinator ships them
    /// pre-translated); listeners see exactly that set (`on_delta`),
    /// though a replica writes only the `X` rows inside its band.
    ///
    /// # Panics
    /// Panics on shape/range mismatches, a permuted store, or a gap in
    /// the log (`epoch != current + 1`).
    pub(crate) fn delta_update_at(
        &self,
        epoch: u64,
        rows: &[usize],
        x_rows_new: &Dense,
        y_rows_new: &Dense,
    ) {
        assert!(self.perm.is_none(), "replica stores hold internal-order features");
        self.check_delta(rows, x_rows_new, y_rows_new);
        let _w = self.writer.lock();
        let current = self.current.read().epoch;
        assert_eq!(
            epoch,
            current + 1,
            "epoch log gap: delta record {epoch} cannot apply over {current}"
        );
        self.patch(epoch, rows, x_rows_new, y_rows_new);
    }

    /// The one patch step of both delta paths (writer lock held by the
    /// caller): announce `epoch` to the listeners, then write `rows`
    /// into the current generation in place if the store is its only
    /// holder, or into a copy installed as `epoch` otherwise.
    ///
    /// Listeners run before `current` is write-locked — they may read
    /// the store — and the new epoch number becomes visible only after
    /// they have all returned.
    fn patch(&self, epoch: u64, rows: &[usize], x_rows: &Dense, y_rows: &Dense) {
        self.for_each_listener(|l| l.on_delta(epoch, rows));
        let mut current = self.current.write();
        if let Some(ep) = Arc::get_mut(&mut current) {
            if let (Some(x), Some(y)) = (Arc::get_mut(&mut ep.x), Arc::get_mut(&mut ep.y)) {
                write_rows(x, &self.x_band, y, rows, x_rows, y_rows);
                ep.epoch = epoch;
                drop(current);
                self.swaps.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let base = Arc::clone(&current);
        drop(current);
        let (mut x, mut y) = (Dense::clone(&base.x), Dense::clone(&base.y));
        drop(base);
        write_rows(&mut x, &self.x_band, &mut y, rows, x_rows, y_rows);
        self.install(epoch, Arc::new(x), Arc::new(y));
    }

    /// Swap in `(x, y)` as `epoch` (writer lock held by the caller, the
    /// epoch already announced to listeners).
    fn install(&self, epoch: u64, x: Arc<Dense>, y: Arc<Dense>) {
        let x_start = self.x_band.start;
        *self.current.write() = Arc::new(FeatureEpoch { epoch, x_start, x, y });
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// The one shape check of a whole generation: `X` holds the
    /// store's band (every row, except in a replica), `Y` every row.
    pub(crate) fn check_shapes(&self, x: &Dense, y: &Dense) {
        assert_eq!(x.nrows(), self.x_band.len(), "published X row count changed");
        assert_eq!(y.nrows(), self.y_rows, "published Y row count changed");
        assert_eq!(x.ncols(), self.d, "published X dimension changed");
        assert_eq!(y.ncols(), self.d, "published Y dimension changed");
    }

    /// The one validation of a row patch: one `d`-wide X and Y patch
    /// row per row id, every id inside both matrices. Runs before any
    /// write — and before the remote coordinator ships the record, so
    /// no replica ever receives a delta this store would refuse.
    ///
    /// # Panics
    /// Panics on the first violation.
    pub(crate) fn check_delta(&self, rows: &[usize], x_rows_new: &Dense, y_rows_new: &Dense) {
        assert_eq!(x_rows_new.nrows(), rows.len(), "one X patch row per updated row id");
        assert_eq!(y_rows_new.nrows(), rows.len(), "one Y patch row per updated row id");
        assert_eq!(x_rows_new.ncols(), self.d, "X patch dimension mismatch");
        assert_eq!(y_rows_new.ncols(), self.d, "Y patch dimension mismatch");
        for &u in rows {
            assert!(u < self.x_rows, "patched X row {u} out of range for {} rows", self.x_rows);
            assert!(u < self.y_rows, "patched Y row {u} out of range for {} rows", self.y_rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(n: usize, d: usize) -> FeatureStore {
        FeatureStore::new(Dense::filled(n, d, 0.0), Dense::filled(n, d, 0.0))
    }

    #[test]
    fn epoch_zero_holds_the_load_time_features() {
        let s = FeatureStore::new(Dense::filled(3, 2, 1.5), Dense::filled(4, 2, 2.5));
        assert_eq!((s.x_rows(), s.y_rows(), s.d()), (3, 4, 2));
        let ep = s.snapshot();
        assert_eq!(ep.epoch(), 0);
        assert_eq!(ep.x().get(2, 1), 1.5);
        assert_eq!(ep.y().get(3, 0), 2.5);
        assert_eq!(s.swap_count(), 0);
    }

    #[test]
    fn publish_mints_epochs_and_old_snapshots_stay_pinned() {
        let s = store(4, 2);
        let pinned = s.snapshot();
        assert_eq!(s.publish(Dense::filled(4, 2, 1.0), Dense::filled(4, 2, 1.0)), 1);
        assert_eq!(s.publish(Dense::filled(4, 2, 2.0), Dense::filled(4, 2, 2.0)), 2);
        assert_eq!(s.current_epoch(), 2);
        assert_eq!(s.swap_count(), 2);
        // The old pin still reads epoch-0 values.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.x().get(0, 0), 0.0);
        assert_eq!(s.snapshot().x().get(0, 0), 2.0);
    }

    #[test]
    fn delta_update_patches_only_the_named_rows() {
        let s = store(5, 3);
        let patch_x = Dense::filled(2, 3, 7.0);
        let patch_y = Dense::filled(2, 3, 9.0);
        assert_eq!(s.delta_update(&[1, 4], &patch_x, &patch_y), 1);
        let ep = s.snapshot();
        assert_eq!(ep.epoch(), 1);
        assert_eq!(ep.x().row(1), &[7.0; 3]);
        assert_eq!(ep.x().row(4), &[7.0; 3]);
        assert_eq!(ep.x().row(0), &[0.0; 3]);
        assert_eq!(ep.y().row(4), &[9.0; 3]);
        assert_eq!(ep.y().row(2), &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "row count changed")]
    fn publish_rejects_resizes() {
        let s = store(4, 2);
        s.publish(Dense::filled(5, 2, 0.0), Dense::filled(4, 2, 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delta_update_rejects_bad_rows() {
        let s = store(4, 2);
        s.delta_update(&[4], &Dense::filled(1, 2, 0.0), &Dense::filled(1, 2, 0.0));
    }

    #[test]
    fn listeners_see_each_epoch_before_it_is_pinnable() {
        use std::sync::Mutex as StdMutex;

        struct Recorder {
            store: std::sync::Weak<FeatureStore>,
            events: StdMutex<Vec<(u64, Option<Vec<usize>>)>>,
        }
        impl EpochListener for Recorder {
            fn on_publish(&self, epoch: u64) {
                // The announced epoch must not be current yet: the
                // callback runs strictly before the swap.
                let store = self.store.upgrade().expect("store alive");
                assert!(store.current_epoch() < epoch, "listener ran after the swap");
                self.events.lock().unwrap().push((epoch, None));
            }
            fn on_delta(&self, epoch: u64, rows: &[usize]) {
                let store = self.store.upgrade().expect("store alive");
                assert!(store.current_epoch() < epoch, "listener ran after the swap");
                self.events.lock().unwrap().push((epoch, Some(rows.to_vec())));
            }
        }

        let s = Arc::new(store(4, 2));
        let rec =
            Arc::new(Recorder { store: Arc::downgrade(&s), events: StdMutex::new(Vec::new()) });
        s.subscribe(Arc::clone(&rec) as _);
        assert_eq!(s.publish(Dense::filled(4, 2, 1.0), Dense::filled(4, 2, 1.0)), 1);
        let p = Dense::filled(2, 2, 2.0);
        assert_eq!(s.delta_update(&[0, 3], &p, &p), 2);
        assert_eq!(s.publish(Dense::filled(4, 2, 3.0), Dense::filled(4, 2, 3.0)), 3);
        let events = rec.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![(1, None), (2, Some(vec![0, 3])), (3, None)],
            "every epoch announced exactly once, in order, with its kind"
        );
    }

    #[test]
    fn dropped_listeners_are_pruned_not_notified() {
        use std::sync::atomic::AtomicU64 as Counter;

        struct Counting(Arc<Counter>);
        impl EpochListener for Counting {
            fn on_publish(&self, _: u64) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn on_delta(&self, _: u64, _: &[usize]) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let s = store(4, 2);
        let calls = Arc::new(Counter::new(0));
        let listener = Arc::new(Counting(Arc::clone(&calls)));
        s.subscribe(Arc::clone(&listener) as _);
        s.publish(Dense::filled(4, 2, 1.0), Dense::filled(4, 2, 1.0));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // Drop the subscriber (an engine shutting down): the next
        // write prunes the dead slot and never calls it again.
        drop(listener);
        s.publish(Dense::filled(4, 2, 2.0), Dense::filled(4, 2, 2.0));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "dead listener was notified");
        assert_eq!(s.listeners.read().len(), 0, "dead listener slot was pruned");
    }

    #[test]
    fn permuted_store_speaks_external_ids_on_the_write_path() {
        // new_of_old = [2, 0, 1, 3]: external row 0 lives at internal 2.
        let perm = Arc::new(Permutation::from_new_of_old(vec![2, 0, 1, 3]));
        let x = Dense::from_fn(4, 2, |r, c| (10 * r + c) as f32);
        let y = Dense::from_fn(4, 2, |r, c| (100 * r + c) as f32);
        let s = FeatureStore::with_permutation(x.clone(), y.clone(), Arc::clone(&perm));
        // Epoch 0 is stored internally: internal row to_new(u) is
        // external row u.
        let ep = s.snapshot();
        for u in 0..4 {
            assert_eq!(ep.x().row(perm.to_new(u)), x.row(u));
            assert_eq!(ep.y().row(perm.to_new(u)), y.row(u));
        }
        // publish() takes external-order matrices too.
        let x1 = Dense::from_fn(4, 2, |r, c| (7 * r + c) as f32);
        s.publish(x1.clone(), y.clone());
        assert_eq!(s.snapshot().x().row(perm.to_new(3)), x1.row(3));
        // delta_update() takes external row ids; internal rows move.
        let px = Dense::filled(1, 2, 5.5);
        s.delta_update(&[0], &px, &px);
        let ep = s.snapshot();
        assert_eq!(ep.x().row(perm.to_new(0)), &[5.5; 2]);
        assert_eq!(ep.y().row(perm.to_new(0)), &[5.5; 2]);
        // Untouched external row 1 still holds its published value.
        assert_eq!(ep.x().row(perm.to_new(1)), x1.row(1));
    }

    #[test]
    fn concurrent_publishes_and_deltas_never_lose_an_epoch() {
        let s = Arc::new(store(8, 2));
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for i in 0..25 {
                        if t % 2 == 0 {
                            let v = (t * 100 + i) as f32;
                            s.publish(Dense::filled(8, 2, v), Dense::filled(8, 2, v));
                        } else {
                            let p = Dense::filled(1, 2, i as f32);
                            s.delta_update(&[(i as usize) % 8], &p, &p);
                        }
                    }
                });
            }
        });
        // 4 writers x 25 swaps, each minting a distinct epoch.
        assert_eq!(s.current_epoch(), 100);
        assert_eq!(s.swap_count(), 100);
    }
}
