//! Cache-line-aligned growable buffer.
//!
//! The register-blocked FusedMM kernels stream rows of `X`, `Y`, and `Z`
//! through SIMD registers. Aligning the backing storage to 64 bytes keeps
//! every `d`-dimensional row load starting on a cache-line boundary when
//! `d` is a multiple of 16 (f32), which is the common case in the paper
//! (d ∈ {32, 64, 128, 256, 512}).
//!
//! # Recycling through a home
//!
//! A whole-graph output is `n × d × 4` bytes — 128 MiB at the
//! benchmark's scale — and a fresh one costs a zero-fill plus one page
//! fault per 4 KiB before the kernel writes a byte. A [`BufferHome`] is
//! a one-slot parking place that removes both: a buffer taken from a
//! home goes back to it when dropped (if the slot is empty; it is freed
//! otherwise), and the next [`BufferHome::take`] of the same length
//! returns that allocation, pages already mapped. The holder of a
//! recycled buffer must treat its contents as arbitrary initialised
//! `f32`s — the overwrite contract of the `_into` kernels.
//!
//! # Huge pages for large buffers
//!
//! A buffer of 2 MiB or more is aligned to 2 MiB and advised onto
//! transparent huge pages (`madvise(MADV_HUGEPAGE)`) before its first
//! touch. The kernels gather neighbour rows of `Y` at random; on 4 KiB
//! pages almost every such row costs a TLB miss and a page walk, and a
//! 2 MiB page covers 4096 rows of 128 `f32`s. The rule applies where
//! every long-lived operand is born — generated features, a store
//! epoch and its delta clones, a decoded snapshot, a trainer's
//! embedding, a recycled output — so none of them needs a copy. The
//! advice is a hint: a kernel with huge pages off (or a platform
//! without `madvise`) gives ordinary pages and the same values. The
//! layout's size is unchanged, so the counting allocator sees the same
//! bytes. Buffers under 2 MiB keep 64-byte alignment and ordinary pages.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Alignment in bytes for all kernel-facing buffers (one x86 cache line;
/// also the AVX-512 vector width).
pub const CACHE_LINE: usize = 64;

/// One transparent huge page: buffers of at least this many bytes are
/// aligned to it and advised onto huge pages.
const HUGE_PAGE: usize = 2 << 20;

/// A fixed-capacity, 64-byte-aligned, initialised `f32` buffer.
///
/// Unlike `Vec<f32>` the allocation is guaranteed to start on a cache
/// line. The length is fixed at construction; elements are mutated in
/// place. This mirrors how the reference implementation allocates its
/// dense operands once and reuses them across iterations.
///
/// Invariant (every constructor establishes it, nothing outside this
/// module can break it): when `len > 0`, `ptr` is the start of a live
/// allocation of `Self::layout(len)` whose `len` `f32`s are all
/// initialised and which no other value frees or accesses.
pub struct AlignedVec {
    ptr: NonNull<f32>,
    len: usize,
    /// Where the allocation is parked on drop instead of being freed
    /// (`None` for ordinary buffers, and for a buffer while it is
    /// parked).
    home: Option<Weak<HomeSlot>>,
}

// SAFETY: `ptr` is owned exclusively (type invariant), so moving the
// value moves the only access path to the allocation; `f32` is Send;
// `home` is a `Weak` to a `Mutex`-guarded slot, itself Send + Sync.
unsafe impl Send for AlignedVec {}
// SAFETY: `&AlignedVec` only hands out `&[f32]` (and `len`), and `f32`
// is Sync; `home` is never touched through a shared reference.
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// Allocate `len` zeroed f32 values aligned to [`CACHE_LINE`] bytes
    /// (2 MiB, on huge pages, from 2 MiB up; see the module docs).
    ///
    /// A zero-length buffer performs no allocation.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedVec { ptr: NonNull::dangling(), len: 0, home: None };
        }
        let ptr = Self::allocate(len);
        // SAFETY: `allocate` returns a fresh allocation of `len * 4`
        // bytes aligned for `f32`, so `ptr` is valid for `len` f32
        // writes. All-zero bytes are `len` initialised `+0.0f32`s, which
        // establishes the type invariant before the value exists.
        unsafe { ptr.as_ptr().write_bytes(0, len) };
        AlignedVec { ptr, len, home: None }
    }

    /// Build from a slice, copying the contents into aligned storage.
    /// The allocation is written exactly once (no zero-fill first).
    pub fn from_slice(data: &[f32]) -> Self {
        let len = data.len();
        if len == 0 {
            return Self::zeroed(0);
        }
        let ptr = Self::allocate(len);
        // SAFETY: `ptr` is valid for `len` f32 writes (a fresh
        // allocation of `len * 4` bytes, aligned ≥ f32's alignment) and
        // `data` for `len` reads; a fresh allocation cannot overlap
        // `data`. The uninitialised window is never read: it lives only
        // between `allocate` and this copy, which initialises all `len`
        // elements before the buffer becomes an `AlignedVec`.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), ptr.as_ptr(), len) };
        AlignedVec { ptr, len, home: None }
    }

    /// A fresh, uninitialised allocation of `Self::layout(len)`
    /// (`len > 0`), advised onto huge pages when it is 2 MiB-aligned.
    /// The advice comes before any byte is touched, so the first write
    /// to each whole 2 MiB page can fault in a huge page.
    fn allocate(len: usize) -> NonNull<f32> {
        let layout = Self::layout(len);
        // SAFETY: layout has nonzero size because len > 0.
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f32>()) else {
            handle_alloc_error(layout);
        };
        if layout.align() == HUGE_PAGE {
            advise_huge_pages(raw, layout.size());
        }
        ptr
    }

    fn layout(len: usize) -> Layout {
        let bytes = len.checked_mul(std::mem::size_of::<f32>()).expect("aligned layout overflow");
        let align = if bytes >= HUGE_PAGE { HUGE_PAGE } else { CACHE_LINE };
        Layout::from_size_align(bytes, align).expect("aligned layout overflow")
    }

    /// Number of f32 elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reset every element to zero.
    pub fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// View as an immutable slice.
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: by the type invariant `ptr` is valid for `len`
        // initialised f32s for the life of `self` (for `len == 0` it is
        // dangling but aligned, which a zero-length slice permits), and
        // `&self` rules out a concurrent `&mut`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// View as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`; `&mut self` makes this the only
        // live reference into the allocation.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        if let Some(home) = self.home.take().and_then(|weak| weak.upgrade()) {
            let mut slot = home.lock();
            if slot.is_none() {
                // Ownership of the allocation moves into the parked
                // value; returning here is what keeps `self` from
                // freeing it too.
                *slot = Some(AlignedVec { ptr: self.ptr, len: self.len, home: None });
                return;
            }
        }
        // SAFETY: by the type invariant `ptr` came from `alloc` with
        // exactly `Self::layout(self.len)`, and this value is its only
        // owner (not parked above).
        unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) }
    }
}

impl Clone for AlignedVec {
    /// A deep copy. The clone is an ordinary buffer: it does not share
    /// the original's home.
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

/// Ask the kernel to back the whole 2 MiB pages of `[start, start +
/// bytes)` with transparent huge pages. `start` must be 2 MiB-aligned.
/// The advice is only a hint, so its result is ignored: with huge pages
/// off, or off Linux, the memory is ordinary pages and nothing else
/// changes.
fn advise_huge_pages(start: *mut u8, bytes: usize) {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `madvise` is the libc function of this signature,
        // which std already links against on Linux.
        unsafe extern "C" {
            fn madvise(
                addr: *mut std::ffi::c_void,
                len: usize,
                advice: std::ffi::c_int,
            ) -> std::ffi::c_int;
        }
        const MADV_HUGEPAGE: std::ffi::c_int = 14;
        let whole = bytes & !(HUGE_PAGE - 1);
        if whole > 0 {
            // SAFETY: `[start, start + whole)` lies inside one live
            // allocation that the caller owns (`whole <= bytes`) and
            // starts on a 2 MiB, hence page, boundary, as `madvise`
            // requires. `MADV_HUGEPAGE` only sets a flag on the mapping:
            // it never changes the contents, validity or protection of
            // any byte, so no other value's memory is affected.
            unsafe { madvise(start.cast(), whole, MADV_HUGEPAGE) };
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (start, bytes);
}

/// The one slot of a [`BufferHome`]. A parked buffer carries
/// `home: None`, so dropping the slot frees it.
#[derive(Default)]
struct HomeSlot(Mutex<Option<AlignedVec>>);

impl HomeSlot {
    /// The slot holds a plain `Option`, valid at every step, so a lock
    /// poisoned by a panicking holder is still safe to use — and
    /// [`AlignedVec::drop`] must not panic.
    fn lock(&self) -> MutexGuard<'_, Option<AlignedVec>> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A one-slot parking place for an [`AlignedVec`] that is allocated,
/// dropped and wanted again at the same size — a serving engine's
/// whole-graph output, a trainer's gradient.
///
/// Retention is bounded at one buffer and ends with the home: dropping
/// the home frees what is parked, and a buffer that outlives its home
/// is freed when it drops.
#[derive(Default)]
pub struct BufferHome {
    slot: Arc<HomeSlot>,
}

impl BufferHome {
    /// An empty home.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer of `len` elements that returns here when dropped: the
    /// parked allocation when it has that length (contents are then
    /// whatever its last holder left — arbitrary but initialised),
    /// otherwise a fresh zeroed one (a parked buffer of another length
    /// is freed).
    pub fn take(&self, len: usize) -> AlignedVec {
        // A parked buffer of another length is freed before its
        // replacement is allocated.
        let parked = self.slot.lock().take().filter(|buf| buf.len == len);
        let mut buf = parked.unwrap_or_else(|| AlignedVec::zeroed(len));
        buf.home = Some(Arc::downgrade(&self.slot));
        buf
    }

    /// Length of the parked buffer, if one is parked.
    pub fn parked_len(&self) -> Option<usize> {
        self.slot.lock().as_ref().map(|buf| buf.len)
    }
}

impl Clone for BufferHome {
    /// A new, empty home: owners that are cloned (model layers) each
    /// get their own slot rather than competing for one.
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BufferHome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferHome").field("parked_len", &self.parked_len()).finish()
    }
}

impl Deref for AlignedVec {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedVec").field("len", &self.len).finish()
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_cache_line_aligned() {
        for len in [1usize, 7, 16, 1000, 4096] {
            let v = AlignedVec::zeroed(len);
            assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE, 0, "len={len}");
            assert_eq!(v.len(), len);
        }
    }

    #[test]
    fn buffers_of_2_mib_or_more_are_2_mib_aligned() {
        let words = HUGE_PAGE / 4;
        for len in [words, words + 1, 3 * words + 5] {
            let z = AlignedVec::zeroed(len);
            assert_eq!(z.as_ptr() as usize % HUGE_PAGE, 0, "zeroed len={len}");
            assert!(z.iter().all(|&v| v == 0.0), "zeroed len={len}");
            let data: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let c = AlignedVec::from_slice(&data);
            assert_eq!(c.as_ptr() as usize % HUGE_PAGE, 0, "from_slice len={len}");
            assert_eq!(c.as_slice(), data.as_slice());
        }
    }

    #[test]
    fn buffers_under_2_mib_keep_the_cache_line_layout() {
        for len in [1usize, HUGE_PAGE / 4 - 1] {
            assert_eq!(AlignedVec::layout(len).align(), CACHE_LINE, "len={len}");
            let v = AlignedVec::zeroed(len);
            assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0, "len={len}");
        }
        assert_eq!(AlignedVec::layout(HUGE_PAGE / 4).align(), HUGE_PAGE);
        assert_eq!(AlignedVec::layout(HUGE_PAGE / 4).size(), HUGE_PAGE, "the size is not padded");
    }

    #[test]
    fn a_recycled_buffer_keeps_its_alignment() {
        let home = BufferHome::new();
        let len = HUGE_PAGE / 4 * 2;
        let a = home.take(len);
        let addr = a.as_ptr();
        assert_eq!(addr as usize % HUGE_PAGE, 0);
        drop(a);
        let b = home.take(len);
        assert_eq!(b.as_ptr(), addr, "the parked allocation is handed back");
        assert_eq!(b.as_ptr() as usize % HUGE_PAGE, 0);
    }

    #[test]
    fn zeroed_is_all_zero() {
        let v = AlignedVec::zeroed(513);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_buffer_is_fine() {
        let v = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f32]);
    }

    #[test]
    fn from_slice_round_trips() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let v = AlignedVec::from_slice(&data);
        assert_eq!(v.as_slice(), data.as_slice());
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedVec::from_slice(&[1.0, 2.0, 3.0]);
        let b = a.clone();
        a[0] = 9.0;
        assert_eq!(b[0], 1.0);
    }

    #[test]
    fn fill_zero_resets() {
        let mut v = AlignedVec::from_slice(&[1.0; 32]);
        v.fill_zero();
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dropped_buffer_returns_to_its_home_and_is_taken_again() {
        let home = BufferHome::new();
        assert_eq!(home.parked_len(), None);
        let mut a = home.take(100);
        assert!(a.iter().all(|&v| v == 0.0), "a fresh buffer is zeroed");
        assert_eq!(a.as_ptr() as usize % CACHE_LINE, 0);
        a.as_mut_slice().fill(7.0);
        let addr = a.as_ptr();
        drop(a);
        assert_eq!(home.parked_len(), Some(100));
        let b = home.take(100);
        assert_eq!(home.parked_len(), None);
        assert_eq!(b.as_ptr(), addr, "the parked allocation is handed back");
        assert!(b.iter().all(|&v| v == 7.0), "recycled contents are the last holder's");
    }

    #[test]
    fn two_buffers_out_at_once_are_distinct_and_only_one_parks() {
        let home = BufferHome::new();
        let mut a = home.take(64);
        let mut b = home.take(64);
        assert_ne!(a.as_ptr(), b.as_ptr());
        a.as_mut_slice().fill(1.0);
        b.as_mut_slice().fill(2.0);
        assert!(a.iter().all(|&v| v == 1.0) && b.iter().all(|&v| v == 2.0));
        let first = a.as_ptr();
        drop(a);
        drop(b); // slot already full: freed
        assert_eq!(home.parked_len(), Some(64));
        assert_eq!(home.take(64).as_ptr(), first);
    }

    #[test]
    fn a_different_length_replaces_the_parked_buffer() {
        let home = BufferHome::new();
        drop(home.take(32));
        let b = home.take(48);
        assert_eq!(b.len(), 48);
        assert!(b.iter().all(|&v| v == 0.0));
        assert_eq!(home.parked_len(), None, "the 32-element buffer was freed, not kept");
        drop(b);
        assert_eq!(home.parked_len(), Some(48));
    }

    #[test]
    fn buffer_outliving_its_home_is_freed_normally() {
        let home = BufferHome::new();
        let mut a = home.take(16);
        drop(home);
        a[3] = 5.0; // still a valid, exclusively owned allocation
        assert_eq!(a[3], 5.0);
        drop(a); // upgrade fails: freed (Miri / ASan would flag a leak or double free)
    }

    #[test]
    fn clone_and_empty_buffers_have_no_home() {
        let home = BufferHome::new();
        let a = home.take(8);
        let c = a.clone();
        drop(c);
        assert_eq!(home.parked_len(), None, "a clone is an ordinary buffer");
        drop(a);
        assert_eq!(home.parked_len(), Some(8));
        drop(home.take(0));
        assert_eq!(home.parked_len(), None, "a zero-length take parks nothing");
        assert_eq!(home.clone().parked_len(), None, "a cloned home starts empty");
    }

    #[test]
    fn concurrent_take_and_drop_never_shares_a_buffer() {
        let home = BufferHome::new();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (home, barrier) = (&home, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for round in 0..200 {
                        let mut buf = home.take(256);
                        let tag = (t * 1000 + round) as f32;
                        buf.as_mut_slice().fill(tag);
                        assert!(buf.iter().all(|&v| v == tag), "another holder wrote this buffer");
                    }
                });
            }
        });
        assert_eq!(home.parked_len(), Some(256));
    }

    #[test]
    fn mutation_through_deref_mut() {
        let mut v = AlignedVec::zeroed(4);
        v[2] = 42.0;
        assert_eq!(v.as_slice(), &[0.0, 0.0, 42.0, 0.0]);
    }
}
