//! The one specialized row-kernel family: a generated table of
//! monomorphized kernel shapes, one of which is fixed per `(d,
//! backend)` by [`KernelSpec::default_for`].
//!
//! Every kernel body consumes the feature dimension as a cascade of
//! register-resident panels — `z_u`'s accumulators stay in registers
//! across the neighbor loop, the paper's register blocking — and is
//! instantiated once per main-pass size `MAIN`, in panels of the
//! backend's lane width (`SimdIsa::LANES`): [`MAIN_GRID`] = {4, 6, 8}.
//! `MAIN` is the paper's blocking factor. For the patterns with a
//! reduction (embedding, FR, t-dist) the per-neighbor messages `h_v`
//! are produced `H_CHUNK` (= 32) neighbors at a time, then the chunk's
//! contribution is swept panel by panel, so the chunk's `y` rows stay
//! in L1 between the two passes.
//!
//! A [`KernelSpec`] names one point of that grid, and the grid is
//! exactly the set of shapes the rule can return. The paper's `extract`
//! tool generates every shape per dimension and tunes the blocking
//! factor offline; here the offline step is the interleaved shape table
//! printed by `cargo bench -p fusedmm-bench --bench kernel_dispatch`,
//! and its outcome is the rule in [`KernelSpec::default_for`] — a pure
//! function, so every process start, training and serving alike, runs
//! the same shape. Shapes the rule never picks (main passes of 12 and
//! 24 panels, chunk depths 16 and 64) beat it by more than the rounds'
//! spread in no cell that a second pass reproduced, so they are not
//! compiled (`docs/ARCHITECTURE.md`, "The kernel table").
//! [`candidate_specs`] is what that bench sweeps and
//! `Blocking::Specialized` is the explicit override.
//!
//! The kernels accept **any** `d ≥ 1`: the cascade ends in one
//! mask-predicated panel (`SimdIsa::loadu_partial` /
//! `SimdIsa::storeu_partial`) that covers the final sub-register
//! remainder fused, so odd dimensions get register-blocked panels too.
//!
//! Every row kernel **owns its output row**: the fold starts from
//! `+0.0` in registers (a row's first chunk overwrites, only later
//! chunks of a long row reload the partial sum they resume), an empty
//! row stores zeros, and nothing `z_u` held on entry is read — which is
//! what lets callers hand in a recycled, un-cleared output.
//!
//! Shape choices never change results: for every output element the
//! fold over neighbors runs in row-storage order regardless of how
//! `MAIN` tiles the dimension or how the neighbor list is chunked, so
//! all specs of one backend are bit-identical to each other — and the
//! AVX-512 and AVX2 backends stay bit-identical to *each other* down
//! the masked tails (see [`crate::simd`]).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use fusedmm_sparse::dense::Dense;

#[cfg(target_arch = "aarch64")]
use crate::simd::NeonIsa;
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2Isa, Avx512Isa};
use crate::simd::{Backend, ScalarIsa, SimdIsa, VLEN};

use super::{EmbedRowKernel, FrRowKernel, SigmoidKind, SpmmRowKernel, TDistRowKernel};

/// Main-pass panel counts the table instantiates (units of the
/// backend's lane width): exactly the sizes [`KernelSpec::default_for`]
/// returns somewhere (`tests/properties.rs` checks both directions).
pub const MAIN_GRID: &[u8] = &[4, 6, 8];

/// SDDMM message-buffer depth: neighbors whose messages a row kernel
/// fills before it sweeps their `y` rows into `z_u`. Patterns with no
/// reduction (SpMM) have no message buffer.
const H_CHUNK: usize = 32;

/// How many positions ahead in the CSR column stream the message fill
/// asks for a neighbor row ([`lookahead`], `fill_messages`). The fill
/// is latency-bound — one dependent miss per edge into a `y` far larger
/// than the cache — and the requests overlap that miss with the
/// previous edges' arithmetic. Fixed from the interleaved table the
/// `kernel_dispatch` bench prints (section "lookahead"; numbers in
/// `docs/ARCHITECTURE.md`, "Look-ahead"): at d ≥ 100 distances 4, 6 and
/// 8 are within the rounds' spread of each other and 0.70–0.83× of no
/// look-ahead; narrower rows (d = 32) keep gaining up to 8. A constant,
/// not a setting — re-derive it with that bench before changing it.
pub const LOOKAHEAD: usize = 6;

/// One point of the specialization grid: the shape of a monomorphized
/// kernel. Only grid points can be constructed ([`KernelSpec::new`]),
/// so a spec always maps to a compiled instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    main_panels: u8,
}

impl KernelSpec {
    /// The shape of a dimension too narrow for any main pass: its rows
    /// run only the 4/2/1-panel cleanup and the masked tail.
    pub const FALLBACK: KernelSpec = KernelSpec { main_panels: 4 };

    /// Build a spec from a grid point; `None` off [`MAIN_GRID`].
    pub fn new(main_panels: u8) -> Option<KernelSpec> {
        MAIN_GRID.contains(&main_panels).then_some(KernelSpec { main_panels })
    }

    /// The shape a launch runs on `backend` at dimension `d` unless the
    /// caller names one (`Blocking::Specialized`) — **the only place a
    /// shape is chosen**: `Plan::prepare` (and with it `fusedmm` and
    /// every launch) resolves through it, so one `(d, backend)` runs one
    /// shape, whatever the pattern, on every process start.
    ///
    /// The rule: the largest main pass in {8, 6, 4} lane-widths that
    /// fits `d` (4 when none does — such rows never enter the main
    /// pass), at the lane width of the entries that run the row
    /// (`entry_backend`: 8 lanes for `d ≤ 8` on AVX-512). The table that
    /// fixed the rule is in `docs/ARCHITECTURE.md`; re-derive it with
    /// the `kernel_dispatch` bench before changing a line here.
    pub fn default_for(d: usize, backend: Backend) -> KernelSpec {
        let lanes = entry_backend(backend, d).lanes();
        let main_panels = [8u8, 6, 4].into_iter().find(|&m| m as usize * lanes <= d).unwrap_or(4);
        KernelSpec { main_panels }
    }

    /// Panels per main-pass iteration, in units of the backend's lane
    /// count.
    pub fn main_panels(&self) -> usize {
        self.main_panels as usize
    }

    /// Static profiling label for this shape, e.g. `"spec-m8"` — the
    /// blocking label recorded per kernel launch by [`crate::profile`].
    pub fn label(&self) -> &'static str {
        match self.main_panels {
            4 => "spec-m4",
            6 => "spec-m6",
            8 => "spec-m8",
            _ => unreachable!("KernelSpec outside the generated shape grid"),
        }
    }
}

/// The shapes the `kernel_dispatch` bench sweeps for a `(d, lane
/// width)` pair: the main-pass sizes that fit the dimension. Never
/// empty: a dimension too narrow for any main pass still runs its
/// 4/2/1/masked-tail passes under the fallback shape.
pub fn candidate_specs(lanes: usize, d: usize) -> Vec<KernelSpec> {
    let fits: Vec<KernelSpec> = MAIN_GRID
        .iter()
        .filter(|&&m| m as usize * lanes <= d)
        .map(|&main_panels| KernelSpec { main_panels })
        .collect();
    if fits.is_empty() {
        vec![KernelSpec::FALLBACK]
    } else {
        fits
    }
}

/// The backend whose compiled entries run rows of width `d` when the
/// process's backend is `b`. Identity except for one measured cell: on
/// the 16-lane backend a row of `d ≤ 8` is a single half-empty masked
/// zmm panel, and the same body's 8-lane instantiation runs it up to
/// 1.9× faster and never slower (`kernel_dispatch` bench, "narrow
/// rows"; numbers in `docs/ARCHITECTURE.md`). AVX2 is available
/// whenever AVX-512 is ([`Backend::is_available`] requires it) and the
/// two are bit-identical on every kernel path, so this is a selection
/// on `d` inside the one family that cannot change a result.
pub(crate) fn entry_backend(b: Backend, d: usize) -> Backend {
    if b == Backend::Avx512 && d <= VLEN {
        Backend::Avx2Fma
    } else {
        b
    }
}

// ---------------------------------------------------------------------------
// ISA-generic shaped bodies
// ---------------------------------------------------------------------------

/// The shaped panel cascade: `MAIN` panels per main-pass iteration,
/// then 4/2/1-panel cleanup passes, then one mask-predicated panel for
/// the sub-register remainder. Accepts any `d ≥ 1` — the masked tail
/// is what admits odd dimensions. Per output element the fold order
/// over `cols` is identical for every `MAIN`: shape is a pure
/// performance choice.
/// `LOAD_Z = false` starts the fold from `+0.0` and overwrites `zu`
/// (how every row begins; an empty `cols` stores zeros); `true` resumes
/// the partial sum a row's earlier chunks stored.
#[inline(always)]
fn panel_spec<I: SimdIsa, const MAIN: usize, const LOAD_Z: bool>(
    cols: &[usize],
    h: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    let d = zu.len();
    assert_eq!(y.ncols(), d, "spec kernel: y width {} != output width {d}", y.ncols());
    assert!(h.len() >= cols.len(), "spec kernel: fewer messages than neighbors");
    if let Some(&vmax) = cols.iter().max() {
        assert!(vmax < y.nrows(), "spec kernel: column {vmax} out of range");
    }
    let yp = y.as_slice().as_ptr();
    let zp = zu.as_mut_ptr();
    let mut p = 0;
    // SAFETY: length — every `y` window is `[v * d + p, v * d + p +
    // lanes)` with `v < y.nrows()` (asserted above), `y.ncols() == d`
    // (asserted above) and `p + lanes <= d` by each pass's loop bound,
    // so it lies inside `y`'s `nrows * d` backing slice; every `zu`
    // window is `[p, p + lanes)` with the same bound against `zu.len()
    // == d`. The masked tail touches only `r = d - p` lanes of either.
    // Alignment — `loadu`/`storeu` and their partial forms are
    // unaligned by contract (`SimdIsa`). ISA — `I`'s instructions only
    // execute here because the body is inlined into an entry the
    // selectors hand out after `Backend::is_available()`. `h[i]` is a
    // checked index.
    unsafe {
        macro_rules! spec_pass {
            ($panels:expr) => {
                while p + $panels * I::LANES <= d {
                    let mut acc = [I::zero(); $panels];
                    if LOAD_Z {
                        for (q, a) in acc.iter_mut().enumerate() {
                            *a = I::loadu(zp.add(p + q * I::LANES));
                        }
                    }
                    for (i, &v) in cols.iter().enumerate() {
                        let hv = I::splat(h[i]);
                        let base = yp.add(v * d + p);
                        for (q, a) in acc.iter_mut().enumerate() {
                            *a = I::fma(*a, hv, I::loadu(base.add(q * I::LANES)));
                        }
                    }
                    for (q, a) in acc.iter().enumerate() {
                        I::storeu(zp.add(p + q * I::LANES), *a);
                    }
                    p += $panels * I::LANES;
                }
            };
        }
        spec_pass!(MAIN);
        if MAIN > 4 {
            spec_pass!(4);
        }
        spec_pass!(2);
        spec_pass!(1);
        if p < d {
            let r = d - p;
            let mut acc = if LOAD_Z { I::loadu_partial(zp.add(p), r) } else { I::zero() };
            for (i, &v) in cols.iter().enumerate() {
                let hv = I::splat(h[i]);
                acc = I::fma(acc, hv, I::loadu_partial(yp.add(v * d + p), r));
            }
            I::storeu_partial(zp.add(p), acc, r);
        }
    }
}

// --- the one message-fill loop ----------------------------------------------

/// Cache lines are 64 bytes on every backend this crate targets.
const LINE_F32S: usize = 16;

/// The SDDMM half of every pattern with a reduction, written once:
/// for each neighbor `v = cols[i]`, reduce `r = x_u · y_v` (or
/// `‖x_u − y_v‖²` when `NORM`) and store the message `h[i] = f(r,
/// vals[i])`. The three SDDMM row bodies call it with their SOP as
/// `f`. It is the only place that
///
/// * **looks ahead**: while edge `i` is reduced, every cache line of
///   `y.row(ahead[i])` is requested — `ahead[i]` being the column id
///   [`LOOKAHEAD`] positions after `cols[i]` in the CSR column stream
///   (see [`lookahead`]), so the stream runs across row boundaries. An
///   `ahead` shorter than `cols` just stops asking early, and an empty
///   one turns the look-ahead off;
/// * **hands the scores back**: with `scores`, slot `i` is overwritten
///   with the ROP's scalar for edge `i` — `r` itself for a dot product,
///   `√r` (the norm) when `NORM` — and nothing the slice held is read.
///
/// Neither can move a message: a prefetch changes no value, and the
/// score is a copy of what `f` consumes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fill_messages<I: SimdIsa, const NORM: bool>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    h: &mut [f32],
    mut scores: Option<&mut [f32]>,
    f: impl Fn(f32, f32) -> f32,
) {
    assert_eq!(cols.len(), vals.len(), "one edge value per neighbor");
    assert!(h.len() >= cols.len(), "fewer message slots than neighbors");
    if let Some(s) = &scores {
        assert_eq!(s.len(), cols.len(), "one score slot per neighbor");
    }
    let d = y.ncols();
    let yp = y.as_slice().as_ptr();
    for (i, (&v, &a)) in cols.iter().zip(vals).enumerate() {
        if let Some(&c) = ahead.get(i) {
            let row = yp.wrapping_add(c.wrapping_mul(d));
            for off in (0..d).step_by(LINE_F32S) {
                // SAFETY: `prefetch` accepts any address and never
                // dereferences it (`SimdIsa::prefetch`), and the
                // pointer is formed with wrapping arithmetic, so not
                // even an out-of-range `c` is undefined behaviour; `c`
                // itself is a checked read of `ahead`. ISA — the body is
                // inlined into an entry the selectors hand out after
                // `Backend::is_available()`.
                unsafe { I::prefetch(row.wrapping_add(off)) };
            }
        }
        let r = if NORM { I::sqdist(xu, y.row(v)) } else { I::dot(xu, y.row(v)) };
        if let Some(s) = scores.as_deref_mut() {
            s[i] = if NORM { r.sqrt() } else { r };
        }
        h[i] = f(r, a);
    }
}

/// The look-ahead stream of the row stored at `colidx[start..]`:
/// element `i` is the column id [`LOOKAHEAD`] positions after the row's
/// `i`-th, and the stream stops at `end` — the end of the band for a
/// row whose successors are adjacent in storage and run next (so the
/// look-ahead crosses row boundaries), the end of the row itself for a
/// staged row whose successor is not. Clamped: never indexes past
/// `end`, and `end` must be within `colidx`.
#[inline]
pub fn lookahead(colidx: &[usize], start: usize, end: usize) -> &[usize] {
    &colidx[(start + LOOKAHEAD).min(end)..end]
}

// --- shaped row kernels (uniform path) -------------------------------------
//
// The row is overwritten, never read — a row's first chunk starts from
// `+0.0`, later chunks of a long row resume the partial sum, an empty
// row stores zeros.

/// One `H_CHUNK`-deep chunk of a row's fold, starting at neighbor `start`.
#[inline(always)]
fn spec_chunk<I: SimdIsa, const MAIN: usize>(
    start: usize,
    cols: &[usize],
    h: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    if start == 0 {
        panel_spec::<I, MAIN, false>(cols, h, y, zu)
    } else {
        panel_spec::<I, MAIN, true>(cols, h, y, zu)
    }
}

/// A whole SDDMM row: `H_CHUNK` messages at a time through
/// [`fill_messages`], each chunk folded while its `y` rows are in L1.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sddmm_row<I: SimdIsa, const MAIN: usize, const NORM: bool>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    zu: &mut [f32],
    mut scores: Option<&mut [f32]>,
    f: impl Fn(f32, f32) -> f32,
) {
    let mut h = [0f32; H_CHUNK];
    let mut start = 0;
    // At least one pass, so an empty row still stores its zeros.
    loop {
        let stop = (start + H_CHUNK).min(cols.len());
        fill_messages::<I, NORM>(
            xu,
            &cols[start..stop],
            &vals[start..stop],
            ahead.get(start..).unwrap_or(&[]),
            y,
            &mut h,
            scores.as_deref_mut().map(|s| &mut s[start..stop]),
            &f,
        );
        spec_chunk::<I, MAIN>(start, &cols[start..stop], &h, y, zu);
        start = stop;
        if start >= cols.len() {
            break;
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn embed_spec_row_body<I: SimdIsa, const MAIN: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    zu: &mut [f32],
    scores: Option<&mut [f32]>,
    sk: &SigmoidKind,
) {
    sddmm_row::<I, MAIN, false>(xu, cols, vals, ahead, y, zu, scores, |s, a| sk.eval(s, a));
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fr_spec_row_body<I: SimdIsa, const MAIN: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    zu: &mut [f32],
    scores: Option<&mut [f32]>,
    alpha: f32,
) {
    sddmm_row::<I, MAIN, true>(xu, cols, vals, ahead, y, zu, scores, |r, _| alpha * r.sqrt());
}

#[inline(always)]
fn tdist_spec_row_body<I: SimdIsa, const MAIN: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    zu: &mut [f32],
    scores: Option<&mut [f32]>,
) {
    sddmm_row::<I, MAIN, true>(xu, cols, vals, ahead, y, zu, scores, |r, _| 1.0 / (1.0 + r));
}

#[inline(always)]
fn spmm_spec_row_body<I: SimdIsa, const MAIN: usize>(
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    // No SDDMM reduction: edge weights are the messages, one sweep —
    // the whole fold, so it starts from +0.0.
    panel_spec::<I, MAIN, false>(cols, vals, y, zu);
}

// ---------------------------------------------------------------------------
// Per-backend shaped entries
// ---------------------------------------------------------------------------
//
// One monomorphization per (ISA × shape), compiled under the matching
// #[target_feature] so the whole inlined body codegens with that ISA.
// The selectors below turbofish a grid point into a plain fn pointer,
// so plans store and call exactly one compiled shape.

macro_rules! spec_entries {
    ($body:ident => $scalar:ident, $avx2:ident, $avx512:ident, $neon:ident;
     ($($a:ident: $t:ty),*)) => {
        #[allow(clippy::too_many_arguments)]
        fn $scalar<const MAIN: usize>($($a: $t),*) {
            $body::<ScalarIsa, MAIN>($($a),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        fn $avx2<const MAIN: usize>($($a: $t),*) {
            /// # Safety
            /// The CPU must support AVX2 and FMA.
            #[target_feature(enable = "avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn inner<const MAIN: usize>($($a: $t),*) {
                $body::<Avx2Isa, MAIN>($($a),*)
            }
            // SAFETY: `inner`'s only requirement is a CPU with AVX2 and
            // FMA; the selectors (`select_spec!`) hand this entry out
            // only after `Backend::Avx2Fma.is_available()` returned
            // true. The body it inlines is safe code over slices.
            unsafe { inner::<MAIN>($($a),*) }
        }

        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        fn $avx512<const MAIN: usize>($($a: $t),*) {
            // avx2+fma are enabled too: reductions finish with the ymm
            // cleanup that keeps them bit-identical to the AVX2 backend.
            /// # Safety
            /// The CPU must support AVX-512F, AVX2 and FMA.
            #[target_feature(enable = "avx512f,avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn inner<const MAIN: usize>($($a: $t),*) {
                $body::<Avx512Isa, MAIN>($($a),*)
            }
            // SAFETY: `inner`'s only requirement is a CPU with AVX-512F,
            // AVX2 and FMA; the selectors hand this entry out only
            // after `Backend::Avx512.is_available()`, which probes all
            // three, returned true.
            unsafe { inner::<MAIN>($($a),*) }
        }

        #[cfg(target_arch = "aarch64")]
        #[allow(clippy::too_many_arguments)]
        fn $neon<const MAIN: usize>($($a: $t),*) {
            /// # Safety
            /// The CPU must support NEON.
            #[target_feature(enable = "neon")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn inner<const MAIN: usize>($($a: $t),*) {
                $body::<NeonIsa, MAIN>($($a),*)
            }
            // SAFETY: `inner`'s only requirement is a CPU with NEON; the
            // selectors hand this entry out only after
            // `Backend::Neon.is_available()` returned true.
            unsafe { inner::<MAIN>($($a),*) }
        }
    };
}

spec_entries!(embed_spec_row_body => embed_spec_scalar, embed_spec_avx2, embed_spec_avx512, embed_spec_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], ahead: &[usize], y: &Dense, zu: &mut [f32], scores: Option<&mut [f32]>, sk: &SigmoidKind));
spec_entries!(fr_spec_row_body => fr_spec_scalar, fr_spec_avx2, fr_spec_avx512, fr_spec_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], ahead: &[usize], y: &Dense, zu: &mut [f32], scores: Option<&mut [f32]>, alpha: f32));
spec_entries!(tdist_spec_row_body => tdist_spec_scalar, tdist_spec_avx2, tdist_spec_avx512, tdist_spec_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], ahead: &[usize], y: &Dense, zu: &mut [f32], scores: Option<&mut [f32]>));
spec_entries!(spmm_spec_row_body => spmm_spec_scalar, spmm_spec_avx2, spmm_spec_avx512, spmm_spec_neon;
    (cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));

// ---------------------------------------------------------------------------
// Selectors: (backend, spec) -> compiled shape
// ---------------------------------------------------------------------------

/// Turbofish a grid point into the matching compiled instantiation of
/// `$entry`.
macro_rules! shape_m {
    ($spec:expr, $entry:ident) => {{
        let s: KernelSpec = $spec;
        match s.main_panels {
            4 => $entry::<4>,
            6 => $entry::<6>,
            8 => $entry::<8>,
            _ => unreachable!("KernelSpec outside the generated shape grid"),
        }
    }};
}

macro_rules! select_spec {
    ($b:expr, $spec:expr => $scalar:ident, $avx2:ident, $avx512:ident, $neon:ident) => {{
        let b = $b;
        assert!(b.is_available(), "backend {b} not available on this CPU");
        match b {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => shape_m!($spec, $avx512),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2Fma => shape_m!($spec, $avx2),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => shape_m!($spec, $neon),
            _ => shape_m!($spec, $scalar),
        }
    }};
}

/// The shaped embedding row kernel compiled for `(b, spec)`. Accepts
/// any `d ≥ 1` — odd dimensions end in the fused masked-tail panel.
///
/// # Panics
/// Panics when `b` is not available on this CPU.
pub fn embed_spec_kernel(b: Backend, spec: KernelSpec) -> EmbedRowKernel {
    select_spec!(b, spec => embed_spec_scalar, embed_spec_avx2, embed_spec_avx512, embed_spec_neon)
}

/// The shaped FR row kernel compiled for `(b, spec)` (see
/// [`embed_spec_kernel`] for the contract).
pub fn fr_spec_kernel(b: Backend, spec: KernelSpec) -> FrRowKernel {
    select_spec!(b, spec => fr_spec_scalar, fr_spec_avx2, fr_spec_avx512, fr_spec_neon)
}

/// The shaped t-distribution row kernel compiled for `(b, spec)` (see
/// [`embed_spec_kernel`] for the contract).
pub fn tdist_spec_kernel(b: Backend, spec: KernelSpec) -> TDistRowKernel {
    select_spec!(b, spec => tdist_spec_scalar, tdist_spec_avx2, tdist_spec_avx512, tdist_spec_neon)
}

/// The shaped SpMM row kernel compiled for `(b, spec)`: edge weights are
/// the messages (no SDDMM reduction, no message buffer).
pub fn spmm_spec_kernel(b: Backend, spec: KernelSpec) -> SpmmRowKernel {
    select_spec!(b, spec => spmm_spec_scalar, spmm_spec_avx2, spmm_spec_avx512, spmm_spec_neon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::active_backend;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use fusedmm_sparse::csr::Csr;

    fn chain(n: usize, deg: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            for k in 1..=deg {
                c.push(u, (u + k * 3) % n, 0.25 + k as f32 * 0.5);
            }
        }
        c.to_csr(Dedup::Last)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 31 + c * 7) as f32 * 0.01 + seed).sin() * 0.3)
    }

    /// A row's in-row look-ahead stream (the row stands alone).
    fn la(cols: &[usize]) -> &[usize] {
        lookahead(cols, 0, cols.len())
    }

    fn available() -> impl Iterator<Item = Backend> {
        Backend::ALL.iter().copied().filter(|b| b.is_available())
    }

    /// `z_u = Σ_v msg(x_u, y_v, a_uv) · y_v` in plain scalar loops.
    fn naive_row(
        xu: &[f32],
        cols: &[usize],
        vals: &[f32],
        y: &Dense,
        msg: impl Fn(&[f32], &[f32], f32) -> f32,
    ) -> Vec<f32> {
        let mut z = vec![0f32; xu.len()];
        for (&v, &a) in cols.iter().zip(vals) {
            let h = msg(xu, y.row(v), a);
            for (o, &yv) in z.iter_mut().zip(y.row(v)) {
                *o += h * yv;
            }
        }
        z
    }

    fn dot(x: &[f32], y: &[f32]) -> f32 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    fn sqdist(x: &[f32], y: &[f32]) -> f32 {
        x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    #[test]
    fn the_default_is_the_largest_fitting_main_pass_up_to_eight() {
        use Backend::{Avx2Fma as A8, Avx512 as A16};
        for (b, d, main) in [
            (A8, 7, 4),
            (A8, 32, 4),
            (A8, 48, 6),
            (A8, 64, 8),
            (A8, 100, 8),
            (A8, 384, 8),
            (A16, 8, 4),
            (A16, 64, 4),
            (A16, 96, 6),
            (A16, 100, 6),
            (A16, 128, 8),
            (A16, 384, 8),
        ] {
            assert_eq!(KernelSpec::default_for(d, b).main_panels(), main, "{b} d={d}");
        }
    }

    #[test]
    fn narrow_rows_on_the_widest_backend_take_the_eight_lane_entries() {
        assert_eq!(entry_backend(Backend::Avx512, 1), Backend::Avx2Fma);
        assert_eq!(entry_backend(Backend::Avx512, 8), Backend::Avx2Fma);
        assert_eq!(entry_backend(Backend::Avx512, 9), Backend::Avx512);
        for &b in &[Backend::Avx2Fma, Backend::Neon, Backend::Scalar] {
            assert_eq!(entry_backend(b, 4), b);
            assert_eq!(entry_backend(b, 128), b);
        }
        if Backend::Avx512.is_available() {
            assert!(entry_backend(Backend::Avx512, 8).is_available());
        }
    }

    #[test]
    fn every_candidate_shape_is_bit_identical_to_every_other() {
        // Shape is a pure performance choice: on one backend, every
        // candidate reproduces the fallback shape bit for bit — at
        // panel-aligned dims, at dims below the lane width and at odd
        // dims that end in the masked tail. Degree 70 spans several
        // message chunks.
        let n = 80;
        let a = chain(n, 70);
        let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for d in [7usize, 8, 48, 96, 100, 192] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let (cols, vals) = a.row(3);
            let xu = x.row(3);
            for b in available() {
                let base = KernelSpec::FALLBACK;
                let (mut e0, mut f0, mut t0, mut s0) =
                    (vec![0f32; d], vec![0f32; d], vec![0f32; d], vec![0f32; d]);
                embed_spec_kernel(b, base)(
                    xu,
                    cols,
                    vals,
                    la(cols),
                    &y,
                    &mut e0,
                    None,
                    &SigmoidKind::Exact,
                );
                fr_spec_kernel(b, base)(xu, cols, vals, la(cols), &y, &mut f0, None, 0.6);
                tdist_spec_kernel(b, base)(xu, cols, vals, la(cols), &y, &mut t0, None);
                spmm_spec_kernel(b, base)(cols, vals, &y, &mut s0);
                for spec in candidate_specs(b.lanes(), d) {
                    let mut z = vec![f32::NAN; d];
                    embed_spec_kernel(b, spec)(
                        xu,
                        cols,
                        vals,
                        la(cols),
                        &y,
                        &mut z,
                        None,
                        &SigmoidKind::Exact,
                    );
                    assert_eq!(bits(&z), bits(&e0), "embed {b} d={d} {}", spec.label());
                    fr_spec_kernel(b, spec)(xu, cols, vals, la(cols), &y, &mut z, None, 0.6);
                    assert_eq!(bits(&z), bits(&f0), "fr {b} d={d} {}", spec.label());
                    tdist_spec_kernel(b, spec)(xu, cols, vals, la(cols), &y, &mut z, None);
                    assert_eq!(bits(&z), bits(&t0), "tdist {b} d={d} {}", spec.label());
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z);
                    assert_eq!(bits(&z), bits(&s0), "spmm {b} d={d} {}", spec.label());
                }
            }
        }
    }

    #[test]
    fn spec_kernels_match_a_scalar_reference_at_any_dim() {
        // d = 1, 7, 20 and 100 end in (or consist of) the masked tail.
        let n = 40;
        let a = chain(n, 30);
        for d in [1usize, 7, 8, 20, 32, 100] {
            let x = feats(n, d, 0.4);
            let y = feats(n, d, 0.6);
            let (cols, vals) = a.row(5);
            let xu = x.row(5);
            let embed_ref =
                naive_row(xu, cols, vals, &y, |x, y, _| fusedmm_ops::sigmoid(dot(x, y)));
            let fr_ref = naive_row(xu, cols, vals, &y, |x, y, _| 0.6 * sqdist(x, y).sqrt());
            let tdist_ref = naive_row(xu, cols, vals, &y, |x, y, _| 1.0 / (1.0 + sqdist(x, y)));
            let spmm_ref = naive_row(xu, cols, vals, &y, |_, _, a| a);
            let close = |z: &[f32], r: &[f32], tol: f32, what: &str| {
                for k in 0..d {
                    assert!((z[k] - r[k]).abs() < tol, "{what} d={d} k={k}: {} vs {}", z[k], r[k]);
                }
            };
            for b in available() {
                for spec in candidate_specs(b.lanes(), d) {
                    let mut z = vec![0f32; d];
                    embed_spec_kernel(b, spec)(
                        xu,
                        cols,
                        vals,
                        la(cols),
                        &y,
                        &mut z,
                        None,
                        &SigmoidKind::Exact,
                    );
                    close(&z, &embed_ref, 1e-4, "embed");
                    // sqrt amplifies tiny sqdist differences.
                    fr_spec_kernel(b, spec)(xu, cols, vals, la(cols), &y, &mut z, None, 0.6);
                    close(&z, &fr_ref, 1e-3, "fr");
                    tdist_spec_kernel(b, spec)(xu, cols, vals, la(cols), &y, &mut z, None);
                    close(&z, &tdist_ref, 1e-4, "tdist");
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z);
                    close(&z, &spmm_ref, 1e-4, "spmm");
                }
            }
        }
    }

    #[test]
    fn lut_sigmoid_close_to_exact_in_kernel() {
        let a = chain(8, 4);
        let d = 16;
        let x = feats(8, d, 0.1);
        let y = feats(8, d, 0.2);
        let (cols, vals) = a.row(0);
        let kern = embed_spec_kernel(active_backend(), KernelSpec::FALLBACK);
        let (mut z_exact, mut z_lut) = (vec![0f32; d], vec![0f32; d]);
        kern(x.row(0), cols, vals, la(cols), &y, &mut z_exact, None, &SigmoidKind::Exact);
        let lut = SigmoidKind::Lut(std::sync::Arc::new(fusedmm_ops::SigmoidLut::default_table()));
        kern(x.row(0), cols, vals, la(cols), &y, &mut z_lut, None, &lut);
        for k in 0..d {
            assert!((z_exact[k] - z_lut[k]).abs() < 5e-3);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_spec_bit_identical_to_avx2_spec_at_odd_dims() {
        // Both x86 backends run fused masked tails with the same
        // per-element fold, so they agree exactly even where the fold
        // is masked — which is also what lets `entry_backend` hand
        // narrow rows to the 8-lane entries.
        if !(Backend::Avx512.is_available() && Backend::Avx2Fma.is_available()) {
            return;
        }
        let n = 40;
        let a = chain(n, 30);
        for d in [3usize, 7, 8, 20, 100, 385] {
            let x = feats(n, d, 0.4);
            let y = feats(n, d, 0.6);
            let (cols, vals) = a.row(5);
            let spec = KernelSpec::FALLBACK;
            let mut z2 = vec![0f32; d];
            let mut z5 = vec![0f32; d];
            let (mut s2, mut s5) = (vec![f32::NAN; cols.len()], vec![f32::NAN; cols.len()]);
            for (b, z, s) in
                [(Backend::Avx2Fma, &mut z2, &mut s2), (Backend::Avx512, &mut z5, &mut s5)]
            {
                let (sk, s) = (SigmoidKind::Exact, Some(&mut s[..]));
                embed_spec_kernel(b, spec)(x.row(5), cols, vals, la(cols), &y, z, s, &sk);
            }
            for k in 0..d {
                assert_eq!(z2[k].to_bits(), z5[k].to_bits(), "embed d={d} k={k}");
            }
            for (e, (a2, a5)) in s2.iter().zip(&s5).enumerate() {
                assert_eq!(a2.to_bits(), a5.to_bits(), "score d={d} edge {e}");
            }
        }
    }

    #[test]
    fn spec_kernels_ignore_what_the_output_row_held() {
        // d = 100 ends in the masked tail; degree 70 spans several
        // message chunks, so first-chunk overwrite and later-chunk
        // resume are both exercised. An empty row stores +0.0.
        let n = 80;
        let a = chain(n, 70);
        let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let plus_zero = |z: &[f32]| z.iter().all(|v| v.to_bits() == 0);
        for d in [48usize, 100] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let (cols, vals) = a.row(3);
            let xu = x.row(3);
            for b in available() {
                for spec in candidate_specs(b.lanes(), d) {
                    let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
                    let k = embed_spec_kernel(b, spec);
                    k(xu, cols, vals, la(cols), &y, &mut clean, None, &SigmoidKind::Exact);
                    k(xu, cols, vals, la(cols), &y, &mut dirty, None, &SigmoidKind::Exact);
                    assert_eq!(bits(&clean), bits(&dirty), "embed {b} d={d} {}", spec.label());
                    k(xu, &[], &[], la(&[]), &y, &mut dirty, None, &SigmoidKind::Exact);
                    assert!(plus_zero(&dirty), "empty embed row {b} d={d}");

                    let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut clean);
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut dirty);
                    assert_eq!(bits(&clean), bits(&dirty), "spmm {b} d={d} {}", spec.label());
                    dirty.fill(0.75);
                    spmm_spec_kernel(b, spec)(&[], &[], &y, &mut dirty);
                    assert!(plus_zero(&dirty), "empty spmm row {b} d={d}");
                    dirty.fill(-1.0);
                    fr_spec_kernel(b, spec)(xu, &[], &[], la(&[]), &y, &mut dirty, None, 0.5);
                    assert!(plus_zero(&dirty), "empty fr row {b} d={d}");
                    dirty.fill(f32::INFINITY);
                    tdist_spec_kernel(b, spec)(xu, &[], &[], la(&[]), &y, &mut dirty, None);
                    assert!(plus_zero(&dirty), "empty tdist row {b} d={d}");
                }
            }
        }
    }

    #[test]
    fn scores_are_the_reductions_and_the_sink_cannot_move_the_row() {
        // Degree 70 spans several message chunks, so the score
        // slice is cut at chunk boundaries; an empty row has no slot.
        let n = 80;
        let a = chain(n, 70);
        let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for d in [7usize, 48, 100] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let (cols, vals) = a.row(3);
            let xu = x.row(3);
            for b in available() {
                let dots: Vec<f32> =
                    cols.iter().map(|&v| crate::simd::dot_with(b, xu, y.row(v))).collect();
                let norms: Vec<f32> = cols
                    .iter()
                    .map(|&v| crate::simd::sqdist_with(b, xu, y.row(v)).sqrt())
                    .collect();
                for spec in candidate_specs(b.lanes(), d) {
                    let what = format!("{b} d={d} {}", spec.label());
                    let (mut plain, mut z) = (vec![0f32; d], vec![f32::NAN; d]);
                    let mut s = vec![f32::NAN; cols.len()];
                    let sk = SigmoidKind::ExactMinusEdge;
                    embed_spec_kernel(b, spec)(xu, cols, vals, la(cols), &y, &mut plain, None, &sk);
                    embed_spec_kernel(b, spec)(
                        xu,
                        cols,
                        vals,
                        la(cols),
                        &y,
                        &mut z,
                        Some(&mut s),
                        &sk,
                    );
                    assert_eq!(bits(&z), bits(&plain), "embed {what}");
                    assert_eq!(bits(&s), bits(&dots), "embed scores {what}");
                    s.fill(f32::NAN);
                    fr_spec_kernel(b, spec)(xu, cols, vals, la(cols), &y, &mut plain, None, 0.6);
                    fr_spec_kernel(b, spec)(
                        xu,
                        cols,
                        vals,
                        la(cols),
                        &y,
                        &mut z,
                        Some(&mut s),
                        0.6,
                    );
                    assert_eq!(bits(&z), bits(&plain), "fr {what}");
                    assert_eq!(bits(&s), bits(&norms), "fr scores {what}");
                    s.fill(f32::NAN);
                    tdist_spec_kernel(b, spec)(xu, cols, vals, la(cols), &y, &mut plain, None);
                    tdist_spec_kernel(b, spec)(xu, cols, vals, la(cols), &y, &mut z, Some(&mut s));
                    assert_eq!(bits(&z), bits(&plain), "tdist {what}");
                    assert_eq!(bits(&s), bits(&norms), "tdist scores {what}");
                    embed_spec_kernel(b, spec)(xu, &[], &[], &[], &y, &mut z, Some(&mut []), &sk);
                    assert!(z.iter().all(|v| v.to_bits() == 0), "empty scored row {what}");
                }
            }
        }
    }

    #[test]
    fn lookahead_streams_are_clamped_and_cannot_move_a_row() {
        // The stream never reaches past `end`, whatever `start` is.
        let colidx = [3usize, 1, 4, 1, 5, 9, 2, 6];
        assert_eq!(lookahead(&colidx, 0, 8), &colidx[LOOKAHEAD.min(8)..]);
        assert_eq!(lookahead(&colidx, 6, 8), &colidx[(6 + LOOKAHEAD).min(8)..]);
        assert!(lookahead(&colidx, 8, 8).is_empty());
        assert!(lookahead(&colidx, 2, 3).is_empty(), "a band that ends mid-colidx");
        assert!(lookahead(&[], 0, 0).is_empty(), "nnz == 0");

        // A one-row matrix, a matrix with fewer entries than the
        // distance, one with rows around it, and an empty one: every
        // row of each, under every clamp a launch can apply (the row's
        // own end, a band end in the middle of `colidx`, the end of the
        // matrix), leaves the bits of the kernel that never looks ahead.
        let n = 12;
        let mut one_row = Coo::new(1, n);
        (0..9).for_each(|v| one_row.push(0, v, 0.5));
        let mut few = Coo::new(3, n);
        few.push(1, 7, 1.0);
        few.push(2, 2, 0.25);
        assert!(few.entries().len() < LOOKAHEAD);
        let matrices =
            [one_row.to_csr(Dedup::Last), few.to_csr(Dedup::Last), chain(n, 5), Csr::empty(4, n)];
        let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for a in &matrices {
            let (rowptr, colidx) = (a.rowptr(), a.colidx());
            for d in [7usize, 32] {
                let x = feats(a.nrows(), d, 0.3);
                let y = feats(n, d, 0.7);
                for b in available() {
                    let spec = KernelSpec::default_for(d, b);
                    for u in 0..a.nrows() {
                        let (cols, vals) = a.row(u);
                        let mid = rowptr[u + 1].max(a.nnz() / 2);
                        let mut want = vec![f32::NAN; d];
                        tdist_spec_kernel(b, spec)(x.row(u), cols, vals, &[], &y, &mut want, None);
                        for end in [rowptr[u + 1], mid, a.nnz()] {
                            let ahead = lookahead(colidx, rowptr[u], end);
                            let mut z = vec![f32::NAN; d];
                            tdist_spec_kernel(b, spec)(
                                x.row(u),
                                cols,
                                vals,
                                ahead,
                                &y,
                                &mut z,
                                None,
                            );
                            assert_eq!(bits(&z), bits(&want), "{b} d={d} row {u} end {end}");
                        }
                    }
                }
            }
        }
    }
}
