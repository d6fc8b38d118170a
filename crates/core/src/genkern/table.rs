//! The one specialized row-kernel family: a generated table of
//! monomorphized kernel shapes, one of which is fixed per
//! `(pattern, d, backend)` by [`KernelSpec::default_for`].
//!
//! Every kernel body consumes the feature dimension as a cascade of
//! register-resident panels — `z_u`'s accumulators stay in registers
//! across the neighbor loop, the paper's register blocking — and is
//! instantiated over a small set of const-generic shapes:
//!
//! * `MAIN` — panels per main-pass iteration, in units of the
//!   backend's lane width (`SimdIsa::LANES`): [`MAIN_GRID`] =
//!   {4, 6, 8, 12, 24}. This is the paper's blocking factor;
//! * `HC` — SDDMM message-buffer depth: [`HC_GRID`] = {16, 32, 64}.
//!   For the patterns with a reduction (embedding, FR, t-dist) the
//!   per-neighbor messages `h_v` are produced `HC` neighbors at a
//!   time, then the chunk's contribution is swept panel by panel, so
//!   the chunk's `y` rows stay in L1 between the two passes.
//!
//! A [`KernelSpec`] names one point of that grid. The paper's `extract`
//! tool generates every shape per dimension and tunes the blocking
//! factor offline; here the offline step is the interleaved shape table
//! printed by `cargo bench -p fusedmm-bench --bench kernel_dispatch`,
//! and its outcome is the rule in [`KernelSpec::default_for`] — a pure
//! function, so every process start, training and serving alike, runs
//! the same shape. [`candidate_specs`] is what that bench sweeps and
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
//! `MAIN` tiles the dimension or `HC` chunks the neighbor list, so all
//! specs of one backend are bit-identical to each other — and the
//! AVX-512 and AVX2 backends stay bit-identical to *each other* down
//! the masked tails (see [`crate::simd`]).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use fusedmm_sparse::dense::Dense;

#[cfg(target_arch = "aarch64")]
use crate::simd::NeonIsa;
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2Isa, Avx512Isa};
use crate::simd::{Backend, ScalarIsa, SimdIsa, VLEN};

use super::{
    EmbedMsgKernel, EmbedRowKernel, FrMsgKernel, FrRowKernel, SigmoidKind, SpanSweepKernel,
    SpmmRowKernel, TDistMsgKernel, TDistRowKernel,
};

/// Main-pass panel counts the table instantiates (units of the
/// backend's lane width). 24 only pays on 16-lane ISAs (32 zmm
/// registers); on 8-lane backends it would spill, so
/// [`candidate_specs`] filters it out there.
pub const MAIN_GRID: &[u8] = &[4, 6, 8, 12, 24];

/// SDDMM message-buffer depths the table instantiates. Patterns with
/// no reduction (SpMM) ignore the depth; their specs pin it to 32.
pub const HC_GRID: &[u16] = &[16, 32, 64];

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
    h_chunk: u16,
}

impl KernelSpec {
    /// The shape of a dimension too narrow for any main pass: its rows
    /// run only the 4/2/1-panel cleanup and the masked tail.
    pub const FALLBACK: KernelSpec = KernelSpec { main_panels: 4, h_chunk: 32 };

    /// Build a spec from a grid point; `None` when either coordinate
    /// is off the generated grid.
    pub fn new(main_panels: u8, h_chunk: u16) -> Option<KernelSpec> {
        if MAIN_GRID.contains(&main_panels) && HC_GRID.contains(&h_chunk) {
            Some(KernelSpec { main_panels, h_chunk })
        } else {
            None
        }
    }

    /// The shape a launch runs unless the caller names one
    /// (`Blocking::Specialized`) — **the only place a shape is chosen**:
    /// `Plan::prepare` (and with it `fusedmm` and every launch) and the
    /// hybrid classes all resolve through it, so one `(pattern class,
    /// d, lane width)` runs one shape on every process start.
    ///
    /// The rule: the largest main pass in {8, 6, 4} lane-widths that
    /// fits `d` (4 when none does — such rows never enter the main
    /// pass), message depth 32. `sddmm` says whether the pattern has a
    /// reduction; the measured table does not separate the chunk depths
    /// by more than the rounds' own spread, so both classes take 32,
    /// which is also the only depth [`candidate_specs`] offers SpMM.
    /// The table that fixed the rule (and the shapes it never favours)
    /// is in `docs/ARCHITECTURE.md`; re-derive it with the
    /// `kernel_dispatch` bench before changing a line here.
    pub fn default_for(sddmm: bool, d: usize, lanes: usize) -> KernelSpec {
        // Part of the key; today's rule does not branch on it (above).
        let _ = sddmm;
        let main_panels = [8u8, 6, 4].into_iter().find(|&m| m as usize * lanes <= d).unwrap_or(4);
        KernelSpec { main_panels, h_chunk: 32 }
    }

    /// Panels per main-pass iteration, in units of the backend's lane
    /// count.
    pub fn main_panels(&self) -> usize {
        self.main_panels as usize
    }

    /// SDDMM message-buffer depth (neighbors per chunk).
    pub fn h_chunk(&self) -> usize {
        self.h_chunk as usize
    }

    /// Static profiling label for this shape, e.g. `"spec-m12-h32"` —
    /// the blocking label recorded per kernel launch by
    /// [`crate::profile`].
    pub fn label(&self) -> &'static str {
        match (self.main_panels, self.h_chunk) {
            (4, 16) => "spec-m4-h16",
            (4, 32) => "spec-m4-h32",
            (4, 64) => "spec-m4-h64",
            (6, 16) => "spec-m6-h16",
            (6, 32) => "spec-m6-h32",
            (6, 64) => "spec-m6-h64",
            (8, 16) => "spec-m8-h16",
            (8, 32) => "spec-m8-h32",
            (8, 64) => "spec-m8-h64",
            (12, 16) => "spec-m12-h16",
            (12, 32) => "spec-m12-h32",
            (12, 64) => "spec-m12-h64",
            (24, 16) => "spec-m24-h16",
            (24, 32) => "spec-m24-h32",
            (24, 64) => "spec-m24-h64",
            _ => unreachable!("KernelSpec outside the generated shape grid"),
        }
    }
}

/// The shapes the `kernel_dispatch` bench sweeps for a `(d, backend)`
/// pair: main-pass sizes that fit the dimension at the backend's lane
/// width (24 panels only where 32 vector registers exist), crossed with
/// the chunk depths — all of [`HC_GRID`] for SDDMM patterns, pinned to
/// 32 where there is no reduction. Never empty: a dimension too narrow
/// for any main pass still runs its 4/2/1/masked-tail passes under the
/// fallback shape.
pub fn candidate_specs(lanes: usize, d: usize, sddmm: bool) -> Vec<KernelSpec> {
    let mut mains: Vec<u8> = MAIN_GRID
        .iter()
        .copied()
        .filter(|&m| m as usize * lanes <= d && (m <= 12 || lanes >= 16))
        .collect();
    if mains.is_empty() {
        mains.push(KernelSpec::FALLBACK.main_panels);
    }
    let hcs: &[u16] = if sddmm { HC_GRID } else { &[32] };
    let mut out = Vec::with_capacity(mains.len() * hcs.len());
    for &m in &mains {
        for &h in hcs {
            out.push(KernelSpec { main_panels: m, h_chunk: h });
        }
    }
    out
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
/// vals[i])`. The row bodies and the mega-row message bodies all call
/// it with their SOP as `f`. It is the only place that
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

/// One `HC`-deep chunk of a row's fold, starting at neighbor `start`.
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

/// A whole SDDMM row: `HC` messages at a time through
/// [`fill_messages`], each chunk folded while its `y` rows are in L1.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sddmm_row<I: SimdIsa, const MAIN: usize, const HC: usize, const NORM: bool>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    zu: &mut [f32],
    mut scores: Option<&mut [f32]>,
    f: impl Fn(f32, f32) -> f32,
) {
    let mut h = [0f32; HC];
    let mut start = 0;
    // At least one pass, so an empty row still stores its zeros.
    loop {
        let stop = (start + HC).min(cols.len());
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
fn embed_spec_row_body<I: SimdIsa, const MAIN: usize, const HC: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    zu: &mut [f32],
    scores: Option<&mut [f32]>,
    sk: &SigmoidKind,
) {
    sddmm_row::<I, MAIN, HC, false>(xu, cols, vals, ahead, y, zu, scores, |s, a| sk.eval(s, a));
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fr_spec_row_body<I: SimdIsa, const MAIN: usize, const HC: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    zu: &mut [f32],
    scores: Option<&mut [f32]>,
    alpha: f32,
) {
    sddmm_row::<I, MAIN, HC, true>(xu, cols, vals, ahead, y, zu, scores, |r, _| alpha * r.sqrt());
}

#[inline(always)]
fn tdist_spec_row_body<I: SimdIsa, const MAIN: usize, const HC: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    ahead: &[usize],
    y: &Dense,
    zu: &mut [f32],
    scores: Option<&mut [f32]>,
) {
    sddmm_row::<I, MAIN, HC, true>(xu, cols, vals, ahead, y, zu, scores, |r, _| 1.0 / (1.0 + r));
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

// --- message fill and span sweep (hybrid mega class) -----------------------
//
// A mega row runs in two phases so that threads can share it. Phase A
// (`*_msg_body`) fills the messages for a slice of the row's neighbors;
// each message is an independent reduction, so slices can be filled by
// different threads with no effect on the result. Phase B
// (`span_spec_body`) folds *every* neighbor, in row order, into one
// column span of `z_u`: threads split the row by output columns, not by
// neighbors, so the per-element fold order is fixed by the span plan —
// bit-identical to the row kernel's chunked fold for any thread count.

#[inline(always)]
fn embed_msg_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    sk: &SigmoidKind,
    h: &mut [f32],
) {
    assert_eq!(cols.len(), h.len(), "message slice length != neighbor slice length");
    let ahead = lookahead(cols, 0, cols.len());
    fill_messages::<I, false>(xu, cols, vals, ahead, y, h, None, |s, a| sk.eval(s, a));
}

#[inline(always)]
fn fr_msg_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    alpha: f32,
    h: &mut [f32],
) {
    assert_eq!(cols.len(), h.len(), "message slice length != neighbor slice length");
    let ahead = lookahead(cols, 0, cols.len());
    fill_messages::<I, true>(xu, cols, vals, ahead, y, h, None, |r, _| alpha * r.sqrt());
}

#[inline(always)]
fn tdist_msg_body<I: SimdIsa>(xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, h: &mut [f32]) {
    assert_eq!(cols.len(), h.len(), "message slice length != neighbor slice length");
    let ahead = lookahead(cols, 0, cols.len());
    fill_messages::<I, true>(xu, cols, vals, ahead, y, h, None, |r, _| 1.0 / (1.0 + r));
}

/// Folds all neighbors, in row order and starting from `+0.0`, into one
/// VLEN-aligned span of the output row (overwriting it). The span
/// *offset* must stay VLEN-aligned (it fixes each thread's fold
/// origin); the final span may end unaligned (it absorbs the sub-VLEN
/// remainder at odd `d`), finished by the masked-tail panel.
#[inline(always)]
fn span_spec_body<I: SimdIsa, const MAIN: usize>(
    cols: &[usize],
    h: &[f32],
    y: &Dense,
    z_span: &mut [f32],
    span_off: usize,
) {
    let w = z_span.len();
    let d = y.ncols();
    assert!(
        span_off.is_multiple_of(VLEN)
            && span_off + w <= d
            && (w.is_multiple_of(VLEN) || span_off + w == d),
        "span [{span_off}, {span_off}+{w}) not a VLEN-aligned slice of row width {d}"
    );
    assert!(h.len() >= cols.len(), "span kernel: fewer messages than neighbors");
    if let Some(&vmax) = cols.iter().max() {
        assert!(vmax < y.nrows(), "span kernel: column {vmax} out of range");
    }
    let yp = y.as_slice().as_ptr();
    let zp = z_span.as_mut_ptr();
    let mut p = 0;
    // SAFETY: as in `panel_spec`, with every `y` window shifted by
    // `span_off`: `[v * d + span_off + p, .. + lanes)` with `v <
    // y.nrows()` and `span_off + w <= d` asserted above and `p + lanes
    // <= w` by each pass's loop bound; `z_span` windows are `[p, p +
    // lanes)` against `z_span.len() == w`; the masked tail touches `r
    // = w - p` lanes. Unaligned `loadu`/`storeu` by contract; `I` is
    // executable because the entry was handed out after
    // `Backend::is_available()`.
    unsafe {
        macro_rules! span_pass {
            ($panels:expr) => {
                while p + $panels * I::LANES <= w {
                    let mut acc = [I::zero(); $panels];
                    for (i, &v) in cols.iter().enumerate() {
                        let hv = I::splat(h[i]);
                        let base = yp.add(v * d + span_off + p);
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
        span_pass!(MAIN);
        if MAIN > 4 {
            span_pass!(4);
        }
        span_pass!(2);
        span_pass!(1);
        if p < w {
            let r = w - p;
            let mut acc = I::zero();
            for (i, &v) in cols.iter().enumerate() {
                let hv = I::splat(h[i]);
                acc = I::fma(acc, hv, I::loadu_partial(yp.add(v * d + span_off + p), r));
            }
            I::storeu_partial(zp.add(p), acc, r);
        }
    }
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
     [$($cp:ident),*]; ($($a:ident: $t:ty),*)) => {
        #[allow(clippy::too_many_arguments)]
        fn $scalar<$(const $cp: usize),*>($($a: $t),*) {
            $body::<ScalarIsa, $($cp),*>($($a),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        fn $avx2<$(const $cp: usize),*>($($a: $t),*) {
            /// # Safety
            /// The CPU must support AVX2 and FMA.
            #[target_feature(enable = "avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn inner<$(const $cp: usize),*>($($a: $t),*) {
                $body::<Avx2Isa, $($cp),*>($($a),*)
            }
            // SAFETY: `inner`'s only requirement is a CPU with AVX2 and
            // FMA; the selectors (`select_spec!`) hand this entry out
            // only after `Backend::Avx2Fma.is_available()` returned
            // true. The body it inlines is safe code over slices.
            unsafe { inner::<$($cp),*>($($a),*) }
        }

        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        fn $avx512<$(const $cp: usize),*>($($a: $t),*) {
            // avx2+fma are enabled too: reductions finish with the ymm
            // cleanup that keeps them bit-identical to the AVX2 backend.
            /// # Safety
            /// The CPU must support AVX-512F, AVX2 and FMA.
            #[target_feature(enable = "avx512f,avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn inner<$(const $cp: usize),*>($($a: $t),*) {
                $body::<Avx512Isa, $($cp),*>($($a),*)
            }
            // SAFETY: `inner`'s only requirement is a CPU with AVX-512F,
            // AVX2 and FMA; the selectors hand this entry out only
            // after `Backend::Avx512.is_available()`, which probes all
            // three, returned true.
            unsafe { inner::<$($cp),*>($($a),*) }
        }

        #[cfg(target_arch = "aarch64")]
        #[allow(clippy::too_many_arguments)]
        fn $neon<$(const $cp: usize),*>($($a: $t),*) {
            /// # Safety
            /// The CPU must support NEON.
            #[target_feature(enable = "neon")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn inner<$(const $cp: usize),*>($($a: $t),*) {
                $body::<NeonIsa, $($cp),*>($($a),*)
            }
            // SAFETY: `inner`'s only requirement is a CPU with NEON; the
            // selectors hand this entry out only after
            // `Backend::Neon.is_available()` returned true.
            unsafe { inner::<$($cp),*>($($a),*) }
        }
    };
}

spec_entries!(embed_spec_row_body => embed_spec_scalar, embed_spec_avx2, embed_spec_avx512, embed_spec_neon;
    [MAIN, HC]; (xu: &[f32], cols: &[usize], vals: &[f32], ahead: &[usize], y: &Dense, zu: &mut [f32], scores: Option<&mut [f32]>, sk: &SigmoidKind));
spec_entries!(fr_spec_row_body => fr_spec_scalar, fr_spec_avx2, fr_spec_avx512, fr_spec_neon;
    [MAIN, HC]; (xu: &[f32], cols: &[usize], vals: &[f32], ahead: &[usize], y: &Dense, zu: &mut [f32], scores: Option<&mut [f32]>, alpha: f32));
spec_entries!(tdist_spec_row_body => tdist_spec_scalar, tdist_spec_avx2, tdist_spec_avx512, tdist_spec_neon;
    [MAIN, HC]; (xu: &[f32], cols: &[usize], vals: &[f32], ahead: &[usize], y: &Dense, zu: &mut [f32], scores: Option<&mut [f32]>));
spec_entries!(spmm_spec_row_body => spmm_spec_scalar, spmm_spec_avx2, spmm_spec_avx512, spmm_spec_neon;
    [MAIN]; (cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));

spec_entries!(embed_msg_body => embed_msg_scalar, embed_msg_avx2, embed_msg_avx512, embed_msg_neon;
    []; (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, sk: &SigmoidKind, h: &mut [f32]));
spec_entries!(fr_msg_body => fr_msg_scalar, fr_msg_avx2, fr_msg_avx512, fr_msg_neon;
    []; (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, alpha: f32, h: &mut [f32]));
spec_entries!(tdist_msg_body => tdist_msg_scalar, tdist_msg_avx2, tdist_msg_avx512, tdist_msg_neon;
    []; (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, h: &mut [f32]));

spec_entries!(span_spec_body => span_spec_scalar, span_spec_avx2, span_spec_avx512, span_spec_neon;
    [MAIN]; (cols: &[usize], h: &[f32], y: &Dense, z_span: &mut [f32], span_off: usize));

// ---------------------------------------------------------------------------
// Selectors: (backend, spec) -> compiled shape
// ---------------------------------------------------------------------------

/// Turbofish a `(MAIN, HC)` grid point into the matching compiled
/// instantiation of `$entry`.
macro_rules! shape_mh {
    ($spec:expr, $entry:ident) => {{
        let s: KernelSpec = $spec;
        match (s.main_panels, s.h_chunk) {
            (4, 16) => $entry::<4, 16>,
            (4, 32) => $entry::<4, 32>,
            (4, 64) => $entry::<4, 64>,
            (6, 16) => $entry::<6, 16>,
            (6, 32) => $entry::<6, 32>,
            (6, 64) => $entry::<6, 64>,
            (8, 16) => $entry::<8, 16>,
            (8, 32) => $entry::<8, 32>,
            (8, 64) => $entry::<8, 64>,
            (12, 16) => $entry::<12, 16>,
            (12, 32) => $entry::<12, 32>,
            (12, 64) => $entry::<12, 64>,
            (24, 16) => $entry::<24, 16>,
            (24, 32) => $entry::<24, 32>,
            (24, 64) => $entry::<24, 64>,
            _ => unreachable!("KernelSpec outside the generated shape grid"),
        }
    }};
}

/// Turbofish a `MAIN`-only grid point (span/SpMM shapes) into
/// the matching compiled instantiation of `$entry`.
macro_rules! shape_m {
    ($spec:expr, $entry:ident) => {{
        let s: KernelSpec = $spec;
        match s.main_panels {
            4 => $entry::<4>,
            6 => $entry::<6>,
            8 => $entry::<8>,
            12 => $entry::<12>,
            24 => $entry::<24>,
            _ => unreachable!("KernelSpec outside the generated shape grid"),
        }
    }};
}

/// The message-fill entries have no shape: pass the one instantiation
/// through.
macro_rules! shape_none {
    ($spec:expr, $entry:ident) => {{
        let () = $spec;
        $entry
    }};
}

macro_rules! select_spec {
    ($b:expr, $spec:expr, $shape:ident => $scalar:ident, $avx2:ident, $avx512:ident, $neon:ident) => {{
        let b = $b;
        assert!(b.is_available(), "backend {b} not available on this CPU");
        match b {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => $shape!($spec, $avx512),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2Fma => $shape!($spec, $avx2),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => $shape!($spec, $neon),
            _ => $shape!($spec, $scalar),
        }
    }};
}

/// The shaped embedding row kernel compiled for `(b, spec)`. Accepts
/// any `d ≥ 1` — odd dimensions end in the fused masked-tail panel.
///
/// # Panics
/// Panics when `b` is not available on this CPU.
pub fn embed_spec_kernel(b: Backend, spec: KernelSpec) -> EmbedRowKernel {
    select_spec!(b, spec, shape_mh => embed_spec_scalar, embed_spec_avx2, embed_spec_avx512, embed_spec_neon)
}

/// The shaped FR row kernel compiled for `(b, spec)` (see
/// [`embed_spec_kernel`] for the contract).
pub fn fr_spec_kernel(b: Backend, spec: KernelSpec) -> FrRowKernel {
    select_spec!(b, spec, shape_mh => fr_spec_scalar, fr_spec_avx2, fr_spec_avx512, fr_spec_neon)
}

/// The shaped t-distribution row kernel compiled for `(b, spec)` (see
/// [`embed_spec_kernel`] for the contract).
pub fn tdist_spec_kernel(b: Backend, spec: KernelSpec) -> TDistRowKernel {
    select_spec!(b, spec, shape_mh => tdist_spec_scalar, tdist_spec_avx2, tdist_spec_avx512, tdist_spec_neon)
}

/// The shaped SpMM row kernel compiled for `(b, spec)`; only the
/// main-pass shape applies (no SDDMM reduction, no message buffer).
pub fn spmm_spec_kernel(b: Backend, spec: KernelSpec) -> SpmmRowKernel {
    select_spec!(b, spec, shape_m => spmm_spec_scalar, spmm_spec_avx2, spmm_spec_avx512, spmm_spec_neon)
}

/// The mega-row embedding message-fill kernel compiled for `b`
/// (phase A of the split-mega-row pass; each neighbor slice is an
/// independent fill).
pub fn embed_msg_kernel(b: Backend) -> EmbedMsgKernel {
    select_spec!(b, (), shape_none => embed_msg_scalar, embed_msg_avx2, embed_msg_avx512, embed_msg_neon)
}

/// The mega-row FR message-fill kernel compiled for `b`.
pub fn fr_msg_kernel(b: Backend) -> FrMsgKernel {
    select_spec!(b, (), shape_none => fr_msg_scalar, fr_msg_avx2, fr_msg_avx512, fr_msg_neon)
}

/// The mega-row t-distribution message-fill kernel compiled for `b`.
pub fn tdist_msg_kernel(b: Backend) -> TDistMsgKernel {
    select_spec!(b, (), shape_none => tdist_msg_scalar, tdist_msg_avx2, tdist_msg_avx512, tdist_msg_neon)
}

/// The shaped mega-row column-span sweep compiled for `(b, spec)` —
/// hybrid phase B (pattern-independent: the messages were already
/// computed). The final span may end unaligned at odd `d`.
pub fn span_spec_kernel(b: Backend, spec: KernelSpec) -> SpanSweepKernel {
    select_spec!(b, spec, shape_m => span_spec_scalar, span_spec_avx2, span_spec_avx512, span_spec_neon)
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
    fn grid_membership_is_enforced() {
        assert!(KernelSpec::new(12, 32).is_some());
        assert!(KernelSpec::new(24, 16).is_some());
        assert!(KernelSpec::new(5, 32).is_none());
        assert!(KernelSpec::new(12, 48).is_none());
        assert_eq!(KernelSpec::FALLBACK.label(), "spec-m4-h32");
    }

    #[test]
    fn labels_are_unique_per_grid_point() {
        let mut seen = std::collections::HashSet::new();
        for &m in MAIN_GRID {
            for &h in HC_GRID {
                assert!(seen.insert(KernelSpec::new(m, h).unwrap().label()));
            }
        }
        assert_eq!(seen.len(), MAIN_GRID.len() * HC_GRID.len());
    }

    #[test]
    fn candidates_respect_lane_width_and_dim() {
        // 8-lane backend at d=96: 24-panel (192-lane) shapes excluded.
        let c8 = candidate_specs(8, 96, true);
        assert!(c8.iter().all(|s| s.main_panels() * 8 <= 96 && s.main_panels() <= 12));
        assert!(c8.iter().any(|s| s.main_panels() == 12));
        // 16-lane backend at d=384: the 24-panel sweep is in.
        let c16 = candidate_specs(16, 384, true);
        assert!(c16.iter().any(|s| s.main_panels() == 24));
        // Narrow dims still yield the fallback shape.
        let c7 = candidate_specs(16, 7, true);
        assert!(!c7.is_empty());
        assert!(c7.iter().all(|s| s.main_panels() == 4));
        // No reduction -> chunk depth pinned.
        let spmm = candidate_specs(8, 96, false);
        assert!(spmm.iter().all(|s| s.h_chunk() == 32));
    }

    #[test]
    fn the_default_is_the_largest_fitting_main_pass_up_to_eight() {
        for (lanes, d, main) in [
            (8, 7, 4),
            (8, 32, 4),
            (8, 48, 6),
            (8, 64, 8),
            (8, 100, 8),
            (8, 384, 8),
            (16, 8, 4),
            (16, 64, 4),
            (16, 96, 6),
            (16, 100, 6),
            (16, 128, 8),
            (16, 384, 8),
        ] {
            for sddmm in [false, true] {
                let s = KernelSpec::default_for(sddmm, d, lanes);
                assert_eq!((s.main_panels(), s.h_chunk()), (main, 32), "lanes={lanes} d={d}");
            }
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
        // chunks at every HC.
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
                for spec in candidate_specs(b.lanes(), d, true) {
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
                for spec in candidate_specs(b.lanes(), d, true) {
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
        // chunks at every HC, so first-chunk overwrite and later-chunk
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
                for spec in candidate_specs(b.lanes(), d, true) {
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

                    let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
                    span_spec_kernel(b, spec)(cols, vals, &y, &mut clean[8..32], 8);
                    span_spec_kernel(b, spec)(cols, vals, &y, &mut dirty[8..32], 8);
                    assert_eq!(bits(&clean[8..32]), bits(&dirty[8..32]), "span {b} d={d}");
                    assert!(
                        dirty[..8].iter().chain(&dirty[32..]).all(|v| v.is_nan()),
                        "span stays in span"
                    );
                }
            }
        }
    }

    #[test]
    fn scores_are_the_reductions_and_the_sink_cannot_move_the_row() {
        // Degree 70 spans several chunks at every HC, so the score
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
                for spec in candidate_specs(b.lanes(), d, true) {
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
                    let spec = KernelSpec::default_for(true, d, b.lanes());
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

    #[test]
    fn msg_fill_plus_span_sweep_bit_identical_to_the_row_kernel() {
        // A heavy row (degree > every HC exercises the row kernel's
        // chunked fold) computed as mega phases A + B must match the
        // row kernel bit for bit, for any span split. At odd d the last
        // span absorbs the sub-VLEN remainder.
        let n = 90;
        let a = chain(n, 80);
        for d in [48usize, 96, 100] {
            let x = feats(n, d, 0.3);
            let y = feats(n, d, 0.7);
            let (cols, vals) = a.row(7);
            let aligned = d / VLEN * VLEN;
            let mut splits = vec![vec![d], vec![aligned / 2, d - aligned / 2]];
            splits.push(
                (0..d / VLEN)
                    .map(|t| if t + 1 == d / VLEN { d - t * VLEN } else { VLEN })
                    .collect(),
            );
            for b in available() {
                let spec = KernelSpec::default_for(true, d, b.lanes());
                // The labelled SOP reads the edge value in phase A, so
                // the value slices must split with the column slices.
                for sk in [SigmoidKind::Exact, SigmoidKind::ExactMinusEdge] {
                    let mut z_row = vec![0f32; d];
                    embed_spec_kernel(b, spec)(
                        x.row(7),
                        cols,
                        vals,
                        la(cols),
                        &y,
                        &mut z_row,
                        None,
                        &sk,
                    );
                    // Phase A: messages filled in two independent slices.
                    let mut h = vec![0f32; cols.len()];
                    let split = cols.len() / 3;
                    let (h0, h1) = h.split_at_mut(split);
                    embed_msg_kernel(b)(x.row(7), &cols[..split], &vals[..split], &y, &sk, h0);
                    embed_msg_kernel(b)(x.row(7), &cols[split..], &vals[split..], &y, &sk, h1);
                    // Phase B: every VLEN-aligned span split must agree.
                    for spans in &splits {
                        let mut z = vec![0f32; d];
                        let mut off = 0;
                        for &w in spans {
                            span_spec_kernel(b, spec)(cols, &h, &y, &mut z[off..off + w], off);
                            off += w;
                        }
                        assert_eq!(z, z_row, "embed mega {b} d={d} {sk:?} {spans:?}");
                    }
                }
                let mut h = vec![0f32; cols.len()];
                let mut z_row = vec![0f32; d];
                let mut z = vec![0f32; d];
                fr_spec_kernel(b, spec)(x.row(7), cols, vals, la(cols), &y, &mut z_row, None, 0.6);
                fr_msg_kernel(b)(x.row(7), cols, vals, &y, 0.6, &mut h);
                span_spec_kernel(b, spec)(cols, &h, &y, &mut z, 0);
                assert_eq!(z, z_row, "fr mega {b} d={d}");
                tdist_spec_kernel(b, spec)(x.row(7), cols, vals, la(cols), &y, &mut z_row, None);
                tdist_msg_kernel(b)(x.row(7), cols, vals, &y, &mut h);
                span_spec_kernel(b, spec)(cols, &h, &y, &mut z, 0);
                assert_eq!(z, z_row, "tdist mega {b} d={d}");
                // SpMM: the values are the messages.
                spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z_row);
                let (lo, hi) = z.split_at_mut(aligned / 2);
                span_spec_kernel(b, spec)(cols, vals, &y, lo, 0);
                span_spec_kernel(b, spec)(cols, vals, &y, hi, aligned / 2);
                assert_eq!(z, z_row, "spmm mega {b} d={d}");
            }
        }
    }
}
