//! Plan-time kernel specialization: a generated dispatch table of
//! monomorphized kernel shapes, selected per `(pattern, d, backend,
//! degree-class)` when a plan is built.
//!
//! The strip-mined kernels in [`super::strip`] consume the feature
//! dimension with one fixed panel cascade (12/8/6/4/2/1 panels per
//! pass, plus a 24-panel lead on AVX-512) and one fixed message-chunk
//! depth ([`H_CHUNK`]). That single shape is a good average but not
//! the best shape *per dimension*: d = 96 on AVX-512 prefers a 6-panel
//! zmm sweep over the generic cascade's first matching pass, odd
//! dimensions are excluded from the strip family entirely, and the
//! best SDDMM chunk depth shifts with how much of `y` one chunk drags
//! through L1. This module is the finer grid: every kernel body is
//! instantiated over a small set of const-generic shapes —
//!
//! * `MAIN` — panels per main-pass iteration, in units of the
//!   backend's lane width (`SimdIsa::LANES`): [`MAIN_GRID`] =
//!   {4, 6, 8, 12, 24};
//! * `HC` — SDDMM message-buffer depth: [`HC_GRID`] = {16, 32, 64};
//!
//! — and a [`KernelSpec`] names one point of that grid. At plan build
//! the autotuner probes the candidate shapes for the plan's
//! `(pattern, d, backend)` (see [`candidate_specs`]) and the winning
//! spec is stored in the plan, so steady-state dispatch is one
//! fn-pointer call. This is the same "generate every shape, then
//! select one" structure the paper's `extract` tool applies per
//! dimension — moved from code-generation time to plan time.
//!
//! Unlike the strip family, the spec kernels accept **any** `d ≥ 1`:
//! the cascade ends in one mask-predicated panel
//! (`SimdIsa::loadu_partial` / `SimdIsa::storeu_partial`) that
//! covers the final sub-register remainder fused, so odd dimensions
//! get register-blocked panels too instead of falling back to the
//! unfused dyn path.
//!
//! Shape choices never change results: for every output element the
//! fold over neighbors runs in row-storage order regardless of how
//! `MAIN` tiles the dimension or `HC` chunks the neighbor list, so all
//! specs of one backend are bit-identical to each other and to the
//! strip kernels (where those apply) — and the AVX-512 and AVX2
//! backends stay bit-identical to *each other* down the masked tails
//! (see [`crate::simd`]).

use fusedmm_sparse::dense::Dense;

#[cfg(target_arch = "aarch64")]
use crate::simd::NeonIsa;
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2Isa, Avx512Isa};
use crate::simd::{Backend, ScalarIsa, SimdIsa, VLEN};

use super::strip::H_CHUNK;
use super::{
    EmbedBatchKernel, EmbedRowKernel, FrBatchKernel, FrRowKernel, GatheredRow, SigmoidKind,
    SpanSweepKernel, SpmmBatchKernel, SpmmRowKernel, TDistBatchKernel, TDistRowKernel,
};

/// Main-pass panel counts the table instantiates (units of the
/// backend's lane width). 24 only pays on 16-lane ISAs (32 zmm
/// registers); on 8-lane backends it would spill, so
/// [`candidate_specs`] filters it out there.
pub const MAIN_GRID: &[u8] = &[4, 6, 8, 12, 24];

/// SDDMM message-buffer depths the table instantiates. Patterns with
/// no reduction (SpMM) ignore the depth; their specs pin it to 32.
pub const HC_GRID: &[u16] = &[16, 32, 64];

/// One point of the specialization grid: the shape of a monomorphized
/// kernel. Only grid points can be constructed ([`KernelSpec::new`]),
/// so a spec always maps to a compiled instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    main_panels: u8,
    h_chunk: u16,
}

impl KernelSpec {
    /// The shape used when nothing better is known: a 4-panel main
    /// pass and the strip family's chunk depth.
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

/// The shapes worth probing for a `(d, backend)` pair: main-pass sizes
/// that fit the dimension at the backend's lane width (24 panels only
/// where 32 vector registers exist), crossed with the chunk depths —
/// all of [`HC_GRID`] for SDDMM patterns, pinned to 32 where there is
/// no reduction. Never empty: a dimension too narrow for any main pass
/// still runs its 4/2/1/masked-tail passes under the fallback shape.
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

// ---------------------------------------------------------------------------
// ISA-generic shaped bodies
// ---------------------------------------------------------------------------

/// The shaped panel cascade: `MAIN` panels per main-pass iteration,
/// then 4/2/1-panel cleanup passes, then one mask-predicated panel for
/// the sub-register remainder. Accepts any `d ≥ 1` — the masked tail
/// is what admits odd dimensions. Per output element the fold order
/// over `cols` is identical for every `MAIN`, and identical to
/// [`super::strip`]'s cascade: shape is a pure performance choice.
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
    // Safety: every pointer offset below is `v * d + p + lanes` with
    // `v < y.nrows()` (checked above) and `p + lanes <= d` (the masked
    // tail reads/writes only `d - p` lanes), hence in bounds of `y`'s
    // backing slice; z offsets stay below `zu.len()`; `h[i]` is a
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

/// Every gathered row must fit the batch kernels' shared message
/// buffer on its own (the bodies fill and fold one row at a time) —
/// same contract as the strip batch kernels.
#[inline(always)]
fn assert_spec_batch_fits(rows: &[GatheredRow<'_>]) {
    for r in rows {
        assert!(
            r.cols.len() <= H_CHUNK,
            "gathered row stages {} neighbors, message buffer holds {H_CHUNK}",
            r.cols.len()
        );
    }
}

#[inline(always)]
fn band_row_slice(band: &mut [f32], band_row: usize, d: usize) -> &mut [f32] {
    &mut band[band_row * d..(band_row + 1) * d]
}

// --- shaped row kernels (uniform path) -------------------------------------
//
// Same output contract as the strip family: the row is overwritten,
// never read — a row's first chunk starts from `+0.0`, later chunks of
// a long row resume the partial sum, an empty row stores zeros.

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

#[inline(always)]
fn embed_spec_row_body<I: SimdIsa, const MAIN: usize, const HC: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    sk: &SigmoidKind,
) {
    let mut h = [0f32; HC];
    let mut start = 0;
    // At least one pass, so an empty row still stores its zeros.
    loop {
        let chunk = &cols[start..(start + HC).min(cols.len())];
        let labels = &vals[start..start + chunk.len()];
        for (hi, (&v, &a)) in h.iter_mut().zip(chunk.iter().zip(labels)) {
            *hi = sk.eval(I::dot(xu, y.row(v)), a);
        }
        spec_chunk::<I, MAIN>(start, chunk, &h, y, zu);
        start += chunk.len();
        if start >= cols.len() {
            break;
        }
    }
}

#[inline(always)]
fn fr_spec_row_body<I: SimdIsa, const MAIN: usize, const HC: usize>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    alpha: f32,
) {
    let mut h = [0f32; HC];
    let mut start = 0;
    loop {
        let chunk = &cols[start..(start + HC).min(cols.len())];
        for (i, &v) in chunk.iter().enumerate() {
            h[i] = alpha * I::sqdist(xu, y.row(v)).sqrt();
        }
        spec_chunk::<I, MAIN>(start, chunk, &h, y, zu);
        start += chunk.len();
        if start >= cols.len() {
            break;
        }
    }
}

#[inline(always)]
fn tdist_spec_row_body<I: SimdIsa, const MAIN: usize, const HC: usize>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    let mut h = [0f32; HC];
    let mut start = 0;
    loop {
        let chunk = &cols[start..(start + HC).min(cols.len())];
        for (i, &v) in chunk.iter().enumerate() {
            h[i] = 1.0 / (1.0 + I::sqdist(xu, y.row(v)));
        }
        spec_chunk::<I, MAIN>(start, chunk, &h, y, zu);
        start += chunk.len();
        if start >= cols.len() {
            break;
        }
    }
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

// --- shaped batch kernels (hybrid short class) -----------------------------
//
// Shaped only in MAIN: the batch path's message buffer stays at the
// fixed H_CHUNK depth because the hybrid gatherer sizes its staging
// batches against that constant (its gather-flush contract).

#[inline(always)]
fn embed_spec_batch_body<I: SimdIsa, const MAIN: usize>(
    rows: &[GatheredRow<'_>],
    y: &Dense,
    band: &mut [f32],
    sk: &SigmoidKind,
) {
    let d = y.ncols();
    assert_spec_batch_fits(rows);
    let mut h = [0f32; H_CHUNK];
    for row in rows {
        assert_eq!(row.cols.len(), row.vals.len(), "one edge value per neighbor");
        for (hi, (&v, &a)) in h.iter_mut().zip(row.cols.iter().zip(row.vals)) {
            *hi = sk.eval(I::dot(row.xu, y.row(v)), a);
        }
        panel_spec::<I, MAIN, false>(
            row.cols,
            &h[..row.cols.len()],
            y,
            band_row_slice(band, row.band_row, d),
        );
    }
}

#[inline(always)]
fn fr_spec_batch_body<I: SimdIsa, const MAIN: usize>(
    rows: &[GatheredRow<'_>],
    y: &Dense,
    band: &mut [f32],
    alpha: f32,
) {
    let d = y.ncols();
    assert_spec_batch_fits(rows);
    let mut h = [0f32; H_CHUNK];
    for row in rows {
        for (i, &v) in row.cols.iter().enumerate() {
            h[i] = alpha * I::sqdist(row.xu, y.row(v)).sqrt();
        }
        panel_spec::<I, MAIN, false>(
            row.cols,
            &h[..row.cols.len()],
            y,
            band_row_slice(band, row.band_row, d),
        );
    }
}

#[inline(always)]
fn tdist_spec_batch_body<I: SimdIsa, const MAIN: usize>(
    rows: &[GatheredRow<'_>],
    y: &Dense,
    band: &mut [f32],
) {
    let d = y.ncols();
    assert_spec_batch_fits(rows);
    let mut h = [0f32; H_CHUNK];
    for row in rows {
        for (i, &v) in row.cols.iter().enumerate() {
            h[i] = 1.0 / (1.0 + I::sqdist(row.xu, y.row(v)));
        }
        panel_spec::<I, MAIN, false>(
            row.cols,
            &h[..row.cols.len()],
            y,
            band_row_slice(band, row.band_row, d),
        );
    }
}

#[inline(always)]
fn spmm_spec_batch_body<I: SimdIsa, const MAIN: usize>(
    rows: &[GatheredRow<'_>],
    y: &Dense,
    band: &mut [f32],
) {
    let d = y.ncols();
    for row in rows {
        panel_spec::<I, MAIN, false>(row.cols, row.vals, y, band_row_slice(band, row.band_row, d));
    }
}

// --- shaped span sweep (hybrid mega class, phase B) ------------------------

/// Shaped variant of [`super::strip`]'s span sweep: folds all
/// neighbors, in row order and starting from `+0.0`, into one
/// VLEN-aligned span of the output row (overwriting it). The final
/// span may end unaligned (it absorbs the sub-VLEN remainder at odd
/// `d`), finished by the masked-tail panel.
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
    // Safety: as in `panel_spec`, with every offset shifted by
    // `span_off` and `span_off + w <= d` asserted above.
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
     [$($cp:ident),+]; ($($a:ident: $t:ty),*)) => {
        fn $scalar<$(const $cp: usize),+>($($a: $t),*) {
            $body::<ScalarIsa, $($cp),+>($($a),*)
        }

        #[cfg(target_arch = "x86_64")]
        fn $avx2<$(const $cp: usize),+>($($a: $t),*) {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn inner<$(const $cp: usize),+>($($a: $t),*) {
                $body::<Avx2Isa, $($cp),+>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Avx2Fma::is_available() returned true.
            unsafe { inner::<$($cp),+>($($a),*) }
        }

        #[cfg(target_arch = "x86_64")]
        fn $avx512<$(const $cp: usize),+>($($a: $t),*) {
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn inner<$(const $cp: usize),+>($($a: $t),*) {
                $body::<Avx512Isa, $($cp),+>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Avx512::is_available() returned true.
            unsafe { inner::<$($cp),+>($($a),*) }
        }

        #[cfg(target_arch = "aarch64")]
        fn $neon<$(const $cp: usize),+>($($a: $t),*) {
            #[target_feature(enable = "neon")]
            unsafe fn inner<$(const $cp: usize),+>($($a: $t),*) {
                $body::<NeonIsa, $($cp),+>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Neon::is_available() returned true.
            unsafe { inner::<$($cp),+>($($a),*) }
        }
    };
}

spec_entries!(embed_spec_row_body => embed_spec_scalar, embed_spec_avx2, embed_spec_avx512, embed_spec_neon;
    [MAIN, HC]; (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], sk: &SigmoidKind));
spec_entries!(fr_spec_row_body => fr_spec_scalar, fr_spec_avx2, fr_spec_avx512, fr_spec_neon;
    [MAIN, HC]; (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], alpha: f32));
spec_entries!(tdist_spec_row_body => tdist_spec_scalar, tdist_spec_avx2, tdist_spec_avx512, tdist_spec_neon;
    [MAIN, HC]; (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));
spec_entries!(spmm_spec_row_body => spmm_spec_scalar, spmm_spec_avx2, spmm_spec_avx512, spmm_spec_neon;
    [MAIN]; (cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));

spec_entries!(embed_spec_batch_body => embed_spec_batch_scalar, embed_spec_batch_avx2, embed_spec_batch_avx512, embed_spec_batch_neon;
    [MAIN]; (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32], sk: &SigmoidKind));
spec_entries!(fr_spec_batch_body => fr_spec_batch_scalar, fr_spec_batch_avx2, fr_spec_batch_avx512, fr_spec_batch_neon;
    [MAIN]; (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32], alpha: f32));
spec_entries!(tdist_spec_batch_body => tdist_spec_batch_scalar, tdist_spec_batch_avx2, tdist_spec_batch_avx512, tdist_spec_batch_neon;
    [MAIN]; (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32]));
spec_entries!(spmm_spec_batch_body => spmm_spec_batch_scalar, spmm_spec_batch_avx2, spmm_spec_batch_avx512, spmm_spec_batch_neon;
    [MAIN]; (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32]));

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

/// Turbofish a `MAIN`-only grid point (batch/span/SpMM shapes) into
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

/// The shaped short-row embedding batch kernel compiled for
/// `(b, spec)` — the hybrid short class at specialized plans. Message
/// depth stays at [`H_CHUNK`] (the gatherer's staging contract); only
/// the main-pass shape is specialized.
///
/// # Panics
/// Panics when `b` is not available on this CPU. The returned kernel
/// panics when a gathered row stages more than [`H_CHUNK`] neighbors.
pub fn embed_spec_batch_kernel(b: Backend, spec: KernelSpec) -> EmbedBatchKernel {
    select_spec!(b, spec, shape_m => embed_spec_batch_scalar, embed_spec_batch_avx2, embed_spec_batch_avx512, embed_spec_batch_neon)
}

/// The shaped short-row FR batch kernel compiled for `(b, spec)` (see
/// [`embed_spec_batch_kernel`] for the contract).
pub fn fr_spec_batch_kernel(b: Backend, spec: KernelSpec) -> FrBatchKernel {
    select_spec!(b, spec, shape_m => fr_spec_batch_scalar, fr_spec_batch_avx2, fr_spec_batch_avx512, fr_spec_batch_neon)
}

/// The shaped short-row t-distribution batch kernel compiled for
/// `(b, spec)` (see [`embed_spec_batch_kernel`] for the contract).
pub fn tdist_spec_batch_kernel(b: Backend, spec: KernelSpec) -> TDistBatchKernel {
    select_spec!(b, spec, shape_m => tdist_spec_batch_scalar, tdist_spec_batch_avx2, tdist_spec_batch_avx512, tdist_spec_batch_neon)
}

/// The shaped short-row SpMM batch kernel compiled for `(b, spec)`.
pub fn spmm_spec_batch_kernel(b: Backend, spec: KernelSpec) -> SpmmBatchKernel {
    select_spec!(b, spec, shape_m => spmm_spec_batch_scalar, spmm_spec_batch_avx2, spmm_spec_batch_avx512, spmm_spec_batch_neon)
}

/// The shaped mega-row column-span sweep compiled for `(b, spec)` —
/// hybrid phase B at specialized plans. Unlike the strip span sweep,
/// the final span may end unaligned at odd `d`.
pub fn span_spec_kernel(b: Backend, spec: KernelSpec) -> SpanSweepKernel {
    select_spec!(b, spec, shape_m => span_spec_scalar, span_spec_avx2, span_spec_avx512, span_spec_neon)
}

#[cfg(test)]
mod tests {
    use super::super::{
        embed_dyn_kernel, embed_strip_kernel, spmm_dyn_kernel, spmm_strip_kernel, tdist_dyn_kernel,
        tdist_strip_kernel,
    };
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
    fn spec_bit_identical_to_strip_at_strip_dims() {
        // Shape is a pure performance choice: every candidate spec must
        // reproduce the strip kernel bit for bit on strip-minable dims.
        let n = 80;
        let a = chain(n, 70);
        for d in [8usize, 48, 96, 192] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let (cols, vals) = a.row(3);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                let mut z_strip = vec![0f32; d];
                embed_strip_kernel(b)(x.row(3), cols, vals, &y, &mut z_strip, &SigmoidKind::Exact);
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    embed_spec_kernel(b, spec)(
                        x.row(3),
                        cols,
                        vals,
                        &y,
                        &mut z,
                        &SigmoidKind::Exact,
                    );
                    assert_eq!(z, z_strip, "embed {b} d={d} {}", spec.label());
                }
                let mut z_strip = vec![0f32; d];
                spmm_strip_kernel(b)(cols, vals, &y, &mut z_strip);
                for spec in candidate_specs(b.lanes(), d, false) {
                    let mut z = vec![0f32; d];
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z);
                    assert_eq!(z, z_strip, "spmm {b} d={d} {}", spec.label());
                }
                let mut z_strip = vec![0f32; d];
                tdist_strip_kernel(b)(x.row(3), cols, vals, &y, &mut z_strip);
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    tdist_spec_kernel(b, spec)(x.row(3), cols, vals, &y, &mut z);
                    assert_eq!(z, z_strip, "tdist {b} d={d} {}", spec.label());
                }
            }
        }
    }

    #[test]
    fn spec_covers_odd_dims_the_strip_family_rejects() {
        // d = 7 and 100 are not strip-minable; the spec kernels must
        // agree with the dyn reference within tolerance (the dyn path's
        // scalar tail is unfused, the spec masked tail is fused).
        let n = 40;
        let a = chain(n, 30);
        for d in [1usize, 7, 20, 100] {
            let x = feats(n, d, 0.4);
            let y = feats(n, d, 0.6);
            let (cols, vals) = a.row(5);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                let mut z_dyn = vec![0f32; d];
                embed_dyn_kernel(b)(x.row(5), cols, vals, &y, &mut z_dyn, &SigmoidKind::Exact);
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    embed_spec_kernel(b, spec)(
                        x.row(5),
                        cols,
                        vals,
                        &y,
                        &mut z,
                        &SigmoidKind::Exact,
                    );
                    for k in 0..d {
                        assert!(
                            (z[k] - z_dyn[k]).abs() < 1e-5,
                            "embed {b} d={d} {} k={k}: {} vs {}",
                            spec.label(),
                            z[k],
                            z_dyn[k]
                        );
                    }
                }
                let mut z_dyn = vec![0f32; d];
                tdist_dyn_kernel(b)(x.row(5), cols, vals, &y, &mut z_dyn);
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    tdist_spec_kernel(b, spec)(x.row(5), cols, vals, &y, &mut z);
                    for k in 0..d {
                        assert!((z[k] - z_dyn[k]).abs() < 1e-5, "tdist {b} d={d} k={k}");
                    }
                }
                let mut z_dyn = vec![0f32; d];
                spmm_dyn_kernel(b)(cols, vals, &y, &mut z_dyn);
                for spec in candidate_specs(b.lanes(), d, false) {
                    let mut z = vec![0f32; d];
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z);
                    for k in 0..d {
                        assert!((z[k] - z_dyn[k]).abs() < 1e-5, "spmm {b} d={d} k={k}");
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_spec_bit_identical_to_avx2_spec_at_odd_dims() {
        // The cross-backend guarantee extends beyond strip dims: both
        // x86 backends run fused masked tails with the same per-element
        // fold, so they agree exactly even where the fold is masked.
        if !(Backend::Avx512.is_available() && Backend::Avx2Fma.is_available()) {
            return;
        }
        let n = 40;
        let a = chain(n, 30);
        for d in [7usize, 20, 100, 385] {
            let x = feats(n, d, 0.4);
            let y = feats(n, d, 0.6);
            let (cols, vals) = a.row(5);
            let spec = KernelSpec::FALLBACK;
            let mut z2 = vec![0f32; d];
            let mut z5 = vec![0f32; d];
            embed_spec_kernel(Backend::Avx2Fma, spec)(
                x.row(5),
                cols,
                vals,
                &y,
                &mut z2,
                &SigmoidKind::Exact,
            );
            embed_spec_kernel(Backend::Avx512, spec)(
                x.row(5),
                cols,
                vals,
                &y,
                &mut z5,
                &SigmoidKind::Exact,
            );
            for k in 0..d {
                assert_eq!(z2[k].to_bits(), z5[k].to_bits(), "embed d={d} k={k}");
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
        for d in [48usize, 100] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let (cols, vals) = a.row(3);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                for spec in candidate_specs(b.lanes(), d, true) {
                    let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
                    let k = embed_spec_kernel(b, spec);
                    k(x.row(3), cols, vals, &y, &mut clean, &SigmoidKind::Exact);
                    k(x.row(3), cols, vals, &y, &mut dirty, &SigmoidKind::Exact);
                    assert_eq!(bits(&clean), bits(&dirty), "embed {b} d={d} {}", spec.label());
                    k(x.row(3), &[], &[], &y, &mut dirty, &SigmoidKind::Exact);
                    assert!(dirty.iter().all(|v| v.to_bits() == 0), "empty embed row {b} d={d}");

                    let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut clean);
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut dirty);
                    assert_eq!(bits(&clean), bits(&dirty), "spmm {b} d={d} {}", spec.label());

                    let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
                    span_spec_kernel(b, spec)(cols, vals, &y, &mut clean[8..], 8);
                    span_spec_kernel(b, spec)(cols, vals, &y, &mut dirty[8..], 8);
                    assert_eq!(bits(&clean[8..]), bits(&dirty[8..]), "span {b} d={d}");
                }
            }
        }
    }

    #[test]
    fn spec_batch_bit_identical_to_spec_row() {
        let n = 24;
        let a = chain(n, 5);
        for d in [48usize, 100] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let b = active_backend();
            for spec in candidate_specs(b.lanes(), d, true) {
                let rows_in_batch = [2usize, 5, 9, 11];
                let mut band = vec![0f32; rows_in_batch.len() * d];
                let batch: Vec<GatheredRow<'_>> = rows_in_batch
                    .iter()
                    .enumerate()
                    .map(|(i, &u)| GatheredRow {
                        xu: x.row(u),
                        cols: a.row(u).0,
                        vals: a.row(u).1,
                        band_row: i,
                    })
                    .collect();
                embed_spec_batch_kernel(b, spec)(&batch, &y, &mut band, &SigmoidKind::Exact);
                for (i, &u) in rows_in_batch.iter().enumerate() {
                    let mut z_row = vec![0f32; d];
                    let (cols, vals) = a.row(u);
                    embed_spec_kernel(b, spec)(
                        x.row(u),
                        cols,
                        vals,
                        &y,
                        &mut z_row,
                        &SigmoidKind::Exact,
                    );
                    assert_eq!(
                        &band[i * d..(i + 1) * d],
                        &z_row[..],
                        "embed {b} d={d} {} row {u}",
                        spec.label()
                    );
                }
            }
        }
    }

    #[test]
    fn span_spec_with_ragged_final_span_matches_row_kernel() {
        // Odd d split into spans: the last span absorbs the sub-VLEN
        // remainder. Phases A+B must reproduce the spec row kernel.
        let n = 90;
        let a = chain(n, 80);
        let d = 100;
        let x = feats(n, d, 0.3);
        let y = feats(n, d, 0.7);
        let (cols, vals) = a.row(7);
        let b = active_backend();
        let spec = KernelSpec::FALLBACK;
        let mut z_row = vec![0f32; d];
        embed_spec_kernel(b, spec)(x.row(7), cols, vals, &y, &mut z_row, &SigmoidKind::Exact);
        let mut h = vec![0f32; cols.len()];
        super::super::embed_msg_kernel(b)(x.row(7), cols, vals, &y, &SigmoidKind::Exact, &mut h);
        for spans in [vec![d], vec![48, 52], vec![96, 4]] {
            let mut z = vec![0f32; d];
            let mut off = 0;
            for w in spans {
                span_spec_kernel(b, spec)(cols, &h, &y, &mut z[off..off + w], off);
                off += w;
            }
            // Messages were filled by the same backend's dot, so the
            // fold per element matches the row kernel exactly.
            assert_eq!(z, z_row, "embed span d={d}");
        }
    }
}
