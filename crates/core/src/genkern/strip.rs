//! ISA-specialized dynamic and strip-mined row kernels.
//!
//! Two kernel families live here, both written once as ISA-generic
//! bodies and monomorphized per [`Backend`] (AVX-512 / AVX2+FMA / NEON
//! / scalar) behind `#[target_feature]` entry functions:
//!
//! * `*_row_dyn_*` — the dynamic-dimension kernels: per neighbor, a
//!   full-row reduction (dot / squared distance) followed by a full-row
//!   axpy, with `z_u` living in memory (cleared by the kernel before
//!   the first axpy). Works for any `d`.
//! * `*_row_strip_*` — **strip-mined** kernels for any `d ≡ 0 (mod 8)`:
//!   the feature dimension is tiled into register-wide panels (up to
//!   twelve panels per pass on 8-lane ISAs; up to twenty-four 16-lane
//!   panels — 384 lanes — on AVX-512, which has 32 zmm registers to
//!   fill), and each panel's `z_u` accumulator
//!   stays **register-resident across the neighbor loop**, recovering
//!   the paper's register-blocking win at dimensions the const-generic
//!   kernels don't cover (48, 96, 192, 384, ...). The GE-SpMM
//!   observation — specialize the inner loop to the vector width, not
//!   to the whole feature dimension — applied to FusedMM.
//!
//! For the patterns with an SDDMM reduction (embedding, FR, t-dist)
//! the per-neighbor messages `h_v` are produced in chunks of
//! [`H_CHUNK`] neighbors, then the chunk's contribution is swept
//! panel-by-panel: `z_u`'s memory traffic drops from one load+store
//! per strip *per neighbor* (the dyn kernels) to one per strip per
//! chunk, while `h_v` stays in a stack buffer. Pure SpMM has no
//! reduction, so its panels run over the entire neighbor list in one
//! pass — `z_u` is written to memory exactly once per panel.
//!
//! Every row kernel **owns its output row**: the fold starts from
//! `+0.0` in registers (a row's first chunk runs the overwrite panel,
//! only later chunks of a long row reload the partial sum they resume),
//! an empty row stores zeros, and nothing `z_u` held on entry is read.
//! That is bit-identical to accumulating into a zeroed row — a load of
//! zeroed memory yields the same `+0.0` — and it is what lets callers
//! hand in a recycled, un-cleared output.
//!
//! On ISAs wider than `VLEN` (AVX-512: `I::LANES = 16`) a dimension
//! that is a multiple of 8 but not of 16 ends in a **masked tail
//! pass**: one fused, mask-predicated panel covers the last 8 columns
//! via `SimdIsa::loadu_partial`/`storeu_partial`. The fold order per
//! element is unchanged, so results stay bit-identical to the 8-lane
//! backends. (A finer shape grid over the same passes — including
//! arbitrary odd `d` — lives in [`super::table`], selected at plan
//! time.)

use fusedmm_sparse::dense::Dense;

#[cfg(target_arch = "aarch64")]
use crate::simd::NeonIsa;
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2Isa, Avx512Isa};
use crate::simd::{Backend, ScalarIsa, SimdIsa, VLEN};

use super::{
    EmbedBatchKernel, EmbedMsgKernel, EmbedRowKernel, FrBatchKernel, FrMsgKernel, FrRowKernel,
    GatheredRow, SigmoidKind, SpanSweepKernel, SpmmBatchKernel, SpmmRowKernel, TDistBatchKernel,
    TDistMsgKernel, TDistRowKernel,
};

/// Neighbors whose messages are buffered per strip-mining chunk: a
/// 32-deep reuse of each `z_u` panel load while the chunk's `y` rows
/// (32·d·4 bytes — 12 KiB at d = 96) stay hot in L1 between the
/// reduction pass and the panel sweep.
pub const H_CHUNK: usize = 32;

/// Whether the strip-mined family covers dimension `d`: any positive
/// multiple of the vector width.
pub fn strip_minable(d: usize) -> bool {
    d > 0 && d.is_multiple_of(VLEN)
}

// ---------------------------------------------------------------------------
// ISA-generic bodies
// ---------------------------------------------------------------------------

/// `Σ_i h[i] · y_{cols[i]}` swept into `z_u` in register-resident
/// panels: the strip-mined MOP+AOP core shared by every pattern.
/// `LOAD_Z` picks whether the accumulators start from `+0.0`
/// (overwrite — how every row's fold begins) or from the current `z_u`
/// (resuming a partial sum: only [`panel_chunk`] past a row's first
/// chunk).
///
/// The dimension is consumed as a cascade of panel groups — 12, 8, 6,
/// 4, 2, then 1 eight-lane panels per pass — so the serving dims get
/// single sweeps (d = 96/192/384 via 12-panel passes, d = 48 via a
/// 6-panel pass) with many independent accumulator registers, while
/// any `d ≡ 0 (mod 8)` still tiles exactly.
#[inline(always)]
fn panel_core<I: SimdIsa, const LOAD_Z: bool>(
    cols: &[usize],
    h: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    let d = zu.len();
    debug_assert_eq!(d % VLEN, 0);
    assert_eq!(y.ncols(), d, "panel kernel: y width {} != output width {d}", y.ncols());
    assert!(h.len() >= cols.len(), "panel kernel: fewer messages than neighbors");
    if let Some(&vmax) = cols.iter().max() {
        assert!(vmax < y.nrows(), "panel kernel: column {vmax} out of range");
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
        macro_rules! panel_pass {
            ($panels:literal) => {
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
        if I::LANES > VLEN {
            // 24 panels on a 16-lane ISA = 384 lanes: the top serving
            // dim in one sweep, using 24 of AVX-512's 32 zmm registers
            // (broadcast + y loads as memory operands fill the rest).
            panel_pass!(24);
        }
        // 12 panels = 96 lanes on 8-lane ISAs: d = 96/192/288/384 in
        // single sweeps (12 accumulators + broadcast still fit 16 ymm
        // registers — FMA folds the y load into a memory operand).
        panel_pass!(12);
        panel_pass!(8);
        // 6 panels = 48 lanes: one sweep for the d = 48 serving dim.
        panel_pass!(6);
        panel_pass!(4);
        panel_pass!(2);
        panel_pass!(1);
        // Masked tail: on ISAs wider than VLEN the cascade can leave a
        // sub-register remainder (d ≡ 8 (mod 16) on AVX-512). One
        // fused predicated panel finishes it; lanes past the remainder
        // load as +0.0 and contribute h·0, and the masked store leaves
        // memory past `d` untouched.
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

/// `z_u = Σ_i h[i] · y_{cols[i]}` — overwrite the output row, starting
/// the accumulators at `+0.0` instead of loading `z_u`. Bit-identical
/// to accumulating into a pre-zeroed row (a load of zeroed memory also
/// yields `+0.0`), but skips one full row read per call and does not
/// care what the row held. Callers must own the whole fold for the
/// row: nothing previously stored in `zu` survives, and an empty
/// `cols` stores zeros.
#[inline(always)]
fn panel_overwrite<I: SimdIsa>(cols: &[usize], h: &[f32], y: &Dense, zu: &mut [f32]) {
    panel_core::<I, false>(cols, h, y, zu)
}

/// One [`H_CHUNK`] chunk of a row's chunked fold, starting at neighbor
/// `start`: the row's first chunk begins the fold ([`panel_overwrite`]);
/// a later chunk resumes the partial sum the earlier ones stored — the
/// one place a panel still loads `z_u`.
#[inline(always)]
fn panel_chunk<I: SimdIsa>(start: usize, cols: &[usize], h: &[f32], y: &Dense, zu: &mut [f32]) {
    if start == 0 {
        panel_overwrite::<I>(cols, h, y, zu)
    } else {
        panel_core::<I, true>(cols, h, y, zu)
    }
}

#[inline(always)]
fn assert_strip_dim(d: usize) {
    assert!(
        strip_minable(d),
        "strip-mined kernels require d to be a positive multiple of {VLEN}, got {d}"
    );
}

#[inline(always)]
fn embed_row_strip_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    sk: &SigmoidKind,
) {
    assert_strip_dim(zu.len());
    let mut h = [0f32; H_CHUNK];
    let mut start = 0;
    // At least one pass, so an empty row still stores its zeros.
    loop {
        let chunk = &cols[start..(start + H_CHUNK).min(cols.len())];
        let labels = &vals[start..start + chunk.len()];
        for (hi, (&v, &a)) in h.iter_mut().zip(chunk.iter().zip(labels)) {
            *hi = sk.eval(I::dot(xu, y.row(v)), a);
        }
        panel_chunk::<I>(start, chunk, &h, y, zu);
        start += chunk.len();
        if start >= cols.len() {
            break;
        }
    }
}

#[inline(always)]
fn fr_row_strip_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    alpha: f32,
) {
    assert_strip_dim(zu.len());
    let mut h = [0f32; H_CHUNK];
    let mut start = 0;
    loop {
        let chunk = &cols[start..(start + H_CHUNK).min(cols.len())];
        for (i, &v) in chunk.iter().enumerate() {
            h[i] = alpha * I::sqdist(xu, y.row(v)).sqrt();
        }
        panel_chunk::<I>(start, chunk, &h, y, zu);
        start += chunk.len();
        if start >= cols.len() {
            break;
        }
    }
}

#[inline(always)]
fn tdist_row_strip_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    assert_strip_dim(zu.len());
    let mut h = [0f32; H_CHUNK];
    let mut start = 0;
    loop {
        let chunk = &cols[start..(start + H_CHUNK).min(cols.len())];
        for (i, &v) in chunk.iter().enumerate() {
            h[i] = 1.0 / (1.0 + I::sqdist(xu, y.row(v)));
        }
        panel_chunk::<I>(start, chunk, &h, y, zu);
        start += chunk.len();
        if start >= cols.len() {
            break;
        }
    }
}

#[inline(always)]
fn spmm_row_strip_body<I: SimdIsa>(cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]) {
    assert_strip_dim(zu.len());
    // No SDDMM reduction: the edge weights are the messages, so every
    // panel sweeps the entire neighbor list with its accumulators in
    // registers the whole time — the whole fold in one call.
    panel_overwrite::<I>(cols, vals, y, zu);
}

// --- hybrid-execution bodies -----------------------------------------------
//
// Three shaped entries back the degree-classed hybrid dispatcher:
//
// * `*_batch_body` — the gather-style short-row kernels: several short
//   rows per call share one message buffer and one indirect dispatch.
//   Each row fills its message slice and immediately runs the
//   `panel_overwrite` cascade — fused per row, because a separate
//   whole-batch message sweep re-walks the gathered rows through their
//   staging structs and measures slower. Like every row kernel the
//   output row is overwritten: each gathered row must carry its entire
//   neighbor list (the hybrid sweep guarantees it).
// * `*_msg_body` — phase A of the split-mega-row kernel: fill the
//   messages for a slice of a mega row's neighbors. Each message is an
//   independent reduction, so slices can be filled by different threads
//   with no effect on the result.
// * `span_sweep_body` — phase B: fold *every* neighbor, in original
//   row order, into one VLEN-aligned column span of `z_u`, overwriting
//   it.
//   Threads split the row by output columns, not by neighbors, so the
//   per-element fold order is fixed by the span plan — bit-identical to
//   the strip kernel's chunked fold regardless of thread count.

/// Every gathered row must fit the shared message buffer on its own:
/// the batch bodies fill and fold one row at a time, so the buffer
/// bounds the per-row degree, not the batch total.
#[inline(always)]
fn assert_batch_fits(rows: &[GatheredRow<'_>]) {
    for r in rows {
        assert!(
            r.cols.len() <= H_CHUNK,
            "gathered row stages {} neighbors, message buffer holds {H_CHUNK}",
            r.cols.len()
        );
    }
}

#[inline(always)]
fn row_slice(band: &mut [f32], band_row: usize, d: usize) -> &mut [f32] {
    &mut band[band_row * d..(band_row + 1) * d]
}

#[inline(always)]
fn embed_batch_body<I: SimdIsa>(
    rows: &[GatheredRow<'_>],
    y: &Dense,
    band: &mut [f32],
    sk: &SigmoidKind,
) {
    let d = y.ncols();
    assert_strip_dim(d);
    assert_batch_fits(rows);
    let mut h = [0f32; H_CHUNK];
    for row in rows {
        assert_eq!(row.cols.len(), row.vals.len(), "one edge value per neighbor");
        for (hi, (&v, &a)) in h.iter_mut().zip(row.cols.iter().zip(row.vals)) {
            *hi = sk.eval(I::dot(row.xu, y.row(v)), a);
        }
        panel_overwrite::<I>(row.cols, &h[..row.cols.len()], y, row_slice(band, row.band_row, d));
    }
}

#[inline(always)]
fn fr_batch_body<I: SimdIsa>(rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32], alpha: f32) {
    let d = y.ncols();
    assert_strip_dim(d);
    assert_batch_fits(rows);
    let mut h = [0f32; H_CHUNK];
    for row in rows {
        for (i, &v) in row.cols.iter().enumerate() {
            h[i] = alpha * I::sqdist(row.xu, y.row(v)).sqrt();
        }
        panel_overwrite::<I>(row.cols, &h[..row.cols.len()], y, row_slice(band, row.band_row, d));
    }
}

#[inline(always)]
fn tdist_batch_body<I: SimdIsa>(rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32]) {
    let d = y.ncols();
    assert_strip_dim(d);
    assert_batch_fits(rows);
    let mut h = [0f32; H_CHUNK];
    for row in rows {
        for (i, &v) in row.cols.iter().enumerate() {
            h[i] = 1.0 / (1.0 + I::sqdist(row.xu, y.row(v)));
        }
        panel_overwrite::<I>(row.cols, &h[..row.cols.len()], y, row_slice(band, row.band_row, d));
    }
}

#[inline(always)]
fn spmm_batch_body<I: SimdIsa>(rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32]) {
    let d = y.ncols();
    assert_strip_dim(d);
    // No SDDMM reduction: the edge weights are the messages already.
    for row in rows {
        panel_overwrite::<I>(row.cols, row.vals, y, row_slice(band, row.band_row, d));
    }
}

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
    assert_eq!(cols.len(), vals.len(), "one edge value per neighbor");
    for (hi, (&v, &a)) in h.iter_mut().zip(cols.iter().zip(vals)) {
        *hi = sk.eval(I::dot(xu, y.row(v)), a);
    }
}

#[inline(always)]
fn fr_msg_body<I: SimdIsa>(xu: &[f32], cols: &[usize], y: &Dense, alpha: f32, h: &mut [f32]) {
    assert_eq!(cols.len(), h.len(), "message slice length != neighbor slice length");
    for (hi, &v) in h.iter_mut().zip(cols) {
        *hi = alpha * I::sqdist(xu, y.row(v)).sqrt();
    }
}

#[inline(always)]
fn tdist_msg_body<I: SimdIsa>(xu: &[f32], cols: &[usize], y: &Dense, h: &mut [f32]) {
    assert_eq!(cols.len(), h.len(), "message slice length != neighbor slice length");
    for (hi, &v) in h.iter_mut().zip(cols) {
        *hi = 1.0 / (1.0 + I::sqdist(xu, y.row(v)));
    }
}

/// `z_span = Σ_i h[i] · y_{cols[i]}[span_off..span_off + w]` — the
/// column-span sweep of the split-mega-row kernel. Folds **all**
/// neighbors, in row-storage order and starting from `+0.0`, into one
/// VLEN-aligned span of the output row (overwriting it), so the
/// per-element accumulation chain matches the strip kernel's exactly
/// and is independent of how many spans (threads) the row was split
/// into.
#[inline(always)]
fn span_sweep_body<I: SimdIsa>(
    cols: &[usize],
    h: &[f32],
    y: &Dense,
    z_span: &mut [f32],
    span_off: usize,
) {
    let w = z_span.len();
    let d = y.ncols();
    // The span *offset* must stay VLEN-aligned (it fixes each thread's
    // fold origin); the width may end unaligned only for the final
    // span, which absorbs the row's sub-VLEN remainder at odd d.
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
    // Safety: every pointer offset is `v * d + span_off + p + lanes`
    // with `v < y.nrows()` (checked above) and `span_off + p + lanes
    // <= d`, hence in bounds of `y`'s backing slice; z offsets stay
    // below `z_span.len()`; `h[i]` is a checked index.
    unsafe {
        macro_rules! span_pass {
            ($panels:literal) => {
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
        if I::LANES > VLEN {
            span_pass!(24);
        }
        span_pass!(12);
        span_pass!(8);
        span_pass!(6);
        span_pass!(4);
        span_pass!(2);
        span_pass!(1);
        // Masked tail: sub-register remainder on wide ISAs, or the
        // final span's sub-VLEN remainder at odd d.
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

#[inline(always)]
fn embed_row_dyn_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    sk: &SigmoidKind,
) {
    assert_eq!(cols.len(), vals.len(), "one edge value per neighbor");
    // `z_u` lives in memory here, so the fold's `+0.0` origin is stored.
    zu.fill(0.0);
    for (&v, &a) in cols.iter().zip(vals) {
        let yv = y.row(v);
        let h = sk.eval(I::dot(xu, yv), a);
        I::axpy(h, yv, zu);
    }
}

#[inline(always)]
fn fr_row_dyn_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    alpha: f32,
) {
    zu.fill(0.0);
    for &v in cols {
        let yv = y.row(v);
        let h = alpha * I::sqdist(xu, yv).sqrt();
        I::axpy(h, yv, zu);
    }
}

#[inline(always)]
fn tdist_row_dyn_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    zu.fill(0.0);
    for &v in cols {
        let yv = y.row(v);
        let h = 1.0 / (1.0 + I::sqdist(xu, yv));
        I::axpy(h, yv, zu);
    }
}

#[inline(always)]
fn spmm_row_dyn_body<I: SimdIsa>(cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]) {
    zu.fill(0.0);
    for (&v, &a) in cols.iter().zip(vals) {
        I::axpy(a, y.row(v), zu);
    }
}

// ---------------------------------------------------------------------------
// Per-backend entries: one monomorphization of each body per ISA,
// compiled under the matching #[target_feature] so the whole inlined
// body codegens with that ISA.
// ---------------------------------------------------------------------------

macro_rules! isa_entries {
    ($body:ident => $scalar:ident, $avx2:ident, $avx512:ident, $neon:ident; ($($a:ident: $t:ty),*)) => {
        /// Portable entry for the corresponding ISA-generic body.
        pub fn $scalar($($a: $t),*) {
            $body::<ScalarIsa>($($a),*)
        }

        #[cfg(target_arch = "x86_64")]
        /// AVX2+FMA entry. Must only be called on an AVX2+FMA CPU —
        /// reach it through the kernel selectors, which verify
        /// availability.
        pub fn $avx2($($a: $t),*) {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn inner($($a: $t),*) {
                $body::<Avx2Isa>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Avx2Fma::is_available() returned true.
            unsafe { inner($($a),*) }
        }

        #[cfg(target_arch = "x86_64")]
        /// AVX-512F entry. Must only be called on an AVX-512F CPU —
        /// reach it through the kernel selectors, which verify
        /// availability. (avx2+fma are enabled too: reductions finish
        /// with the ymm cleanup that keeps them bit-identical to the
        /// AVX2 backend.)
        pub fn $avx512($($a: $t),*) {
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn inner($($a: $t),*) {
                $body::<Avx512Isa>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Avx512::is_available() returned true.
            unsafe { inner($($a),*) }
        }

        #[cfg(target_arch = "aarch64")]
        /// NEON entry. Must only be called on an aarch64 NEON CPU —
        /// reach it through the kernel selectors, which verify
        /// availability.
        pub fn $neon($($a: $t),*) {
            #[target_feature(enable = "neon")]
            unsafe fn inner($($a: $t),*) {
                $body::<NeonIsa>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Neon::is_available() returned true.
            unsafe { inner($($a),*) }
        }
    };
}

isa_entries!(embed_row_strip_body => embed_row_strip_scalar, embed_row_strip_avx2, embed_row_strip_avx512, embed_row_strip_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], sk: &SigmoidKind));
isa_entries!(fr_row_strip_body => fr_row_strip_scalar, fr_row_strip_avx2, fr_row_strip_avx512, fr_row_strip_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], alpha: f32));
isa_entries!(tdist_row_strip_body => tdist_row_strip_scalar, tdist_row_strip_avx2, tdist_row_strip_avx512, tdist_row_strip_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));
isa_entries!(spmm_row_strip_body => spmm_row_strip_scalar, spmm_row_strip_avx2, spmm_row_strip_avx512, spmm_row_strip_neon;
    (cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));

isa_entries!(embed_batch_body => embed_batch_scalar, embed_batch_avx2, embed_batch_avx512, embed_batch_neon;
    (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32], sk: &SigmoidKind));
isa_entries!(fr_batch_body => fr_batch_scalar, fr_batch_avx2, fr_batch_avx512, fr_batch_neon;
    (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32], alpha: f32));
isa_entries!(tdist_batch_body => tdist_batch_scalar, tdist_batch_avx2, tdist_batch_avx512, tdist_batch_neon;
    (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32]));
isa_entries!(spmm_batch_body => spmm_batch_scalar, spmm_batch_avx2, spmm_batch_avx512, spmm_batch_neon;
    (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32]));

isa_entries!(embed_msg_body => embed_msg_scalar, embed_msg_avx2, embed_msg_avx512, embed_msg_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, sk: &SigmoidKind, h: &mut [f32]));
isa_entries!(fr_msg_body => fr_msg_scalar, fr_msg_avx2, fr_msg_avx512, fr_msg_neon;
    (xu: &[f32], cols: &[usize], y: &Dense, alpha: f32, h: &mut [f32]));
isa_entries!(tdist_msg_body => tdist_msg_scalar, tdist_msg_avx2, tdist_msg_avx512, tdist_msg_neon;
    (xu: &[f32], cols: &[usize], y: &Dense, h: &mut [f32]));
isa_entries!(span_sweep_body => span_sweep_scalar, span_sweep_avx2, span_sweep_avx512, span_sweep_neon;
    (cols: &[usize], h: &[f32], y: &Dense, z_span: &mut [f32], span_off: usize));

isa_entries!(embed_row_dyn_body => embed_row_dyn_scalar, embed_row_dyn_avx2, embed_row_dyn_avx512, embed_row_dyn_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], sk: &SigmoidKind));
isa_entries!(fr_row_dyn_body => fr_row_dyn_scalar, fr_row_dyn_avx2, fr_row_dyn_avx512, fr_row_dyn_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], alpha: f32));
isa_entries!(tdist_row_dyn_body => tdist_row_dyn_scalar, tdist_row_dyn_avx2, tdist_row_dyn_avx512, tdist_row_dyn_neon;
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));
isa_entries!(spmm_row_dyn_body => spmm_row_dyn_scalar, spmm_row_dyn_avx2, spmm_row_dyn_avx512, spmm_row_dyn_neon;
    (cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));

// ---------------------------------------------------------------------------
// Selectors: backend -> kernel entry
// ---------------------------------------------------------------------------

macro_rules! select {
    ($b:expr => $scalar:ident, $avx2:ident, $avx512:ident, $neon:ident) => {{
        let b = $b;
        assert!(b.is_available(), "backend {b} not available on this CPU");
        match b {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => $avx512,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2Fma => $avx2,
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => $neon,
            _ => $scalar,
        }
    }};
}

/// The strip-mined embedding kernel compiled for `b`.
///
/// # Panics
/// Panics when `b` is not available on this CPU. The returned kernel
/// panics when invoked with `d` not a positive multiple of 8.
pub fn embed_strip_kernel(b: Backend) -> EmbedRowKernel {
    select!(b => embed_row_strip_scalar, embed_row_strip_avx2, embed_row_strip_avx512, embed_row_strip_neon)
}

/// The strip-mined FR kernel compiled for `b` (see
/// [`embed_strip_kernel`] for the contract).
pub fn fr_strip_kernel(b: Backend) -> FrRowKernel {
    select!(b => fr_row_strip_scalar, fr_row_strip_avx2, fr_row_strip_avx512, fr_row_strip_neon)
}

/// The strip-mined t-distribution kernel compiled for `b` (see
/// [`embed_strip_kernel`] for the contract).
pub fn tdist_strip_kernel(b: Backend) -> TDistRowKernel {
    select!(b => tdist_row_strip_scalar, tdist_row_strip_avx2, tdist_row_strip_avx512, tdist_row_strip_neon)
}

/// The strip-mined SpMM kernel compiled for `b` (see
/// [`embed_strip_kernel`] for the contract).
pub fn spmm_strip_kernel(b: Backend) -> SpmmRowKernel {
    select!(b => spmm_row_strip_scalar, spmm_row_strip_avx2, spmm_row_strip_avx512, spmm_row_strip_neon)
}

/// The gather-style short-row embedding batch kernel compiled for `b`
/// (hybrid execution's short class).
///
/// # Panics
/// Panics when `b` is not available on this CPU. The returned kernel
/// panics when `d` is not a positive multiple of 8 or the batch stages
/// more than [`H_CHUNK`] neighbors in total.
pub fn embed_batch_kernel(b: Backend) -> EmbedBatchKernel {
    select!(b => embed_batch_scalar, embed_batch_avx2, embed_batch_avx512, embed_batch_neon)
}

/// The short-row FR batch kernel compiled for `b` (see
/// [`embed_batch_kernel`] for the contract).
pub fn fr_batch_kernel(b: Backend) -> FrBatchKernel {
    select!(b => fr_batch_scalar, fr_batch_avx2, fr_batch_avx512, fr_batch_neon)
}

/// The short-row t-distribution batch kernel compiled for `b` (see
/// [`embed_batch_kernel`] for the contract).
pub fn tdist_batch_kernel(b: Backend) -> TDistBatchKernel {
    select!(b => tdist_batch_scalar, tdist_batch_avx2, tdist_batch_avx512, tdist_batch_neon)
}

/// The short-row SpMM batch kernel compiled for `b` (no message
/// buffer, so the batch size is unconstrained).
pub fn spmm_batch_kernel(b: Backend) -> SpmmBatchKernel {
    select!(b => spmm_batch_scalar, spmm_batch_avx2, spmm_batch_avx512, spmm_batch_neon)
}

/// The mega-row embedding message-fill kernel compiled for `b`
/// (phase A of the split-mega-row pass; each neighbor slice is an
/// independent fill).
pub fn embed_msg_kernel(b: Backend) -> EmbedMsgKernel {
    select!(b => embed_msg_scalar, embed_msg_avx2, embed_msg_avx512, embed_msg_neon)
}

/// The mega-row FR message-fill kernel compiled for `b`.
pub fn fr_msg_kernel(b: Backend) -> FrMsgKernel {
    select!(b => fr_msg_scalar, fr_msg_avx2, fr_msg_avx512, fr_msg_neon)
}

/// The mega-row t-distribution message-fill kernel compiled for `b`.
pub fn tdist_msg_kernel(b: Backend) -> TDistMsgKernel {
    select!(b => tdist_msg_scalar, tdist_msg_avx2, tdist_msg_avx512, tdist_msg_neon)
}

/// The mega-row column-span sweep kernel compiled for `b` (phase B of
/// the split-mega-row pass; pattern-independent — the messages were
/// already computed).
pub fn span_sweep_kernel(b: Backend) -> SpanSweepKernel {
    select!(b => span_sweep_scalar, span_sweep_avx2, span_sweep_avx512, span_sweep_neon)
}

/// The dynamic-dimension embedding kernel compiled for `b` (any `d`).
///
/// # Panics
/// Panics when `b` is not available on this CPU.
pub fn embed_dyn_kernel(b: Backend) -> EmbedRowKernel {
    select!(b => embed_row_dyn_scalar, embed_row_dyn_avx2, embed_row_dyn_avx512, embed_row_dyn_neon)
}

/// The dynamic-dimension FR kernel compiled for `b` (any `d`).
pub fn fr_dyn_kernel(b: Backend) -> FrRowKernel {
    select!(b => fr_row_dyn_scalar, fr_row_dyn_avx2, fr_row_dyn_avx512, fr_row_dyn_neon)
}

/// The dynamic-dimension t-distribution kernel compiled for `b`
/// (any `d`).
pub fn tdist_dyn_kernel(b: Backend) -> TDistRowKernel {
    select!(b => tdist_row_dyn_scalar, tdist_row_dyn_avx2, tdist_row_dyn_avx512, tdist_row_dyn_neon)
}

/// The dynamic-dimension SpMM kernel compiled for `b` (any `d`).
pub fn spmm_dyn_kernel(b: Backend) -> SpmmRowKernel {
    select!(b => spmm_row_dyn_scalar, spmm_row_dyn_avx2, spmm_row_dyn_avx512, spmm_row_dyn_neon)
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

    #[test]
    fn strip_matches_dyn_on_every_available_backend() {
        // Degrees beyond H_CHUNK exercise the chunked message buffer.
        let n = 80;
        let a = chain(n, 70.min(n - 1));
        for d in [8usize, 24, 48, 96, 192, 384] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let (cols, vals) = a.row(3);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                // Embedding
                let mut z_dyn = vec![0f32; d];
                let mut z_strip = vec![0f32; d];
                embed_dyn_kernel(b)(x.row(3), cols, vals, &y, &mut z_dyn, &SigmoidKind::Exact);
                embed_strip_kernel(b)(x.row(3), cols, vals, &y, &mut z_strip, &SigmoidKind::Exact);
                for k in 0..d {
                    assert!(
                        (z_dyn[k] - z_strip[k]).abs() < 1e-5,
                        "embed {b} d={d} k={k}: {} vs {}",
                        z_dyn[k],
                        z_strip[k]
                    );
                }
                // SpMM
                let mut z_dyn = vec![0f32; d];
                let mut z_strip = vec![0f32; d];
                spmm_dyn_kernel(b)(cols, vals, &y, &mut z_dyn);
                spmm_strip_kernel(b)(cols, vals, &y, &mut z_strip);
                for k in 0..d {
                    assert!((z_dyn[k] - z_strip[k]).abs() < 1e-5, "spmm {b} d={d} k={k}");
                }
                // t-distribution
                let mut z_dyn = vec![0f32; d];
                let mut z_strip = vec![0f32; d];
                tdist_dyn_kernel(b)(x.row(3), cols, vals, &y, &mut z_dyn);
                tdist_strip_kernel(b)(x.row(3), cols, vals, &y, &mut z_strip);
                for k in 0..d {
                    assert!((z_dyn[k] - z_strip[k]).abs() < 1e-5, "tdist {b} d={d} k={k}");
                }
                // FR (sqrt amplifies tiny sqdist differences; keep 1e-4)
                let mut z_dyn = vec![0f32; d];
                let mut z_strip = vec![0f32; d];
                fr_dyn_kernel(b)(x.row(3), cols, vals, &y, &mut z_dyn, 0.6);
                fr_strip_kernel(b)(x.row(3), cols, vals, &y, &mut z_strip, 0.6);
                for k in 0..d {
                    assert!((z_dyn[k] - z_strip[k]).abs() < 1e-4, "fr {b} d={d} k={k}");
                }
            }
        }
    }

    #[test]
    fn strip_minable_is_multiples_of_vlen() {
        assert!(strip_minable(8));
        assert!(strip_minable(48));
        assert!(strip_minable(96));
        assert!(strip_minable(384));
        assert!(!strip_minable(0));
        assert!(!strip_minable(4));
        assert!(!strip_minable(100));
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn strip_kernel_rejects_unaligned_dim() {
        let y = feats(4, 12, 0.1);
        let mut z = vec![0f32; 12];
        spmm_strip_kernel(Backend::Scalar)(&[1, 2], &[1.0, 2.0], &y, &mut z);
    }

    #[test]
    fn empty_row_writes_positive_zero_over_whatever_was_there() {
        let d = 16;
        let x = feats(4, d, 0.1);
        let y = feats(4, d, 0.5);
        let b = active_backend();
        let plus_zero = |z: &[f32]| z.iter().all(|v| v.to_bits() == 0);
        let mut z = vec![0.75f32; d];
        spmm_strip_kernel(b)(&[], &[], &y, &mut z);
        assert!(plus_zero(&z), "spmm strip: {z:?}");
        z.fill(f32::NAN);
        embed_strip_kernel(b)(x.row(0), &[], &[], &y, &mut z, &SigmoidKind::Exact);
        assert!(plus_zero(&z), "embed strip: {z:?}");
        z.fill(-1.0);
        fr_strip_kernel(b)(x.row(0), &[], &[], &y, &mut z, 0.5);
        assert!(plus_zero(&z), "fr strip: {z:?}");
        z.fill(f32::INFINITY);
        tdist_strip_kernel(b)(x.row(0), &[], &[], &y, &mut z);
        assert!(plus_zero(&z), "tdist strip: {z:?}");
        z.fill(f32::NAN);
        spmm_dyn_kernel(b)(&[], &[], &y, &mut z);
        assert!(plus_zero(&z), "spmm dyn: {z:?}");
    }

    #[test]
    fn row_kernels_ignore_what_the_output_row_held() {
        // Degree 70 > 2·H_CHUNK: the chunked folds overwrite on their
        // first chunk and resume on the next two.
        let n = 80;
        let a = chain(n, 70);
        let d = 48;
        let x = feats(n, d, 0.2);
        let y = feats(n, d, 0.8);
        let (cols, vals) = a.row(3);
        let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &b in Backend::ALL {
            if !b.is_available() {
                continue;
            }
            for embed in [embed_strip_kernel(b), embed_dyn_kernel(b)] {
                let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
                embed(x.row(3), cols, vals, &y, &mut clean, &SigmoidKind::Exact);
                embed(x.row(3), cols, vals, &y, &mut dirty, &SigmoidKind::Exact);
                assert_eq!(bits(&clean), bits(&dirty), "embed {b}");
            }
            for spmm in [spmm_strip_kernel(b), spmm_dyn_kernel(b)] {
                let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
                spmm(cols, vals, &y, &mut clean);
                spmm(cols, vals, &y, &mut dirty);
                assert_eq!(bits(&clean), bits(&dirty), "spmm {b}");
            }
            let (mut clean, mut dirty) = (vec![0f32; d], vec![f32::NAN; d]);
            span_sweep_kernel(b)(cols, vals, &y, &mut clean[8..32], 8);
            span_sweep_kernel(b)(cols, vals, &y, &mut dirty[8..32], 8);
            assert_eq!(bits(&clean[8..32]), bits(&dirty[8..32]), "span {b}");
            assert!(
                dirty[..8].iter().chain(&dirty[32..]).all(|v| v.is_nan()),
                "span stays in span"
            );
        }
    }

    #[test]
    fn gather_batch_bit_identical_to_strip_per_row() {
        // Short rows (degree 1..6); the batch kernel must reproduce the
        // per-row strip kernel bit for bit, since hybrid's short class
        // claims bit-identity to the uniform path.
        let n = 24;
        let a = chain(n, 5);
        for d in [48usize, 96] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
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
                embed_batch_kernel(b)(&batch, &y, &mut band, &SigmoidKind::Exact);
                for (i, &u) in rows_in_batch.iter().enumerate() {
                    let mut z_strip = vec![0f32; d];
                    let (cols, vals) = a.row(u);
                    embed_strip_kernel(b)(
                        x.row(u),
                        cols,
                        vals,
                        &y,
                        &mut z_strip,
                        &SigmoidKind::Exact,
                    );
                    assert_eq!(&band[i * d..(i + 1) * d], &z_strip[..], "embed {b} d={d} row {u}");
                }
                // SpMM batch too.
                let mut band = vec![0f32; rows_in_batch.len() * d];
                spmm_batch_kernel(b)(&batch, &y, &mut band);
                for (i, &u) in rows_in_batch.iter().enumerate() {
                    let mut z_strip = vec![0f32; d];
                    let (cols, vals) = a.row(u);
                    spmm_strip_kernel(b)(cols, vals, &y, &mut z_strip);
                    assert_eq!(&band[i * d..(i + 1) * d], &z_strip[..], "spmm {b} d={d} row {u}");
                }
            }
        }
    }

    #[test]
    fn msg_fill_plus_span_sweep_bit_identical_to_strip() {
        // A heavy row (degree > H_CHUNK exercises the strip kernel's
        // chunked fold) computed as mega phases A + B must match the
        // strip kernel bit for bit, for any span split.
        let n = 90;
        let a = chain(n, 80);
        for d in [48usize, 96] {
            let x = feats(n, d, 0.3);
            let y = feats(n, d, 0.7);
            let (cols, vals) = a.row(7);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                // The labelled SOP reads the edge value in phase A, so
                // the value slices must split with the column slices.
                for sk in [SigmoidKind::Exact, SigmoidKind::ExactMinusEdge] {
                    let mut z_strip = vec![0f32; d];
                    embed_strip_kernel(b)(x.row(7), cols, vals, &y, &mut z_strip, &sk);
                    // Phase A: messages filled in two independent slices.
                    let mut h = vec![0f32; cols.len()];
                    let split = cols.len() / 3;
                    let (h0, h1) = h.split_at_mut(split);
                    embed_msg_kernel(b)(x.row(7), &cols[..split], &vals[..split], &y, &sk, h0);
                    embed_msg_kernel(b)(x.row(7), &cols[split..], &vals[split..], &y, &sk, h1);
                    // Phase B: every VLEN-aligned span split must agree.
                    for spans in [vec![d], vec![d / 2, d / 2], vec![VLEN; d / VLEN]] {
                        let mut z = vec![0f32; d];
                        let mut off = 0;
                        for w in spans {
                            span_sweep_kernel(b)(cols, &h, &y, &mut z[off..off + w], off);
                            off += w;
                        }
                        assert_eq!(z, z_strip, "embed mega {b} d={d} {sk:?}");
                    }
                }
                // SpMM: the values are the messages.
                let mut z_strip = vec![0f32; d];
                spmm_strip_kernel(b)(cols, vals, &y, &mut z_strip);
                let mut z = vec![0f32; d];
                let (lo, hi) = z.split_at_mut(d / 2);
                span_sweep_kernel(b)(cols, vals, &y, lo, 0);
                span_sweep_kernel(b)(cols, vals, &y, hi, d / 2);
                assert_eq!(z, z_strip, "spmm mega {b} d={d}");
            }
        }
    }
}
