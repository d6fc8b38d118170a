//! SDDMM-only edge scoring: the message-generation half of FusedMM,
//! evaluated for explicit `(u, v)` candidate pairs.
//!
//! Link-prediction style serving asks "how strongly would `u` connect
//! to `v`?" for candidate pairs that mostly are *not* edges of the
//! stored graph. That is exactly the first three FusedMM steps — VOP,
//! ROP, SOP — with no MOP/AOP aggregation, so no `d`-vector per pair is
//! ever materialized beyond one thread-local scratch row.

use fusedmm_ops::OpSet;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

/// Score each `(u, v)` pair under `ops`' message model:
/// `score = SOP(ROP(VOP(x_u, y_v, a_uv)), a_uv)`.
///
/// `a_uv` is the stored edge weight when `(u, v)` is an edge of `a` and
/// `1.0` otherwise (a candidate edge is scored as if unweighted). When
/// ROP is a NOOP the d-dimensional message is collapsed to its sum
/// after SOP, keeping the result one scalar per pair.
///
/// # Panics
/// Panics when shapes are inconsistent or a pair index is out of range
/// ([`crate::FrontEnd::score_edges`] is the fallible wrapper).
pub fn score_edges(
    a: &Csr,
    pairs: &[(usize, usize)],
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
) -> Vec<f32> {
    score_edges_banded(a, 0, pairs, x, 0, y, ops)
}

/// [`score_edges`] against a PART1D row band: `a_band` holds global
/// rows `band_start..` under local indices (edge-weight lookups shift
/// by `band_start`), `x` holds global rows `x_start..` (the whole
/// matrix at 0, or a replica's band), and `y` stays global — source `u`
/// and target `v` are global vertex ids.
///
/// # Panics
/// Panics when shapes are inconsistent, a source falls outside the rows
/// `x` holds, or a target outside `y`.
pub fn score_edges_banded(
    a_band: &Csr,
    band_start: usize,
    pairs: &[(usize, usize)],
    x: &Dense,
    x_start: usize,
    y: &Dense,
    ops: &OpSet,
) -> Vec<f32> {
    let mut out = vec![0f32; pairs.len()];
    score_banded_into(a_band, band_start, pairs, x, x_start, y, ops, &mut out);
    out
}

/// [`score_edges_banded`] into `out`, one score per pair.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_banded_into(
    a_band: &Csr,
    band_start: usize,
    pairs: &[(usize, usize)],
    x: &Dense,
    x_start: usize,
    y: &Dense,
    ops: &OpSet,
    out: &mut [f32],
) {
    assert_eq!(x.ncols(), y.ncols(), "X and Y must share the embedding dimension");
    assert_eq!(out.len(), pairs.len(), "one score per pair");
    let d = x.ncols();
    let band_end = band_start + a_band.nrows();
    let x_rows = x_start..x_start + x.nrows();
    let mut scratch = vec![0f32; d];
    for (&(u, v), score) in pairs.iter().zip(out) {
        assert!(x_rows.contains(&u), "source vertex {u} out of range for X rows {x_rows:?}");
        assert!(v < y.nrows(), "target vertex {v} out of range for {} rows", y.nrows());
        let auv = if (band_start..band_end).contains(&u) {
            a_band.get(u - band_start, v).unwrap_or(1.0)
        } else {
            1.0
        };
        ops.vop.apply(x.row(u - x_start), y.row(v), auv, &mut scratch);
        *score = match ops.rop.apply(&scratch) {
            Some(s) => ops.sop.apply_scalar(s, auv),
            None => {
                ops.sop.apply_vec(&mut scratch, auv);
                scratch.iter().sum()
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_ops::sigmoid;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn setup() -> (Csr, Dense, Dense) {
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 2.0);
        c.push(1, 2, 1.0);
        let a = c.to_csr(Dedup::Sum);
        let x = Dense::from_rows(3, 2, &[1.0, 0.5, -0.5, 1.0, 0.25, 0.75]).unwrap();
        let y = Dense::from_rows(3, 2, &[0.2, 0.4, 0.6, 0.8, 1.0, -1.0]).unwrap();
        (a, x, y)
    }

    #[test]
    fn sigmoid_scores_are_sigmoid_of_dot() {
        let (a, x, y) = setup();
        let ops = OpSet::sigmoid_embedding(None);
        let scores = score_edges(&a, &[(0, 2), (2, 0)], &x, &y, &ops);
        // x0·y2 with x0 = (1, 0.5), y2 = (1, -1).
        let dot0 = 1.0 * 1.0 - 0.5;
        let dot1 = 0.25 * 0.2 + 0.75 * 0.4;
        assert!((scores[0] - sigmoid(dot0)).abs() < 1e-6);
        assert!((scores[1] - sigmoid(dot1)).abs() < 1e-6);
    }

    #[test]
    fn existing_edges_use_stored_weight_for_gcn_pattern() {
        let (a, x, y) = setup();
        // GCN pattern: VOP=SEL2ND, ROP=NOOP, SOP=NOOP -> score is the
        // sum of y_v lanes (edge weight only enters MOP, not scoring).
        let ops = OpSet::gcn();
        let scores = score_edges(&a, &[(0, 1)], &x, &y, &ops);
        assert!((scores[0] - (0.6 + 0.8)).abs() < 1e-6);
    }

    #[test]
    fn fr_scores_scale_distance() {
        let (a, x, y) = setup();
        let ops = OpSet::fr_model(2.0);
        let scores = score_edges(&a, &[(1, 1)], &x, &y, &ops);
        let dx = -0.5 - 0.6;
        let dy = 1.0 - 0.8;
        let norm = ((dx * dx + dy * dy) as f32).sqrt();
        assert!((scores[0] - 2.0 * norm).abs() < 1e-5, "got {}, want {}", scores[0], 2.0 * norm);
    }

    #[test]
    fn banded_scores_shift_the_weight_lookup_only() {
        let (a, x, y) = setup();
        let ops = OpSet::sigmoid_embedding(None);
        // Band holding global rows 1..3; edge (1, 2) has stored weight
        // 1.0, pair (2, 0) is a candidate (weight defaults to 1.0).
        let band = a.row_band(1..3);
        let whole = score_edges(&a, &[(1, 2), (2, 0)], &x, &y, &ops);
        let banded = score_edges_banded(&band, 1, &[(1, 2), (2, 0)], &x, 0, &y, &ops);
        assert_eq!(whole, banded, "band offset must not change any score");
        // X holding only global rows 1..3 reads the same rows.
        let xb = Dense::from_rows(2, 2, &x.as_slice()[2..]).unwrap();
        let local = score_edges_banded(&band, 1, &[(1, 2), (2, 0)], &xb, 1, &y, &ops);
        assert_eq!(whole, local, "X's offset must not change any score");
    }

    #[test]
    fn empty_pair_list_is_empty() {
        let (a, x, y) = setup();
        assert!(score_edges(&a, &[], &x, &y, &OpSet::sigmoid_embedding(None)).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_panics() {
        let (a, x, y) = setup();
        let _ = score_edges(&a, &[(0, 9)], &x, &y, &OpSet::sigmoid_embedding(None));
    }
}
