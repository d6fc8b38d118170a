//! General-purpose SpMM — the vertex-wise aggregation kernel (Eq. 3).
//!
//! `Z = H × Y` with user-defined multiply (MOP) and accumulate (AOP):
//! `z_u = ⊕_{h_uv ≠ 0} φ(y_v, h_uv)`. The messages `H` were materialized
//! by the SDDMM phase and are *re-read* here — the second pass over
//! `O(nnz)` (or `O(d·nnz)`) data that the fused kernel avoids.

use fusedmm_core::driver::parallel_row_bands;
use fusedmm_core::part::PartitionStrategy;
use fusedmm_ops::{AOp, MOp, Message};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::edge_tensor::EdgeTensor;

/// Generalized SpMM over materialized messages.
///
/// `a` supplies the sparsity pattern and edge values (for MOPs that use
/// `a_uv`), `h` the per-edge messages in `a`'s CSR edge order, `y` the
/// neighbor features.
pub fn gspmm(a: &Csr, h: &EdgeTensor, y: &Dense, mop: &MOp, aop: &AOp) -> Dense {
    assert_eq!(h.nnz(), a.nnz(), "one message per nonzero required");
    assert_eq!(y.nrows(), a.ncols(), "Y must cover all source vertices");
    let d = y.ncols();
    assert!(
        h.is_scalar() || h.dim() == d,
        "vector messages must match the feature dimension ({} vs {d})",
        h.dim()
    );
    let mut z = Dense::zeros(a.nrows(), d);
    let identity = aop.identity();
    let rowptr = a.rowptr();
    parallel_row_bands(
        a,
        z.as_mut_slice(),
        d,
        None,
        PartitionStrategy::NnzBalanced,
        |rows, band, _| {
            let mut w = vec![0f32; d];
            for (i, u) in rows.enumerate() {
                let zu = &mut band[i * d..(i + 1) * d];
                let (cols, vals) = a.row(u);
                if cols.is_empty() {
                    zu.fill(0.0);
                    continue;
                }
                if identity != 0.0 {
                    zu.fill(identity);
                }
                let base = rowptr[u];
                for (k, (&v, &aval)) in cols.iter().zip(vals).enumerate() {
                    let e = base + k;
                    let msg = if h.is_scalar() {
                        Message::Scalar(h.scalar(e))
                    } else {
                        Message::Vector(h.msg(e))
                    };
                    mop.apply(msg, y.row(v), aval, &mut w);
                    aop.apply(zu, &w);
                }
            }
        },
    );
    z
}

/// Plain SpMM `Z = A × Y` (messages = edge weights, MUL/ASUM) — the
/// standard-semiring case DGL hands to vendor libraries, and the
/// operation Table VII compares against MKL.
pub fn spmm(a: &Csr, y: &Dense) -> Dense {
    let h = EdgeTensor::from_scalars(a.values());
    gspmm(a, &h, y, &MOp::Mul, &AOp::Sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn tri() -> Csr {
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 2.0);
        c.push(0, 2, 1.0);
        c.push(2, 0, 1.0);
        c.to_csr(Dedup::Last)
    }

    #[test]
    fn plain_spmm_known_answer() {
        let a = tri();
        let y = Dense::from_rows(3, 2, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]).unwrap();
        let z = spmm(&a, &y);
        // z0 = 2*y1 + 1*y2 = (7, 70); z2 = 1*y0
        assert_eq!(z.row(0), &[7.0, 70.0]);
        assert_eq!(z.row(1), &[0.0, 0.0]);
        assert_eq!(z.row(2), &[1.0, 10.0]);
    }

    #[test]
    fn scalar_messages_scale_neighbors() {
        let a = tri();
        let y = Dense::filled(3, 2, 1.0);
        let h = EdgeTensor::from_scalars(&[0.5, 0.25, 4.0]);
        let z = gspmm(&a, &h, &y, &MOp::Mul, &AOp::Sum);
        assert_eq!(z.row(0), &[0.75, 0.75]);
        assert_eq!(z.row(2), &[4.0, 4.0]);
    }

    #[test]
    fn vector_messages_with_max_aggregation() {
        let a = tri();
        let y = Dense::zeros(3, 2);
        let mut h = EdgeTensor::zeros(3, 2);
        h.msg_mut(0).copy_from_slice(&[1.0, -1.0]);
        h.msg_mut(1).copy_from_slice(&[0.5, 2.0]);
        h.msg_mut(2).copy_from_slice(&[3.0, 3.0]);
        // MOP Mul on vector messages multiplies by a_uv.
        let z = gspmm(&a, &h, &y, &MOp::Mul, &AOp::Max);
        // row0: max(2*[1,-1], 1*[0.5,2]) = [2, 2]
        assert_eq!(z.row(0), &[2.0, 2.0]);
        // row1 isolated -> zeros
        assert_eq!(z.row(1), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one message per nonzero")]
    fn message_count_mismatch_panics() {
        let a = tri();
        let y = Dense::zeros(3, 2);
        let h = EdgeTensor::zeros(2, 1);
        let _ = gspmm(&a, &h, &y, &MOp::Mul, &AOp::Sum);
    }

    #[test]
    fn rectangular_spmm() {
        let mut c = Coo::new(2, 4);
        c.push(0, 3, 1.0);
        c.push(1, 1, 2.0);
        let a = c.to_csr(Dedup::Last);
        let y = Dense::from_fn(4, 3, |r, _| r as f32);
        let z = spmm(&a, &y);
        assert_eq!(z.row(0), &[3.0, 3.0, 3.0]);
        assert_eq!(z.row(1), &[2.0, 2.0, 2.0]);
    }
}
