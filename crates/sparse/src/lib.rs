//! Sparse and dense matrix substrate for the FusedMM kernel.
//!
//! The FusedMM paper (IPDPS 2021) computes `Z = FusedMM(A, X, Y)` where
//! `A` is an `m × n` sparse adjacency matrix in Compressed Sparse Row
//! (CSR) form, `X` is an `m × d` dense feature matrix, `Y` is an `n × d`
//! dense feature matrix, and `Z` is the `m × d` output. This crate
//! provides those containers plus the supporting formats used while
//! building them:
//!
//! * [`Coo`] — coordinate-format triples, the natural output of graph
//!   generators and file readers;
//! * [`Csr`] — the kernel input format, with O(1) row access;
//! * [`Dense`] — row-major dense matrices over 64-byte-aligned storage;
//! * [`Permutation`] — vertex renumbering with O(1) forward and inverse
//!   maps, applied symmetrically to [`Csr`] by graph-reordering passes;
//! * row slicing ([`mod@slice`]) to extract the minibatch submatrices the
//!   paper's problem setting describes (a rectangular slice of the
//!   adjacency matrix plus the matching rows of `X`);
//! * Matrix Market / edge-list IO ([`io`]).
//!
//! All indices are `usize` and all values default to `f32`, matching the
//! paper's single-precision evaluation and its 8-byte-index + 4-byte-value
//! memory model (12 bytes per nonzero).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod aligned;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod io;
pub mod perm;
pub mod slice;

pub use aligned::{AlignedVec, BufferHome};
pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use error::SparseError;
pub use perm::Permutation;

/// Number of bytes the paper charges per stored nonzero of `A`
/// (8-byte index + 4-byte single-precision value).
pub const BYTES_PER_NNZ: usize = 12;

/// Estimated bytes to store the FusedMM operands per the paper's §IV-C
/// memory model: `8·m·d + 4·n·d + 12·nnz` (X and Z at `4·m·d` each,
/// Y at `4·n·d`, A at 12 bytes per nonzero).
pub fn fusedmm_bytes(m: usize, n: usize, nnz: usize, d: usize) -> usize {
    8 * m * d + 4 * n * d + BYTES_PER_NNZ * nnz
}

/// Extra bytes an *unfused* SDDMM→SpMM pipeline needs for the
/// intermediate message matrix `H` when each edge carries a `msg_dim`-
/// dimensional message (`12·nnz·msg_dim` per the paper's model; for
/// scalar messages `msg_dim = 1`).
pub fn unfused_intermediate_bytes(nnz: usize, msg_dim: usize) -> usize {
    BYTES_PER_NNZ * nnz * msg_dim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_model_matches_paper_formula() {
        // Eq. in §IV-C: 8md + 4nd + 12nnz.
        assert_eq!(fusedmm_bytes(10, 20, 100, 8), 8 * 10 * 8 + 4 * 20 * 8 + 12 * 100);
    }

    #[test]
    fn unfused_h_grows_linearly_with_message_dim() {
        let scalar = unfused_intermediate_bytes(1000, 1);
        let vector = unfused_intermediate_bytes(1000, 128);
        assert_eq!(vector, 128 * scalar);
    }
}
