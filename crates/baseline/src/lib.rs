//! Baseline implementations the paper compares FusedMM against.
//!
//! Three comparators appear in the evaluation:
//!
//! * **DGL kernels** (Tables VI, VIII; Figs. 8–11) — separate
//!   general-purpose SDDMM and SpMM kernels that materialize the
//!   edge-message tensor `H` between phases. Reproduced in [`sddmm`],
//!   [`spmm`], and composed per application in [`unfused`]. The
//!   intermediate allocation (`O(d·nnz)` for vector messages) is
//!   tracked, since it drives the paper's memory results (Fig. 10b) and
//!   out-of-memory entries (Table VI).
//! * **PyTorch dense ops** (Table VIII) — the embedding update written
//!   as a chain of dense tensor operations with full temporaries,
//!   including the dense `B × n` score matrix. Reproduced in [`tensor`].
//! * **Intel MKL inspector–executor SpMM** (Table VII) — an
//!   analysis-then-execute sparse matrix × dense matrix product.
//!   Reproduced from scratch in [`iespmm`].
//!
//! All baselines are multithreaded with the same PART1D row bands the
//! fused kernel uses, so comparisons isolate *fusion* and *blocking*,
//! not threading quality — mirroring the paper, where DGL's kernels are
//! also parallel and "scale well" (Fig. 10a) yet lose on memory traffic.

#![forbid(unsafe_code)]

pub mod edge_tensor;
pub mod iespmm;
pub mod sddmm;
pub mod spmm;
pub mod tensor;
pub mod unfused;

pub use edge_tensor::EdgeTensor;
pub use iespmm::{IeSpmm, IeSpmmStats};
pub use unfused::{unfused_pipeline, UnfusedOutput};
