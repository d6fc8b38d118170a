//! End-to-end applications built on the FusedMM kernel.
//!
//! The paper's evaluation exercises the kernel through four high-level
//! algorithms (Fig. 1 / Table III); this crate implements them as a
//! downstream user would:
//!
//! * [`force2vec`] — the Force2Vec graph-embedding trainer of the
//!   end-to-end experiment (Table VIII), with three interchangeable
//!   backends: FusedMM, unfused DGL-style kernels, and PyTorch-style
//!   dense ops;
//! * [`frlayout`] — Fruchterman–Reingold force-directed graph layout;
//! * [`gcn`] — graph convolutional network layers over the SpMM
//!   specialization, with symmetric adjacency normalization;
//! * [`gnn_mlp`] — a GNN layer with MLP messages and max pooling;
//! * [`sage`] — GraphSAGE-mean layers (mean pooling via pre-scaled ASUM);
//! * [`sampler`] — negative-edge sampling for embedding training;
//! * [`classify`] + [`metrics`] — softmax-regression node
//!   classification and the F1-micro score of §V-D.

#![forbid(unsafe_code)]

pub mod classify;
pub mod force2vec;
pub mod frlayout;
pub mod gcn;
pub mod gnn_mlp;
pub mod metrics;
pub mod sage;
pub mod sampler;

pub use classify::SoftmaxRegression;
pub use force2vec::{Backend, Force2Vec, Force2VecConfig};
pub use frlayout::{FrLayout, FrLayoutConfig};
pub use gcn::{normalize_adjacency, GcnLayer};
pub use metrics::{accuracy, f1_macro, f1_micro};
pub use sage::{row_normalize, SageLayer};
