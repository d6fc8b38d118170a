//! Graph generators and the benchmark dataset registry.
//!
//! The paper evaluates on eight real-world graphs (Table V: Cora,
//! Harvard, Pubmed, Flickr, Ogbprot., Amazon, Youtube, Orkut) downloaded
//! from networkrepository.com and the SuiteSparse collection, plus RMAT
//! graphs generated with PaRMAT for the sensitivity study (Fig. 11a).
//! Offline we synthesize stand-ins:
//!
//! * [`rmat()`](rmat::rmat) — a recursive-matrix (RMAT) generator, our PaRMAT
//!   equivalent, producing the skewed degree distributions of the
//!   paper's social-network graphs;
//! * [`erdos`] — Erdős–Rényi G(n, m) uniform random graphs;
//! * [`planted`] — planted-partition (stochastic block model) graphs
//!   with ground-truth communities, used for the Cora/Pubmed node
//!   classification accuracy experiment (§V-D);
//! * [`datasets`] — a registry mapping each Table V graph to a synthetic
//!   stand-in with matched vertex count (optionally scaled down),
//!   matched average degree, and a power-law tail;
//! * [`stats`] — degree statistics used by tests and harness output;
//! * [`reordering`] — degree-sort and RCM-style vertex orderings that
//!   improve locality on skewed graphs without changing results.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod erdos;
pub mod features;
pub mod planted;
pub mod reordering;
pub mod rmat;
pub mod stats;

pub use datasets::{Dataset, DatasetSpec};
pub use erdos::erdos_renyi;
pub use features::random_features;
pub use planted::{planted_partition, PlantedGraph};
pub use reordering::{Permutation, Reordering};
pub use rmat::{rmat, RmatConfig};
pub use stats::GraphStats;

/// FNV-1a over little-endian bytes: the tests' fingerprint of a
/// generator's output.
#[cfg(test)]
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
