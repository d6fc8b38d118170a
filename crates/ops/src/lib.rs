//! The five-step user-defined operator framework of FusedMM.
//!
//! FusedMM (§III of the paper) splits the fused message generation +
//! aggregation `z_u = ⊕_{v∈N(u)} φ(x_u, y_v, ψ(x_u, y_v, a_uv))` into
//! five steps, each replaceable by the application:
//!
//! 1. **VOP** — elementwise binary op on the two feature vectors:
//!    `z = x ⊙ y`;
//! 2. **ROP** — optional reduction of that vector to a scalar:
//!    `s = ⊕_i z_i`;
//! 3. **SOP** — scaling / nonlinearity on the scalar (or on the vector
//!    when ROP is a NOOP): `h = σ(s)`;
//! 4. **MOP** — "multiply" the message with the neighbor feature:
//!    `w = h ⊙ y`;
//! 5. **AOP** — accumulate into the output row: `z_u = z_u ⊕ w`.
//!
//! Steps are expressed as enums covering every standard operation of the
//! paper's Table II (ADD, MUL, SEL2ND, SIGMOID, SCAL, RSUM, RMUL, NORM,
//! ASUM, AMAX, NOOP) plus `Custom` variants taking arbitrary closures —
//! the Rust analogue of the C library's function pointers. [`OpSet`]
//! bundles one choice per step, and [`OpSet::sigmoid_embedding`],
//! [`OpSet::fr_model`], [`OpSet::gcn`] and [`OpSet::gnn_mlp`] are the
//! four application presets of Table III.

#![forbid(unsafe_code)]

pub mod kinds;
pub mod mlp;
pub mod opset;
pub mod sigmoid;

pub use kinds::{AOp, MOp, Message, ROp, SOp, VOp};
pub use mlp::Mlp;
pub use opset::{OpSet, Pattern};
pub use sigmoid::{sigmoid, SigmoidLut};
