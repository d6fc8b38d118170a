//! Benchmark harness plumbing shared by the `repro-*` binaries and the
//! criterion benches.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
//! recorded runs). This library holds the common pieces: workload
//! construction from the dataset registry, kernel-method wrappers,
//! paper-style table printing, and the out-of-memory policy that
//! reproduces Table VI's `×` entries without actually exhausting RAM.
//!
//! Environment knobs (all optional):
//! * `FUSEDMM_SCALE` — multiplier on each dataset's recommended
//!   stand-in scale (default 1.0; smaller = faster);
//! * `FUSEDMM_REPS` — timed repetitions per cell (default 3; the paper
//!   uses 10);
//! * `FUSEDMM_MEM_BUDGET_MB` — intermediate-memory budget for the
//!   unfused baseline before a cell reports `×` (default 1024 MiB).

#![forbid(unsafe_code)]

pub mod figures;
pub mod methods;
pub mod report;
pub mod workloads;

pub use methods::{run_method, Method};
pub use report::{fmt_cell, Table};
pub use workloads::{env_f64, env_usize, kernel_workload, reps, scale_factor, Workload};
