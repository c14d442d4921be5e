//! # nas — NAS Parallel Benchmark kernels and workload models
//!
//! Two layers, mirroring how the paper uses the NPB suite:
//!
//! 1. **Real kernels** — faithful serial implementations of the
//!    computational cores, used to anchor the workload models in real
//!    algorithms and verified against published NPB check values:
//!    [`randlc`] (the NPB LCG), [`ep`] (Marsaglia-polar Gaussian pairs,
//!    class S verified bit-exactly), [`bt`] (5×5 block-tridiagonal Thomas
//!    solver), [`ft`] (radix-2 complex FFT, 3-D transform, evolve step).
//! 2. **Timing models** — [`model`] turns each `(benchmark, class,
//!    cluster shape)` cell into per-rank [`RankProgram`](mpi_sim::RankProgram)s
//!    with the benchmark's real synchronization structure, calibrated to
//!    the paper's SMM-0 baselines embedded in [`paper`]. SMI columns are
//!    predictions, not fits.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bt;
pub mod classes;
pub mod ep;
pub mod ft;
pub mod mini_bt;
pub mod model;
pub mod mops;
pub mod paper;
pub mod randlc;

pub use classes::Class;
pub use model::{calibrate_extra, compute_durations, programs, quiet_nodes, CellJob};
pub use mops::{mops, total_ops};
pub use paper::{htt_cell, serial_seconds, table_cell, Bench, HttCell, PaperCell};
