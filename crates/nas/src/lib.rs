//! # nas — NAS Parallel Benchmark workload models
//!
//! The paper measures the real NPB EP, BT and FT codes; this crate
//! reproduces them as timing models, not runs of the real codes.
//! [`model`] turns each `(benchmark, class, cluster shape)` cell into
//! per-rank [`RankProgram`](mpi_sim::RankProgram)s with the benchmark's
//! synchronization structure, calibrated to the paper's SMM-0 baselines
//! embedded in [`paper`]. SMI columns are predictions, not fits.
//! [`mod@mops`] converts a time into the paper's MOPs figure from standard
//! algorithmic operation counts.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod classes;
pub mod model;
pub mod mops;
pub mod paper;

pub use classes::Class;
pub use model::{calibrate_extra, compute_durations, programs, quiet_nodes, CellJob};
pub use mops::{mops, total_ops};
pub use paper::{htt_cell, serial_seconds, table_cell, Bench, HttCell, PaperCell};
