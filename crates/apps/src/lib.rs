//! # apps — the paper's multithreaded workloads
//!
//! The §IV applications, reproduced as timing models on the simulated
//! machine, not runs of the real codes: [`convolve_model`] builds each
//! Convolve configuration's access stream, classifies it with
//! `cache-sim` and runs the Figure-1 sweeps; [`unixbench`] defines the
//! five-test UnixBench subset with the George-baseline index arithmetic,
//! and [`ubench_model`] runs the suite for Figure 2.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod convolve_model;
pub mod ubench_model;
pub mod unixbench;

pub use convolve_model::{run_convolve, ConvolveConfig, ConvolveOutcome, ConvolveRun};
pub use ubench_model::{run_suite, UnixBenchReport, TEST_DURATION};
pub use unixbench::{index, UbTest};
