//! # apps — the paper's multithreaded workloads
//!
//! The §IV applications: [`convolve`] is the real threaded convolution
//! kernel (block decomposition, thread-local writes, exactly the paper's
//! design) with [`convolve_model`] providing the Figure-1 experiment
//! runs on the simulated machine; [`unixbench`] defines the five-test
//! UnixBench subset with the George-baseline index arithmetic plus real
//! work units, and [`ubench_model`] runs the suite on the simulated
//! machine for Figure 2.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod convolve;
pub mod convolve_model;
pub mod ubench_model;
pub mod unixbench;

pub use convolve::{convolve_blocked, convolve_serial, Image, Kernel};
pub use convolve_model::{run_convolve, ConvolveConfig, ConvolveOutcome, ConvolveRun};
pub use ubench_model::{run_suite, UbCosts, UnixBenchReport, TEST_DURATION};
pub use unixbench::{index, UbTest};
