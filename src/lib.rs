//! # smi-lab — a System Management Interrupt noise laboratory
//!
//! A simulation-based reproduction of *"The Effects of System Management
//! Interrupts on Multithreaded, Hyper-threaded, and MPI Applications"*
//! (Macarenco, Frye, Hamlin, Karavanic — ICPP 2016).
//!
//! Real SMIs require ring-0 access to chipset port 0xB2, a cooperative
//! BIOS, and — for the paper's headline results — a 16-node cluster.
//! This crate substitutes a deterministic discrete-event model whose
//! central object is the [`FreezeSchedule`](sim_core::FreezeSchedule):
//! windows of wall time during which every logical CPU of a node makes no
//! progress, invisibly to the OS. Everything else in the paper is built
//! on top and re-exported here:
//!
//! * [`sim_core`] — simulated time, the freeze algebra, deterministic RNG;
//! * [`cache_sim`] — a cachegrind-style hierarchy simulator;
//! * [`machine`] — an SMP node with Hyper-Threading, CPU hotplug, a
//!   CFS-like scheduler and the SMI side-effect executor;
//! * [`smi_driver`] — the Blackbox SMI driver model, hwlat-style
//!   detection, BIOSBITS compliance, profiler attribution;
//! * [`mpi_sim`] — a cluster + MPI runtime with collectives lowered to
//!   point-to-point rounds;
//! * [`nas`] — NAS EP/BT/FT kernels (verified against published check
//!   values) and calibrated workload models;
//! * [`apps`] — Convolve and UnixBench;
//! * [`analysis`] — the harness that regenerates every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use smi_lab::prelude::*;
//!
//! // One SMI per second, 100-110 ms in SMM (the paper's "long" class).
//! let driver = SmiDriver::new(SmiDriverConfig::mpi_study(SmiClass::Long));
//! let mut rng = SimRng::new(42);
//! let schedule = driver.schedule_for_node(&mut rng);
//!
//! // 10 seconds of application work now takes ~11.2 wall seconds.
//! let end = schedule.advance(SimTime::ZERO, SimDuration::from_secs(10));
//! assert!(end > SimTime::from_secs(11));
//!
//! // ...and a TSC-polling detector recovers every injected SMI.
//! let report = HwlatDetector::default()
//!     .detect(&schedule, SimTime::ZERO, end, &Tsc::e5520());
//! assert_eq!(report.count(), schedule.count_between(SimTime::ZERO, end));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use analysis;
pub use apps;
pub use cache_sim;
pub use machine;
pub use mpi_sim;
pub use nas;
pub use sim_core;
pub use smi_driver;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use analysis::RunOptions;
    pub use machine::{NodeSpec, SmiSideEffects, Topology};
    pub use mpi_sim::{ClusterSpec, NetworkParams, NodeState, Op, RankProgram};
    pub use nas::{Bench, Class};
    pub use sim_core::{
        DurationModel, FreezeSchedule, PeriodicFreeze, SimDuration, SimRng, SimTime, TriggerPolicy,
    };
    pub use smi_driver::{HwlatDetector, SmiClass, SmiDriver, SmiDriverConfig, Tsc};
}
