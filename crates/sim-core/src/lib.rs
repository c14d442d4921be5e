//! # sim-core — deterministic discrete-event simulation core
//!
//! Foundation crate of the SMI noise laboratory, a reproduction of
//! *"The Effects of System Management Interrupts on Multithreaded,
//! Hyper-threaded, and MPI Applications"* (Macarenco, Frye, Hamlin,
//! Karavanic — ICPP 2016).
//!
//! Everything in the laboratory is built on four ideas from this crate:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//!   with the wall-time vs work-time distinction documented in [`time`].
//! * [`FreezeSchedule`] — the model of System Management Mode residency:
//!   node-global windows of wall time during which no host work proceeds.
//!   Its `advance`/`work_between` pair is the algebra the whole
//!   reproduction rests on.
//! * [`SimRng`] — a deterministic xoshiro256++ generator with
//!   hierarchical, label-derived seeding, so every experiment cell is
//!   independently reproducible.
//! * [`EventQueue`] — a FIFO-tie-broken discrete-event queue used by the
//!   node scheduler and the cluster simulator.
//!
//! Descriptive statistics ([`stats`]) and trace recording ([`trace`])
//! round out the toolkit.
//!
//! ```
//! use sim_core::*;
//!
//! // The paper's long SMI class: 100-110 ms in SMM, one trigger per second.
//! let schedule = FreezeSchedule::periodic(PeriodicFreeze {
//!     first_trigger: SimTime::from_millis(400),
//!     period: SimDuration::from_secs(1),
//!     durations: DurationModel::long_smi(),
//!     policy: TriggerPolicy::SkipWhileFrozen,
//!     seed: 42,
//! });
//!
//! // Ten seconds of application work stretches by ~10.5 % of wall time...
//! let end = schedule.advance(SimTime::ZERO, SimDuration::from_secs(10));
//! assert!(end > SimTime::from_secs(11) && end < SimTime::from_millis(11_300));
//!
//! // ...and the algebra is exactly invertible.
//! assert_eq!(schedule.work_between(SimTime::ZERO, end), SimDuration::from_secs(10));
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod error;
pub mod event;
pub mod freeze;
pub mod perf;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use error::{BlockedOp, BlockedOpKind, SimError};
pub use event::{EventQueue, QueueStats};
pub use freeze::{DurationModel, FreezeSchedule, PeriodicFreeze, TriggerPolicy};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceKind};
