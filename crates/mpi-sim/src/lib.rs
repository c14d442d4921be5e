//! # mpi-sim — a discrete-event MPI cluster simulator
//!
//! The substrate for the paper's NAS Parallel Benchmark study (§III): a
//! small Linux cluster whose nodes can be frozen by SMIs.
//!
//! * [`cluster`] — job shape (nodes × ranks-per-node, HTT on/off) and
//!   per-node noise state;
//! * [`network`] — LogGP-style gigabit interconnect with per-node NIC
//!   serialization and a shared-memory fast path;
//! * [`program`] — SPMD rank programs; collectives are lowered to real
//!   point-to-point rounds (dissemination barrier, binomial trees,
//!   recursive doubling, pairwise exchange) so per-node freezes interact
//!   with every communication step;
//! * [`engine`] — the event loop mapping every timestamp through the
//!   owning node's freeze schedule.
//!
//! The engine never panics on bad input: [`run`] returns
//! `Result<RunOutcome, SimError>`, rejecting malformed jobs as
//! [`SimError::InvalidSpec`] and diagnosing unmatched messages as
//! [`SimError::Deadlock`] with the stuck ranks named. [`run_with`] adds
//! opt-in end-of-run audits via [`RunConfig`]. A [`Job`] validates and
//! lowers the programs once, so the repetitions of a campaign cell, which
//! differ only in node states and compute durations, pay for neither.
//!
//! ```
//! use mpi_sim::*;
//! use machine::SmiSideEffects;
//! use sim_core::{FreezeSchedule, SimDuration};
//!
//! // Four quiet nodes run a compute+allreduce job.
//! let spec = ClusterSpec::wyeast(4, 1, false).expect("valid shape");
//! let programs: Vec<RankProgram> = (0..4)
//!     .map(|_| RankProgram::new(vec![
//!         Op::Compute(SimDuration::from_millis(250)),
//!         Op::Allreduce { bytes: 64 },
//!     ]))
//!     .collect();
//! let nodes: Vec<NodeState> = (0..4)
//!     .map(|_| NodeState::uniform(FreezeSchedule::none(), SmiSideEffects::none(), 4))
//!     .collect();
//! let out = run(&spec, &nodes, &programs, &NetworkParams::gigabit_cluster())
//!     .expect("valid job");
//! assert!(out.seconds() >= 0.25);
//! assert_eq!(out.messages, 4 * 2); // recursive doubling: log2(4) rounds x 4 ranks
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cluster;
pub mod engine;
pub mod network;
pub mod program;

pub use cluster::{ClusterSpec, NodeState};
pub use engine::{run, run_with, Job, RunConfig, RunOutcome};
pub use network::{NetworkParams, NicState};
pub use program::{lower, LowOp, Op, RankProgram};
pub use sim_core::{BlockedOp, BlockedOpKind, SimError};
