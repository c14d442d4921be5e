//! # machine — a simulated SMP node with Hyper-Threading
//!
//! Models the paper's test machines (Dell PowerEdge R410 / Xeon E5620 for
//! the multithreaded study, Wyeast's Xeon E5520 nodes for the MPI study)
//! at the level of detail the experiments need:
//!
//! * [`topology`] — physical cores × SMT threads, Linux-style logical CPU
//!   numbering, CPU hotplug (the paper's method of emulating HTT on/off);
//! * [`sysfs`] — the textual `/sys/devices/system/cpu` interface the
//!   paper's scripts used to offline siblings;
//! * [`smt`] — the Hyper-Threading throughput model (pipeline sharing +
//!   shared-cache contention);
//! * [`workload`] / [`scheduler`] — thread programs (compute, syscalls,
//!   blocking pipes) executed under a CFS-like least-vruntime scheduler;
//! * [`executor`] — the wall-time mapping under a
//!   [`FreezeSchedule`](sim_core::FreezeSchedule), including SMM
//!   rendezvous and post-SMI cache-refill side effects.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod energy;
pub mod executor;
pub mod gantt;
pub mod scheduler;
pub mod smt;
pub mod sysfs;
pub mod topology;
pub mod workload;

pub use energy::PowerModel;
pub use executor::{ExecOutcome, NodeExecutor, SmiSideEffects, RESIDENCY_LOSS_CAP};
pub use gantt::render_gantt;
pub use scheduler::{run, run_with_trace, SchedError, SchedOutcome, SchedParams};
pub use smt::{pair_rates, ExecProfile, SmtParams};
pub use sysfs::{CpuSysfs, SysfsError};
pub use topology::{CoreId, CpuId, NodeSpec, Topology};
pub use workload::{Phase, PipeId, ThreadProgram, ThreadSpec};
