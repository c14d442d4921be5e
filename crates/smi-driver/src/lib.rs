//! # smi-driver — the Blackbox SMI driver model, detection, and tooling
//!
//! Reproduces the instrumentation side of the paper:
//!
//! * [`driver`] — the modified Blackbox SMI driver ("one SMI every *x*
//!   jiffies", short 1–3 ms / long 100–110 ms residency bands, TSC-based
//!   latency measurement). On real hardware this is a kernel module
//!   writing to I/O port 0xB2; here it produces
//!   [`FreezeSchedule`](sim_core::FreezeSchedule)s for simulated nodes.
//! * [`tsc`] — the invariant Time Stamp Counter, the only clock that
//!   keeps counting through SMM and therefore the basis of all detection.
//! * [`detector`] — an hwlat-style user-space detector that recovers SMI
//!   count and residency from TSC polling gaps.
//! * [`bits`] — the BIOSBITS 150 µs residency compliance check.
//! * [`attribution`] — quantifies how a sampling profiler misattributes
//!   SMM time to the interrupted code (§II.A's tool-developer concern).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod attribution;
pub mod bits;
pub mod detector;
pub mod driver;
pub mod msr;
pub mod tsc;

pub use attribution::{profile, AttributionReport, Symbol, SymbolShare};
pub use bits::{check_bits, check_compliance, ComplianceReport, BITS_THRESHOLD};
pub use detector::{DetectedSmi, DetectionReport, HwlatDetector};
pub use driver::{LatencyStats, SmiClass, SmiDriver, SmiDriverConfig, JIFFY};
pub use msr::{SmiCountMsr, MSR_SMI_COUNT};
pub use tsc::Tsc;
