//! # cache-sim — a set-associative cache hierarchy simulator
//!
//! The paper selects its Convolve configurations ("cache-friendly" ≈ 1 %
//! misses, "cache-unfriendly" ≈ 70 % misses out of ~20 million references)
//! by running the kernel under *cachegrind*. Valgrind is not available to
//! this reproduction, so this crate provides the same capability: feed an
//! address stream through a configurable L1/L2/L3 hierarchy and read back
//! per-level hit/miss counts.
//!
//! The simulator is deliberately in the cachegrind family: physical
//! addresses are taken at face value (no translation), replacement is
//! true LRU, write misses allocate, and there is no prefetcher — it
//! measures the *locality of the access pattern*, which is what the
//! CF/CU classification needs.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod profile;
pub mod stream;

pub use cache::SetAssocCache;
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::{AccessResult, Hierarchy, Level};
pub use profile::{classify, CacheBehavior, MemoryProfile};
