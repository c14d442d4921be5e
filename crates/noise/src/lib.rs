//! Noise-model plugins: deterministic, seed-driven perturbation schedules.
//!
//! The paper studies exactly one perturbation — periodic short/long SMM
//! freezes injected by the Blackbox driver — but its absorption and
//! variability conclusions generalize to any noise source that steals
//! time from a core. This crate turns "what steals the time" into a
//! plugin surface: a [`NoiseModel`] maps `(node, core, horizon, seed)` to
//! a [`FreezeSchedule`], and a typed [`NoiseSpec`] names a model plus its
//! parameters, serializes through `jsonio` (so a cell's parameters — and
//! with them the runner's content-hashed cache key — pin the exact noise
//! configuration), and parses back from the `--noise` CLI syntax.
//!
//! ## Determinism contract
//!
//! Every model draws exclusively from [`SimRng`] streams derived as
//! `SimRng::from_path(seed, [model, node, core])`. Two consequences the
//! property tests lock in:
//!
//! * the same `(spec, node, core, horizon, seed)` always yields the same
//!   window list, byte for byte, independent of call order or `--jobs`;
//! * distinct `(node, core)` pairs get decorrelated streams without any
//!   shared mutable state, so schedules can be built in any order.
//!
//! The periodic-SMI model wraps [`smi_driver::SmiDriver`] — the same
//! generator, the same draw order — so campaigns expressed through the
//! noise subsystem reproduce the historical golden digests byte for byte.
//!
//! ## The scenario families
//!
//! | spec name           | shape                                          |
//! |---------------------|------------------------------------------------|
//! | `periodic-smi`      | the paper's whole-node periodic SMM freezes    |
//! | `core-jitter`       | per-core Poisson-like OS/daemon preemptions    |
//! | `smt-slowdown`      | per-core windows that *degrade* throughput     |
//! | `phase-offset`      | multi-node SMIs at a controlled phase offset   |
//! | `correlated-bursts` | cross-node burst trains from a shared epoch    |
//!
//! `core-jitter` follows the OpenMP-runtime variability characterization
//! of Cui et al.; `smt-slowdown` models the SMT sibling contention SYNPA
//! quantifies (both in PAPERS.md). All four non-SMI families are held at
//! the same default *noise budget* (expected stolen fraction ≈ 2.1 %,
//! the long-SMI budget at a 5 s period) so studies compare noise *shape*
//! at fixed total stolen time.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

use mpi_sim::{ClusterSpec, NodeState};
use sim_core::{FreezeSchedule, SimDuration, SimError, SimRng};

mod models;

pub use models::{CoreJitter, CorrelatedBursts, PeriodicSmi, PhaseOffset, SmtSlowdown};

/// A deterministic noise source: maps a `(node, core)` coordinate and a
/// campaign seed to that core's perturbation schedule.
pub trait NoiseModel {
    /// Stable spec name (the `--noise` prefix, e.g. `"core-jitter"`).
    fn name(&self) -> &'static str;

    /// One-line human description with the configured parameters.
    fn describe(&self) -> String;

    /// Check the parameters describe a generable schedule; the typed
    /// error lands in the manifest when a campaign cell is quarantined.
    fn validate(&self) -> Result<(), SimError>;

    /// Build the schedule for one `(node, core)` coordinate covering at
    /// least `[0, horizon)`. Deterministic in all four arguments.
    fn schedule(
        &self,
        node: u32,
        core: u32,
        horizon: SimDuration,
        seed: u64,
    ) -> Result<FreezeSchedule, SimError>;

    /// Whether schedules differ per core (`true`) or the whole node
    /// shares one (`false`, the SMI families).
    fn per_core(&self) -> bool;

    /// Expected long-run stolen fraction per core — the model's noise
    /// budget.
    fn duty(&self) -> f64;

    /// Relative tolerance on the realized stolen fraction over a long
    /// horizon (models with burstier arrivals get wider bands).
    fn duty_tolerance(&self) -> f64;
}

/// A named, typed noise configuration: the serializable face of a
/// [`NoiseModel`]. Cells embed `spec.to_json()` in their parameters, so
/// the runner's content-hashed cache key pins the exact configuration.
#[derive(Clone, Debug, jsonio::ToJson)]
pub enum NoiseSpec {
    /// The paper's periodic whole-node SMM freezes.
    PeriodicSmi(PeriodicSmi),
    /// Per-core Poisson-like OS-jitter preemptions.
    CoreJitter(CoreJitter),
    /// Per-core SMT-contention slowdown windows.
    SmtSlowdown(SmtSlowdown),
    /// Multi-node periodic SMIs at a controlled phase offset.
    PhaseOffset(PhaseOffset),
    /// Correlated cross-node burst trains.
    CorrelatedBursts(CorrelatedBursts),
}

impl NoiseSpec {
    /// The model behind this spec.
    pub fn as_model(&self) -> &dyn NoiseModel {
        match self {
            NoiseSpec::PeriodicSmi(m) => m,
            NoiseSpec::CoreJitter(m) => m,
            NoiseSpec::SmtSlowdown(m) => m,
            NoiseSpec::PhaseOffset(m) => m,
            NoiseSpec::CorrelatedBursts(m) => m,
        }
    }

    /// Parse the `--noise` syntax: `name` or `name:key=value,key=value`.
    /// Unknown names and keys are typed [`SimError::InvalidSpec`]s;
    /// omitted keys keep the model's fixed-budget default.
    pub fn parse(text: &str) -> Result<NoiseSpec, SimError> {
        let text = text.trim();
        let (name, params) = match text.split_once(':') {
            Some((n, p)) => (n.trim(), p.trim()),
            None => (text, ""),
        };
        let mut spec = match name {
            "periodic-smi" => NoiseSpec::PeriodicSmi(PeriodicSmi::default()),
            "core-jitter" => NoiseSpec::CoreJitter(CoreJitter::default()),
            "smt-slowdown" => NoiseSpec::SmtSlowdown(SmtSlowdown::default()),
            "phase-offset" => NoiseSpec::PhaseOffset(PhaseOffset::default()),
            "correlated-bursts" => NoiseSpec::CorrelatedBursts(CorrelatedBursts::default()),
            other => {
                return Err(SimError::invalid(
                    "noise spec",
                    format!(
                        "unknown noise model {other:?}; known models: {}",
                        MODEL_NAMES.join(", ")
                    ),
                ))
            }
        };
        for kv in params.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let Some((key, value)) = kv.split_once('=') else {
                return Err(SimError::invalid(
                    "noise spec",
                    format!("malformed parameter {kv:?}: expected key=value"),
                ));
            };
            spec.set(key.trim(), value.trim())?;
        }
        Ok(spec)
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), SimError> {
        let applied = match self {
            NoiseSpec::PeriodicSmi(m) => m.set(key, value)?,
            NoiseSpec::CoreJitter(m) => m.set(key, value)?,
            NoiseSpec::SmtSlowdown(m) => m.set(key, value)?,
            NoiseSpec::PhaseOffset(m) => m.set(key, value)?,
            NoiseSpec::CorrelatedBursts(m) => m.set(key, value)?,
        };
        if applied {
            Ok(())
        } else {
            Err(SimError::invalid(
                "noise spec",
                format!("unknown parameter {key:?} for noise model {:?}", self.as_model().name()),
            ))
        }
    }

    /// Render back to the `--noise` syntax (full parameter list).
    pub fn to_spec_string(&self) -> String {
        match self {
            NoiseSpec::PeriodicSmi(m) => m.spec_string(),
            NoiseSpec::CoreJitter(m) => m.spec_string(),
            NoiseSpec::SmtSlowdown(m) => m.spec_string(),
            NoiseSpec::PhaseOffset(m) => m.spec_string(),
            NoiseSpec::CorrelatedBursts(m) => m.spec_string(),
        }
    }

    /// Build the per-node states of a cluster under this noise spec:
    /// per-core models fill [`NodeState::per_core`] (one schedule per
    /// rank slot), whole-node models share one schedule per node. The
    /// spec is validated first, so malformed parameters surface as the
    /// typed quarantine reason rather than a malformed schedule.
    pub fn node_states(
        &self,
        cluster: &ClusterSpec,
        horizon: SimDuration,
        seed: u64,
    ) -> Result<Vec<NodeState>, SimError> {
        let model = self.as_model();
        model.validate()?;
        let mut nodes = Vec::with_capacity(cluster.nodes as usize);
        for n in 0..cluster.nodes {
            let mut state = NodeState::uniform(
                FreezeSchedule::none(),
                machine::SmiSideEffects::none(),
                cluster.online_cpus(),
            );
            if model.per_core() {
                for c in 0..cluster.ranks_per_node {
                    state.per_core.push(model.schedule(n, c, horizon, seed)?);
                }
            } else {
                state.schedule = model.schedule(n, 0, horizon, seed)?;
            }
            nodes.push(state);
        }
        Ok(nodes)
    }
}

/// Every model name, in catalog order.
pub const MODEL_NAMES: [&str; 5] =
    ["periodic-smi", "core-jitter", "smt-slowdown", "phase-offset", "correlated-bursts"];

/// The fixed-budget study specs: every scenario family held at the same
/// expected stolen fraction (≈ 2.1 %, the long-SMI budget at a 5 s
/// period), plus the unsynchronized phase-offset variant. Comparing
/// campaign cells across these isolates the effect of noise *shape* at
/// equal total stolen time.
pub const FIXED_BUDGET_SPECS: [&str; 6] = [
    "periodic-smi",
    "core-jitter",
    "smt-slowdown",
    "phase-offset:offset_ms=0",
    "phase-offset:offset_ms=1250",
    "correlated-bursts",
];

/// The default configuration of every model, in catalog order — what
/// `smi-lab noise` enumerates.
pub fn catalog() -> Vec<NoiseSpec> {
    vec![
        NoiseSpec::PeriodicSmi(PeriodicSmi::default()),
        NoiseSpec::CoreJitter(CoreJitter::default()),
        NoiseSpec::SmtSlowdown(SmtSlowdown::default()),
        NoiseSpec::PhaseOffset(PhaseOffset::default()),
        NoiseSpec::CorrelatedBursts(CorrelatedBursts::default()),
    ]
}

/// Derive the RNG stream for one `(model, node, core)` coordinate. The
/// path-based derivation is what makes schedules order-independent: any
/// coordinate can be (re)built in isolation.
pub(crate) fn stream(seed: u64, model: &'static str, node: u32, core: u32) -> SimRng {
    let node_label = format!("node{node}");
    let core_label = format!("core{core}");
    SimRng::from_path(seed, &[model, &node_label, &core_label])
}

/// Parse a `u64` spec parameter with a typed error.
pub(crate) fn parse_u64(key: &str, value: &str) -> Result<u64, SimError> {
    value.parse::<u64>().map_err(|_| {
        SimError::invalid("noise spec", format!("parameter {key}={value:?} is not an integer"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_catalog_entry() {
        for spec in catalog() {
            let text = spec.to_spec_string();
            let back = NoiseSpec::parse(&text).expect("catalog specs parse");
            assert_eq!(back.to_spec_string(), text);
            assert_eq!(back.as_model().name(), spec.as_model().name());
        }
    }

    #[test]
    fn parse_rejects_unknown_models_keys_and_malformed_pairs() {
        for bad in [
            "gamma-rays",
            "core-jitter:warp=9",
            "core-jitter:mean_period_us",
            "smt-slowdown:factor_milli=abc",
        ] {
            match NoiseSpec::parse(bad) {
                Err(SimError::InvalidSpec { .. }) => {}
                other => panic!("{bad:?} should be InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn fixed_budget_specs_parse_validate_and_share_the_budget() {
        let base = NoiseSpec::parse("periodic-smi").expect("parses").as_model().duty();
        assert!(base > 0.0);
        for text in FIXED_BUDGET_SPECS {
            let spec = NoiseSpec::parse(text).expect("fixed-budget specs parse");
            spec.as_model().validate().expect("fixed-budget specs are valid");
            let duty = spec.as_model().duty();
            assert!(
                (duty - base).abs() / base < 0.05,
                "{text}: duty {duty} strays from the {base} budget"
            );
        }
    }

    #[test]
    fn node_states_fill_per_core_exactly_for_core_local_models() {
        let cluster = ClusterSpec::wyeast(2, 4, false).expect("valid shape");
        let horizon = SimDuration::from_secs(5);
        for text in FIXED_BUDGET_SPECS {
            let spec = NoiseSpec::parse(text).expect("parses");
            let nodes = spec.node_states(&cluster, horizon, 7).expect("builds");
            assert_eq!(nodes.len(), 2);
            for node in &nodes {
                if spec.as_model().per_core() {
                    assert_eq!(node.per_core.len(), 4, "{text}");
                    assert!(!node.schedule.is_noisy(), "{text}");
                } else {
                    assert!(node.per_core.is_empty(), "{text}");
                }
                node.validate().expect("node states validate");
            }
        }
    }

    #[test]
    fn node_states_surface_invalid_specs() {
        let cluster = ClusterSpec::wyeast(1, 1, false).expect("valid shape");
        let bad = NoiseSpec::parse("smt-slowdown:factor_milli=0").expect("parse is lazy");
        match bad.node_states(&cluster, SimDuration::from_secs(1), 1) {
            Err(SimError::InvalidSpec { .. }) => {}
            other => panic!("zero slowdown factor should be InvalidSpec, got {other:?}"),
        }
    }
}
