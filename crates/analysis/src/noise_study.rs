//! Model-comparison study: noise *shape* at a fixed noise budget.
//!
//! The paper's tables vary the SMI class and interval; this study holds
//! the expected stolen fraction constant (≈ 2.1 %, the long-SMI budget
//! at a 5 s period — see [`noise::FIXED_BUDGET_SPECS`]) and varies only
//! the *shape* of the perturbation: whole-node periodic freezes, per-core
//! OS jitter, SMT slowdown windows, synchronized vs phase-staggered
//! multi-node SMIs, and correlated cross-node bursts. Each spec becomes
//! one runner cell measuring the makespan inflation of a fixed BSP
//! workload against its quiet baseline, so the rendered table isolates
//! how differently equal amounts of stolen time hurt a barrier-coupled
//! job (absorption for unsynchronized per-core noise, amplification for
//! synchronized whole-node noise — the §II.C mechanism).

use crate::cells::{spec_for, FAILED_SERIES_LABEL};
use crate::mpi_tables::Measured;
use crate::opts::RunOptions;
use jsonio::Json;
use machine::SmiSideEffects;
use mpi_sim::{ClusterSpec, NetworkParams, NodeState, Op, RankProgram};
use noise::NoiseSpec;
use runner::Cell;
use sim_core::stats::Accumulator;
use sim_core::{FreezeSchedule, SimDuration, SimRng};

/// Cluster shape of the study workload: nodes × ranks-per-node. Two
/// ranks per node so per-core models exercise distinct core schedules.
pub const NOISE_STUDY_NODES: u32 = 4;
/// Ranks per node of the study workload.
pub const NOISE_STUDY_RPN: u32 = 2;
/// BSP iterations (compute → barrier) per rank.
pub const NOISE_STUDY_ITERS: u32 = 24;
/// Compute per iteration, milliseconds.
pub const NOISE_STUDY_COMPUTE_MS: u64 = 40;
/// Schedule horizon handed to explicit-window models: generously past
/// the perturbed makespan so no run outlives its windows.
const HORIZON: SimDuration = SimDuration(8_000_000_000);

/// The experiment name cells run under (manifest `manifests/noise.json`
/// when the campaign label is `noise`).
pub const NOISE_EXPERIMENT: &str = "noise";

fn bsp_programs() -> Vec<RankProgram> {
    (0..NOISE_STUDY_NODES * NOISE_STUDY_RPN)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..NOISE_STUDY_ITERS {
                ops.push(Op::Compute(SimDuration::from_millis(NOISE_STUDY_COMPUTE_MS)));
                ops.push(Op::Barrier);
            }
            RankProgram::new(ops)
        })
        .collect()
}

/// Cell label for one spec: the spec text with punctuation flattened so
/// labels stay shell- and filename-friendly.
pub fn cell_label(spec_text: &str) -> String {
    spec_text.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

/// One runner cell measuring a noise spec's makespan inflation on the
/// fixed BSP workload. The raw spec text is parsed and validated
/// *inside* the work closure, so malformed or out-of-range specs
/// quarantine with the typed [`sim_core::SimError::InvalidSpec`] reason
/// in the campaign manifest instead of aborting the campaign. The
/// normalized spec string rides in the cell parameters, so the runner's
/// content-hashed cache key pins the exact noise configuration.
pub fn noise_cell(opts: &RunOptions, spec_text: &str) -> Cell {
    let label = cell_label(spec_text);
    let normalized = NoiseSpec::parse(spec_text)
        .map(|s| s.to_spec_string())
        .unwrap_or_else(|_| spec_text.to_string());
    let params = Json::obj(vec![("noise", Json::Str(normalized.clone()))]);
    let opts = *opts;
    let text = spec_text.to_string();
    Cell::fallible(spec_for(NOISE_EXPERIMENT, &label, params, &opts), move || {
        let spec = NoiseSpec::parse(&text).map_err(|e| e.reason_json())?;
        let model = spec.as_model();
        model.validate().map_err(|e| e.reason_json())?;

        let shape = ClusterSpec::wyeast(NOISE_STUDY_NODES, NOISE_STUDY_RPN, false);
        #[expect(clippy::expect_used, reason = "shape is valid by construction")]
        let cluster = shape.expect("valid shape");
        let network = NetworkParams::gigabit_cluster();
        let progs = bsp_programs();
        let quiet: Vec<NodeState> = (0..NOISE_STUDY_NODES)
            .map(|_| {
                NodeState::uniform(
                    FreezeSchedule::none(),
                    SmiSideEffects::none(),
                    cluster.online_cpus(),
                )
            })
            .collect();
        let base = mpi_sim::run(&cluster, &quiet, &progs, &network)
            .map_err(|e| e.reason_json())?
            .seconds();

        let mut acc = Accumulator::new();
        for rep in 0..opts.reps {
            let rep_label = format!("rep{rep}");
            let mut rng = SimRng::from_path(opts.seed, &["noise", &normalized, &rep_label]);
            let nodes =
                spec.node_states(&cluster, HORIZON, rng.next()).map_err(|e| e.reason_json())?;
            let perturbed = mpi_sim::run(&cluster, &nodes, &progs, &network)
                .map_err(|e| e.reason_json())?
                .seconds();
            acc.push((perturbed / base - 1.0) * 100.0);
        }
        Ok(Json::obj(vec![
            ("spec", Json::Str(spec.to_spec_string())),
            ("model", Json::Str(model.name().to_string())),
            ("budget_pct", Json::F64(model.duty() * 100.0)),
            ("base_s", Json::F64(base)),
            ("mean", Json::F64(acc.mean())),
            ("std", Json::F64(acc.stddev())),
            ("reps", Json::U64(opts.reps as u64)),
        ]))
    })
}

/// The full fixed-budget study: one cell per [`noise::FIXED_BUDGET_SPECS`]
/// entry, in that order (the matching [`assemble_noise`] consumes the
/// payloads in the same order).
pub fn noise_cells(opts: &RunOptions) -> Vec<Cell> {
    noise::FIXED_BUDGET_SPECS.iter().map(|text| noise_cell(opts, text)).collect()
}

/// One rendered row of the study.
#[derive(Clone, Debug)]
pub struct NoiseRow {
    /// Normalized spec text (or the raw text for a quarantined cell).
    pub spec: String,
    /// Model name, or [`FAILED_SERIES_LABEL`] for a quarantine hole.
    pub model: String,
    /// Configured noise budget, percent of core time.
    pub budget_pct: f64,
    /// Measured makespan inflation, percent; `None` for a hole.
    pub slowdown: Option<Measured>,
}

/// Reassemble runner payloads (same order as the cells that produced
/// them) into study rows. `Json::Null` holes — quarantined cells —
/// become rows with an absent measurement so a degraded campaign still
/// renders.
pub fn assemble_noise(spec_texts: &[&str], payloads: &[Json]) -> Vec<NoiseRow> {
    assert_eq!(spec_texts.len(), payloads.len(), "one payload per study spec");
    spec_texts
        .iter()
        .zip(payloads)
        .map(|(text, payload)| {
            if matches!(payload, Json::Null) {
                return NoiseRow {
                    spec: text.to_string(),
                    model: FAILED_SERIES_LABEL.to_string(),
                    budget_pct: 0.0,
                    slowdown: None,
                };
            }
            #[expect(clippy::expect_used, reason = "payload shape fixed by the paired producer")]
            let field = |k: &str| payload.get(k).expect("noise payload field");
            #[expect(clippy::expect_used, reason = "payload shape fixed by the paired producer")]
            let (spec, model, budget_pct, slowdown) = (
                field("spec").as_str().expect("spec string").to_string(),
                field("model").as_str().expect("model string").to_string(),
                field("budget_pct").as_f64().expect("budget"),
                Some(Measured {
                    mean: field("mean").as_f64().expect("mean"),
                    std: field("std").as_f64().expect("std"),
                    reps: field("reps").as_u64().expect("reps") as u32,
                }),
            );
            NoiseRow { spec, model, budget_pct, slowdown }
        })
        .collect()
}

/// Render the study as a fixed-width text table.
pub fn render_noise(rows: &[NoiseRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Noise-shape study at fixed budget (BSP {}x{}, {} x {} ms compute+barrier)\n",
        NOISE_STUDY_NODES, NOISE_STUDY_RPN, NOISE_STUDY_ITERS, NOISE_STUDY_COMPUTE_MS
    ));
    out.push_str(&format!("{:<86} {:>8} {:>22}\n", "spec", "budget%", "slowdown% (mean±std)"));
    for row in rows {
        match &row.slowdown {
            Some(m) => out.push_str(&format!(
                "{:<86} {:>8.2} {:>14.2} ± {:<5.2}\n",
                row.spec, row.budget_pct, m.mean, m.std
            )),
            None => {
                out.push_str(&format!("{:<86} {:>8} {:>22}\n", row.spec, "-", FAILED_SERIES_LABEL))
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use runner::{CacheMode, Runner};

    fn quiet_runner() -> Runner {
        let mut r = Runner::new(2);
        r.cache_mode = CacheMode::Off;
        r.verbose = false;
        r
    }

    fn tiny() -> RunOptions {
        RunOptions { reps: 2, seed: 11, ..RunOptions::default() }
    }

    #[test]
    fn study_cells_produce_one_row_per_fixed_budget_spec() {
        let opts = tiny();
        let report = quiet_runner().run("noise-test", noise_cells(&opts));
        let rows = assemble_noise(&noise::FIXED_BUDGET_SPECS, &report.payloads());
        assert_eq!(rows.len(), noise::FIXED_BUDGET_SPECS.len());
        for row in &rows {
            let m = row.slowdown.as_ref().expect("no holes in a clean run");
            assert_eq!(m.reps, 2);
            assert!(m.mean.is_finite());
            assert!(row.budget_pct > 0.0);
            assert_ne!(row.model, FAILED_SERIES_LABEL);
        }
        let rendered = render_noise(&rows);
        assert!(rendered.contains("periodic-smi"));
        assert!(rendered.contains("correlated-bursts"));
    }

    #[test]
    fn study_cells_are_deterministic_across_job_counts() {
        let opts = tiny();
        let serial = {
            let mut r = Runner::new(1);
            r.cache_mode = CacheMode::Off;
            r.verbose = false;
            r.run("noise-j1", noise_cells(&opts)).payloads()
        };
        let parallel = quiet_runner().run("noise-j2", noise_cells(&opts)).payloads();
        assert_eq!(serial, parallel, "--jobs 1 and --jobs N must agree byte-for-byte");
    }

    #[test]
    fn invalid_specs_quarantine_with_typed_reasons() {
        let opts = tiny();
        let cells = vec![
            noise_cell(&opts, "smt-slowdown:factor_milli=0"),
            noise_cell(&opts, "core-jitter:min_us=0"),
            noise_cell(&opts, "no-such-model"),
        ];
        let report = quiet_runner().run("noise-bad", cells);
        assert_eq!(report.payloads().len(), 3);
        for payload in report.payloads() {
            assert!(matches!(payload, Json::Null), "invalid specs leave holes");
        }
        let rows = assemble_noise(
            &["smt-slowdown:factor_milli=0", "core-jitter:min_us=0", "no-such-model"],
            &report.payloads(),
        );
        assert!(rows.iter().all(|r| r.slowdown.is_none()));
        assert!(rows.iter().all(|r| r.model == FAILED_SERIES_LABEL));
    }

    #[test]
    fn synchronized_noise_hurts_more_than_spread_noise() {
        // The §II.C mechanism at equal budget: freezing every node at
        // the same instant stalls the whole barrier once, while per-core
        // jitter is partially absorbed into slack. With few reps this is
        // a smoke check of sign conventions, not a tight bound.
        let opts = RunOptions { reps: 3, seed: 7, ..RunOptions::default() };
        let report =
            quiet_runner().run("noise-sync", vec![noise_cell(&opts, "phase-offset:offset_ms=0")]);
        let rows = assemble_noise(&["phase-offset:offset_ms=0"], &report.payloads());
        let m = rows[0].slowdown.as_ref().expect("clean run");
        assert!(m.mean >= 0.0, "noise cannot speed the job up: {}", m.mean);
    }
}
