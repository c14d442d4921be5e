//! Cell decomposition of the paper's artifacts for the parallel runner.
//!
//! Each table and figure is split into independent [`runner::Cell`]s —
//! the unit of scheduling, caching, and resume. A cell's work closure
//! reseeds every RNG stream from the cell's own identity (via
//! `SimRng::from_path`), so payloads are bit-identical no matter which
//! worker thread runs them or in what order. The tests below check the
//! cells against straight-line serial references of Table 2 and
//! Figure 2.
//!
//! Builders return cells in a fixed documented order; the matching
//! `assemble_*` function consumes the runner's payloads (same order) and
//! reconstructs the result structs the renderers expect.

use crate::figures::{
    convolve_point, fig1_intervals, ubench_index, FigPoint, FigSeries, Figure1Result,
    Figure2Result, FIG1_CPUS, FIG2_CPUS, FIG2_INTERVALS,
};
use crate::mpi_tables::{measure_cell_job, measure_cell_job_adaptive};
use crate::mpi_tables::{
    HttTableCell, HttTableResult, Measured, TableCell, TableResult, SMM_CLASSES,
};
use crate::opts::RunOptions;
use jsonio::{Json, ToJson};
use mpi_sim::{ClusterSpec, NetworkParams};
use nas::{htt_cell, table_cell, Bench, CellJob, Class};
use runner::design::{AdaptiveRun, SampleDesign};
use runner::{Cell, CellSpec};
use smi_driver::SmiClass;

pub(crate) fn opts_params(opts: &RunOptions) -> Json {
    Json::obj(vec![("jitter", Json::F64(opts.jitter))])
}

pub(crate) fn spec_for(
    experiment: &str,
    cell: &str,
    mut params: Json,
    opts: &RunOptions,
) -> CellSpec {
    if let Json::Obj(fields) = &mut params {
        if let Json::Obj(extra) = opts_params(opts) {
            fields.extend(extra);
        }
    }
    CellSpec {
        experiment: experiment.to_string(),
        cell: cell.to_string(),
        params,
        seed: opts.seed,
        reps: opts.reps,
    }
}

fn measured_from(json: &Json) -> Option<Measured> {
    Some(Measured {
        mean: json.get("mean")?.as_f64()?,
        std: json.get("std")?.as_f64()?,
        reps: json.get("reps")?.as_u64()? as u32,
    })
}

// The `expect`s in the assemble_* path decode payloads written by the
// paired producer cell in this same module: a shape mismatch means the
// result cache is corrupted, and aborting with a field-naming message is
// the intended failure mode (`--no-cache` recomputes every cell). One
// shape is NOT a corruption: `Json::Null`, the explicit hole a
// quarantined cell leaves in `RunReport::payloads` — every assembler
// maps it to an absent measurement so a degraded campaign still renders,
// with the hole visibly marked, instead of aborting.
fn point_from(json: &Json) -> FigPoint {
    // Serialized non-finite x (the quiet baseline point) becomes null.
    let x = json.get("x").and_then(Json::as_f64).unwrap_or(f64::INFINITY);
    #[expect(clippy::expect_used, reason = "payload shape fixed by the paired producer")]
    let (mean, std) = (
        json.get("mean").and_then(Json::as_f64).expect("point mean"),
        json.get("std").and_then(Json::as_f64).expect("point std"),
    );
    FigPoint { x, mean, std }
}

/// Label a failed series carries in rendered figures.
pub const FAILED_SERIES_LABEL: &str = "(failed)";

fn series_from(json: &Json) -> FigSeries {
    if matches!(json, Json::Null) {
        // Quarantined cell: an empty, explicitly-labelled series. The
        // renderer prints `-` for its missing points.
        return FigSeries { label: FAILED_SERIES_LABEL.to_string(), points: Vec::new() };
    }
    #[expect(clippy::expect_used, reason = "payload shape fixed by the paired producer")]
    let (label, points) = (
        json.get("label").and_then(Json::as_str).expect("series label").to_string(),
        json.get("points").and_then(Json::as_array).expect("series points"),
    );
    FigSeries { label, points: points.iter().map(point_from).collect() }
}

/// The (class, nodes, ranks-per-node) grid of Table 1/2/3 in row order.
fn table_grid(bench: Bench) -> Vec<(Class, u32, u32)> {
    let mut grid = Vec::new();
    for class in Class::PAPER {
        for &nodes in bench.node_counts() {
            for rpn in [1u32, 4] {
                grid.push((class, nodes, rpn));
            }
        }
    }
    grid
}

/// Fold one cell's three per-SMM sampling verdicts into the payload's
/// `"stats"` block (what `runner::design::campaign_stats` scans for the
/// schema-6 manifest): the cell met its target only if *every* SMM
/// class did, its reported half-width is the loosest of the three, and
/// the full per-SMM detail (n, t-CI, bootstrap CI, flags) rides along
/// under `"smm"` so the manifest carries every interval.
fn fold_smm_stats(runs: &[AdaptiveRun]) -> Json {
    let worst = runs.iter().map(|r| r.ci.rel_half_width()).fold(0.0_f64, f64::max);
    let smm = runs
        .iter()
        .zip(SMM_CLASSES)
        .map(|(r, smm)| {
            let mut entry = vec![("smm".to_string(), Json::Str(smm.label().to_string()))];
            if let Json::Obj(fields) = r.stats_json() {
                entry.extend(fields);
            }
            Json::Obj(entry)
        })
        .collect();
    Json::obj(vec![
        ("n", Json::U64(runs.iter().map(|r| r.n() as u64).sum())),
        ("target", runs.first().map(|r| Json::F64(r.target)).unwrap_or(Json::Null)),
        ("rel_half_width", if worst.is_finite() { Json::F64(worst) } else { Json::Null }),
        ("met_target", Json::Bool(runs.iter().all(|r| r.met_target))),
        ("stopped_early", Json::Bool(runs.iter().any(|r| r.stopped_early))),
        ("exhausted", Json::Bool(runs.iter().any(|r| r.exhausted))),
        ("smm", Json::Arr(smm)),
    ])
}

/// One cell per (class, nodes, ranks/node) of Table 1 (BT), 2 (EP) or
/// 3 (FT). Each cell calibrates against the paper's SMM-0 baseline and
/// measures all three SMM classes; cells with no paper baseline return a
/// null-measured payload so the grid stays dense.
pub fn table_cells(bench: Bench, opts: &RunOptions) -> Vec<Cell> {
    grid_cells(bench, opts, None)
}

/// Adaptive-design variant of [`table_cells`]: the same grid, labels,
/// and per-repetition seeds, but every (cell, SMM class) runs the
/// shared sampling loop (`runner::design::run_adaptive`) instead of a
/// fixed repetition count — low-variance cells stop at `min_reps`,
/// noisy ones spend up to `max_reps` chasing the CI target. The design
/// is embedded in the cell params (distinct cache identity from fixed
/// campaigns) and the payload keeps the `"measured"` array
/// [`assemble_table`] renders, adding the `"stats"` block the schema-6
/// manifest folds into its campaign power check. Cells without a paper
/// baseline carry no `"stats"` (they sample nothing).
pub fn adaptive_table_cells(bench: Bench, opts: &RunOptions, design: SampleDesign) -> Vec<Cell> {
    grid_cells(bench, opts, Some(design))
}

/// The Tables 1–3 grid under a fixed repetition count (`design` is
/// `None`) or an adaptive sampling design.
fn grid_cells(bench: Bench, opts: &RunOptions, design: Option<SampleDesign>) -> Vec<Cell> {
    let experiment = format!("table-{}", bench.name());
    table_grid(bench)
        .into_iter()
        .map(|(class, nodes, rpn)| {
            let label = format!("{}-n{}-r{}", class.letter(), nodes, rpn);
            let mut params = vec![
                ("class", Json::Str(class.letter().to_string())),
                ("nodes", Json::U64(nodes as u64)),
                ("rpn", Json::U64(rpn as u64)),
            ];
            if let Some(d) = &design {
                params.push(("design", d.params_json()));
            }
            let opts = *opts;
            // Fallible: a rejected cluster spec or a simulation that
            // deadlocks quarantines this one cell with the SimError as
            // its machine-readable reason; the rest of the table renders.
            Cell::fallible(spec_for(&experiment, &label, Json::obj(params), &opts), move || {
                let paper = table_cell(bench, class, nodes, rpn)
                    .map(|c| c.smm)
                    .unwrap_or([None, None, None]);
                let mut measured: [Option<Measured>; 3] = [None, None, None];
                let Some(target) = paper[0] else {
                    return Ok(Json::obj(vec![("measured", measured.to_json())]));
                };
                let network = NetworkParams::gigabit_cluster();
                let spec = ClusterSpec::wyeast(nodes, rpn, false).map_err(|e| e.reason_json())?;
                // One job serves calibration and every repetition.
                let job =
                    CellJob::new(bench, class, &spec, &network).map_err(|e| e.reason_json())?;
                let extra = job.calibrate(target).map_err(|e| e.reason_json())?;
                let mut runs = Vec::new();
                for (k, smm) in SMM_CLASSES.into_iter().enumerate() {
                    let m = match &design {
                        None => measure_cell_job(&job, extra, smm, &opts, &label),
                        Some(d) => measure_cell_job_adaptive(&job, extra, smm, &opts, &label, d)
                            .map(|(m, run)| {
                                runs.push(run);
                                m
                            }),
                    };
                    measured[k] = Some(m.map_err(|e| e.reason_json())?);
                }
                let mut payload = vec![("measured", measured.to_json())];
                if design.is_some() {
                    payload.push(("stats", fold_smm_stats(&runs)));
                }
                Ok(Json::obj(payload))
            })
        })
        .collect()
}

/// Rebuild a [`TableResult`] from `table_cells` payloads (same order).
pub fn assemble_table(bench: Bench, payloads: &[Json]) -> TableResult {
    let grid = table_grid(bench);
    assert_eq!(grid.len(), payloads.len(), "payload count must match the table grid");
    let cells = grid
        .into_iter()
        .zip(payloads)
        .map(|((class, nodes, rpn), payload)| {
            let paper =
                table_cell(bench, class, nodes, rpn).map(|c| c.smm).unwrap_or([None, None, None]);
            let mut measured = [None, None, None];
            if !matches!(payload, Json::Null) {
                #[expect(
                    clippy::expect_used,
                    reason = "payload shape fixed by the paired producer"
                )]
                let measured_json = payload
                    .get("measured")
                    .and_then(Json::as_array)
                    .expect("table payload measured array");
                assert_eq!(measured_json.len(), 3, "one entry per SMM class");
                for (k, m) in measured_json.iter().enumerate() {
                    measured[k] = measured_from(m);
                }
            }
            TableCell { class, nodes, ranks_per_node: rpn, measured, paper }
        })
        .collect();
    TableResult { bench, cells }
}

/// The (class, nodes) grid of Table 4/5 in row order.
fn htt_grid(bench: Bench) -> Vec<(Class, u32)> {
    let mut grid = Vec::new();
    for class in Class::PAPER {
        for &nodes in bench.node_counts() {
            grid.push((class, nodes));
        }
    }
    grid
}

/// One cell per (class, nodes) of Table 4 (EP) or 5 (FT); each cell
/// measures both HTT settings under all three SMM classes.
pub fn htt_cells(bench: Bench, opts: &RunOptions) -> Vec<Cell> {
    assert!(matches!(bench, Bench::Ep | Bench::Ft), "HTT tables exist for EP and FT only");
    let experiment = format!("htt-{}", bench.name());
    htt_grid(bench)
        .into_iter()
        .map(|(class, nodes)| {
            let label = format!("{}-n{}", class.letter(), nodes);
            let params = Json::obj(vec![
                ("class", Json::Str(class.letter().to_string())),
                ("nodes", Json::U64(nodes as u64)),
            ]);
            let opts = *opts;
            // Fallible for the same reason as `table_cells`.
            Cell::fallible(spec_for(&experiment, &label, params, &opts), move || {
                let paper = htt_cell(bench, class, nodes).map(|c| c.smm_ht);
                let measured: [[Option<Measured>; 2]; 3] = match paper {
                    None => [[None, None]; 3],
                    Some(paper_vals) => {
                        let network = NetworkParams::gigabit_cluster();
                        let mut measured = [[None, None]; 3];
                        for (ht_idx, htt) in [false, true].into_iter().enumerate() {
                            let spec =
                                ClusterSpec::wyeast(nodes, 4, htt).map_err(|e| e.reason_json())?;
                            let target = paper_vals[0][ht_idx];
                            let job = CellJob::new(bench, class, &spec, &network)
                                .map_err(|e| e.reason_json())?;
                            let extra = job.calibrate(target).map_err(|e| e.reason_json())?;
                            let label = format!("{}-n{}-ht{}", class.letter(), nodes, ht_idx);
                            for (k, smm) in SMM_CLASSES.into_iter().enumerate() {
                                measured[k][ht_idx] = Some(
                                    measure_cell_job(&job, extra, smm, &opts, &label)
                                        .map_err(|e| e.reason_json())?,
                                );
                            }
                        }
                        measured
                    }
                };
                Ok(Json::obj(vec![("measured", measured.to_json())]))
            })
        })
        .collect()
}

/// Rebuild an [`HttTableResult`] from `htt_cells` payloads (same order).
pub fn assemble_htt_table(bench: Bench, payloads: &[Json]) -> HttTableResult {
    let grid = htt_grid(bench);
    assert_eq!(grid.len(), payloads.len(), "payload count must match the HTT grid");
    let cells = grid
        .into_iter()
        .zip(payloads)
        .map(|((class, nodes), payload)| {
            let paper = htt_cell(bench, class, nodes).map(|c| c.smm_ht);
            let mut measured = [[None, None]; 3];
            if !matches!(payload, Json::Null) {
                #[expect(
                    clippy::expect_used,
                    reason = "payload shape fixed by the paired producer"
                )]
                let rows = payload
                    .get("measured")
                    .and_then(Json::as_array)
                    .expect("htt payload measured array");
                assert_eq!(rows.len(), 3, "one row per SMM class");
                for (k, row) in rows.iter().enumerate() {
                    #[expect(
                        clippy::expect_used,
                        reason = "payload shape fixed by the paired producer"
                    )]
                    let cols = row.as_array().expect("htt payload row");
                    assert_eq!(cols.len(), 2, "one column per HTT setting");
                    for (h, m) in cols.iter().enumerate() {
                        measured[k][h] = measured_from(m);
                    }
                }
            }
            HttTableCell { class, nodes, measured, paper }
        })
        .collect();
    HttTableResult { bench, cells }
}

use apps::ConvolveConfig;

const FIG1_CONFIGS: [ConvolveConfig; 2] =
    [ConvolveConfig::CacheUnfriendly, ConvolveConfig::CacheFriendly];

/// Figure-1 cells: one per interval-sweep series (config × CPU count),
/// then one per CPU-sweep panel (config), in panel order.
pub fn figure1_cells(opts: &RunOptions) -> Vec<Cell> {
    let mut cells = Vec::new();
    for config in FIG1_CONFIGS {
        for &cpus in &FIG1_CPUS {
            let label = format!("{}-c{}-intervals", config.label(), cpus);
            let params = Json::obj(vec![
                ("config", Json::Str(config.label().to_string())),
                ("cpus", Json::U64(cpus as u64)),
                ("sweep", Json::Str("interval".into())),
            ]);
            let opts = *opts;
            cells.push(Cell::new(spec_for("figure1", &label, params, &opts), move || {
                FigSeries {
                    label: format!("{cpus} CPUs"),
                    points: fig1_intervals()
                        .into_iter()
                        .map(|ms| convolve_point(config, cpus, Some(ms), &opts))
                        .collect(),
                }
                .to_json()
            }));
        }
    }
    for config in FIG1_CONFIGS {
        let label = format!("{}-cpu-sweep", config.label());
        let params = Json::obj(vec![
            ("config", Json::Str(config.label().to_string())),
            ("sweep", Json::Str("cpus".into())),
        ]);
        let opts = *opts;
        cells.push(Cell::new(spec_for("figure1", &label, params, &opts), move || {
            FigSeries {
                label: format!("{} @ 50ms", config.label()),
                points: (1..=8)
                    .map(|cpus| {
                        let p = convolve_point(config, cpus, Some(50), &opts);
                        FigPoint { x: cpus as f64, ..p }
                    })
                    .collect(),
            }
            .to_json()
        }));
    }
    cells
}

/// Rebuild a [`Figure1Result`] from `figure1_cells` payloads.
pub fn assemble_figure1(payloads: &[Json]) -> Figure1Result {
    let per_panel = FIG1_CPUS.len();
    assert_eq!(payloads.len(), 2 * per_panel + 2, "figure-1 payload count");
    let interval_panels = [
        payloads[..per_panel].iter().map(series_from).collect::<Vec<_>>(),
        payloads[per_panel..2 * per_panel].iter().map(series_from).collect::<Vec<_>>(),
    ];
    let cpu_panels =
        [series_from(&payloads[2 * per_panel]), series_from(&payloads[2 * per_panel + 1])];
    Figure1Result { interval_panels, cpu_panels }
}

/// Figure-2 cells: long-SMI series per CPU count, short-SMI control
/// series per CPU count, then one quiet-baseline cell.
pub fn figure2_cells(opts: &RunOptions) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (smm, tag) in [(SmiClass::Long, "long"), (SmiClass::Short, "short")] {
        for &cpus in &FIG2_CPUS {
            let label = format!("{tag}-c{cpus}");
            let params = Json::obj(vec![
                ("smm", Json::Str(tag.to_string())),
                ("cpus", Json::U64(cpus as u64)),
            ]);
            let opts = *opts;
            cells.push(Cell::new(spec_for("figure2", &label, params, &opts), move || {
                FigSeries {
                    label: format!("{cpus} CPUs"),
                    points: FIG2_INTERVALS
                        .iter()
                        .map(|&ms| FigPoint {
                            x: ms as f64,
                            mean: ubench_index(cpus, smm, ms, &opts),
                            std: 0.0,
                        })
                        .collect(),
                }
                .to_json()
            }));
        }
    }
    let params = Json::obj(vec![("smm", Json::Str("none".into()))]);
    let opts = *opts;
    cells.push(Cell::new(spec_for("figure2", "baselines", params, &opts), move || {
        Json::obj(vec![(
            "baselines",
            FIG2_CPUS
                .iter()
                .map(|&cpus| (cpus, ubench_index(cpus, SmiClass::None, 1000, &opts)))
                .collect::<Vec<_>>()
                .to_json(),
        )])
    }));
    cells
}

/// Rebuild a [`Figure2Result`] from `figure2_cells` payloads.
pub fn assemble_figure2(payloads: &[Json]) -> Figure2Result {
    let per = FIG2_CPUS.len();
    assert_eq!(payloads.len(), 2 * per + 1, "figure-2 payload count");
    let long_series = payloads[..per].iter().map(series_from).collect();
    let short_series = payloads[per..2 * per].iter().map(series_from).collect();
    // Quarantined baseline cell: no baseline rows to print.
    #[expect(clippy::expect_used, reason = "payload shape fixed by the paired producer")]
    let baseline_rows: &[Json] = if matches!(payloads[2 * per], Json::Null) {
        &[]
    } else {
        payloads[2 * per].get("baselines").and_then(Json::as_array).expect("figure-2 baselines")
    };
    #[expect(clippy::expect_used, reason = "payload shape fixed by the paired producer")]
    let baselines = baseline_rows
        .iter()
        .map(|pair| {
            (
                pair.idx(0).and_then(Json::as_u64).expect("baseline cpus") as u32,
                pair.idx(1).and_then(Json::as_f64).expect("baseline index"),
            )
        })
        .collect();
    Figure2Result { long_series, short_series, baselines }
}

/// Wrap a deterministic text-producing study (the X-series extensions)
/// as a single runner cell whose payload is the rendered text.
pub fn text_cell(
    experiment: &str,
    opts: &RunOptions,
    render: impl Fn(&RunOptions) -> String + Send + Sync + 'static,
) -> Cell {
    let opts = *opts;
    Cell::new(spec_for(experiment, "all", Json::obj(vec![]), &opts), move || {
        Json::Str(render(&opts))
    })
}

/// What [`text_payload`] renders for a quarantined text cell.
pub const FAILED_TEXT_PAYLOAD: &str =
    "(cell failed — study output unavailable; see the run manifest for the quarantine record)";

/// Extract the text payload of a [`text_cell`] result. A quarantined
/// cell's `Json::Null` hole renders as [`FAILED_TEXT_PAYLOAD`].
pub fn text_payload(payload: &Json) -> &str {
    match payload {
        Json::Null => FAILED_TEXT_PAYLOAD,
        #[expect(clippy::expect_used, reason = "payload shape fixed by the paired producer")]
        _ => payload.as_str().expect("text cell payload"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi_tables::measure_cell;
    use nas::calibrate_extra;
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

    /// Serial reference for Tables 1–3: the grid walked in row order,
    /// one cell at a time, with no runner involved.
    fn run_table(bench: Bench, opts: &RunOptions) -> TableResult {
        let network = NetworkParams::gigabit_cluster();
        let mut cells = Vec::new();
        for class in Class::PAPER {
            for &nodes in bench.node_counts() {
                for rpn in [1u32, 4] {
                    let paper = table_cell(bench, class, nodes, rpn)
                        .map(|c| c.smm)
                        .unwrap_or([None, None, None]);
                    let label = format!("{}-n{}-r{}", class.letter(), nodes, rpn);
                    let Some(target) = paper[0] else {
                        cells.push(TableCell {
                            class,
                            nodes,
                            ranks_per_node: rpn,
                            measured: [None, None, None],
                            paper,
                        });
                        continue;
                    };
                    let measured = ClusterSpec::wyeast(nodes, rpn, false)
                        .and_then(|spec| {
                            let extra = calibrate_extra(bench, class, &spec, &network, target)?;
                            Ok((spec, extra))
                        })
                        .map(|(spec, extra)| {
                            SMM_CLASSES.map(|smm| {
                                measure_cell(
                                    bench, class, &spec, extra, smm, opts, &network, &label,
                                )
                                .ok()
                            })
                        })
                        .unwrap_or([None, None, None]);
                    cells.push(TableCell { class, nodes, ranks_per_node: rpn, measured, paper });
                }
            }
        }
        TableResult { bench, cells }
    }

    /// Serial reference for Figure 2: every series point computed in
    /// place.
    fn run_figure2(opts: &RunOptions) -> Figure2Result {
        let series = |smm: SmiClass| -> Vec<FigSeries> {
            FIG2_CPUS
                .iter()
                .map(|&cpus| FigSeries {
                    label: format!("{cpus} CPUs"),
                    points: FIG2_INTERVALS
                        .iter()
                        .map(|&ms| FigPoint {
                            x: ms as f64,
                            mean: ubench_index(cpus, smm, ms, opts),
                            std: 0.0,
                        })
                        .collect(),
                })
                .collect()
        };
        Figure2Result {
            long_series: series(SmiClass::Long),
            short_series: series(SmiClass::Short),
            baselines: FIG2_CPUS
                .iter()
                .map(|&cpus| (cpus, ubench_index(cpus, SmiClass::None, 1000, opts)))
                .collect(),
        }
    }

    #[test]
    fn cells_reproduce_the_serial_table_driver() {
        let opts = tiny();
        let serial = run_table(Bench::Ep, &opts);
        let report = quiet_runner().run("table-ep-test", table_cells(Bench::Ep, &opts));
        let parallel = assemble_table(Bench::Ep, &report.payloads());
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(s.nodes, p.nodes);
            assert_eq!(s.ranks_per_node, p.ranks_per_node);
            for k in 0..3 {
                match (s.measured[k], p.measured[k]) {
                    (Some(a), Some(b)) => {
                        assert_eq!(
                            a.mean, b.mean,
                            "cell n{} r{} smm{k}",
                            s.nodes, s.ranks_per_node
                        );
                        assert_eq!(a.std, b.std);
                        assert_eq!(a.reps, b.reps);
                    }
                    (None, None) => {}
                    other => panic!("measured presence diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn adaptive_cells_assemble_and_carry_stats() {
        let opts = tiny();
        let design = SampleDesign { min_reps: 2, max_reps: 4, target_rel_halfwidth: 1.0 };
        let report =
            quiet_runner().run("table-ep-adaptive", adaptive_table_cells(Bench::Ep, &opts, design));
        let payloads = report.payloads();
        // The renderer path is oblivious to the design: "measured" still
        // assembles into a TableResult.
        let table = assemble_table(Bench::Ep, &payloads);
        let mut sampled = 0;
        for (cell, payload) in table.cells.iter().zip(&payloads) {
            if cell.measured[0].is_none() {
                assert!(payload.get("stats").is_none(), "no-baseline cells sample nothing");
                continue;
            }
            sampled += 1;
            let stats = payload.get("stats").expect("measured cells carry a stats block");
            assert_eq!(stats.get("target").and_then(Json::as_f64), Some(1.0));
            let per_smm = stats.get("smm").and_then(Json::as_array).expect("per-SMM detail");
            assert_eq!(per_smm.len(), 3);
            let n = stats.get("n").and_then(Json::as_u64).expect("total n");
            assert!((6..=12).contains(&n), "3 SMM classes × 2..=4 reps, got {n}");
            // The conventional Measured rows report the adaptive n.
            let reported: u64 = cell.measured.iter().flatten().map(|m| m.reps as u64).sum();
            assert_eq!(reported, n);
        }
        assert!(sampled > 0, "the EP grid has paper baselines");
        // The runner folds these blocks into the manifest stats section.
        let campaign = runner::design::campaign_stats(&report.outcomes);
        assert_eq!(campaign.get("designed").and_then(Json::as_u64), Some(sampled));
    }

    #[test]
    fn adaptive_cells_are_schedule_invariant() {
        let opts = tiny();
        let design = SampleDesign { min_reps: 2, max_reps: 4, target_rel_halfwidth: 1.0 };
        let serial = {
            let mut r = Runner::new(1);
            r.cache_mode = CacheMode::Off;
            r.verbose = false;
            r.run("table-ep-adaptive-j1", adaptive_table_cells(Bench::Ep, &opts, design))
        };
        let pooled = quiet_runner()
            .run("table-ep-adaptive-j2", adaptive_table_cells(Bench::Ep, &opts, design));
        for (a, b) in serial.payloads().iter().zip(&pooled.payloads()) {
            assert_eq!(a.to_string(), b.to_string(), "payload bytes must not depend on jobs");
        }
    }

    #[test]
    fn figure2_cells_round_trip() {
        let opts = tiny();
        let serial = run_figure2(&opts);
        let report = quiet_runner().run("figure2-test", figure2_cells(&opts));
        let parallel = assemble_figure2(&report.payloads());
        assert_eq!(serial.long_series.len(), parallel.long_series.len());
        for (s, p) in serial.long_series.iter().zip(&parallel.long_series) {
            assert_eq!(s.label, p.label);
            for (a, b) in s.points.iter().zip(&p.points) {
                assert_eq!(a.x, b.x);
                assert_eq!(a.mean, b.mean);
            }
        }
        assert_eq!(serial.baselines, parallel.baselines);
    }

    #[test]
    fn text_cells_carry_rendered_output() {
        let report = quiet_runner()
            .run("x-test", vec![text_cell("x-demo", &tiny(), |o| format!("seed {}", o.seed))]);
        assert_eq!(text_payload(&report.payloads()[0]), "seed 11");
    }

    #[test]
    fn null_holes_assemble_as_absent_measurements() {
        let opts = tiny();
        // Quarantine-shaped input: every payload is the Null hole.
        let holes = vec![Json::Null; table_cells(Bench::Ep, &opts).len()];
        let table = assemble_table(Bench::Ep, &holes);
        assert!(table.cells.iter().all(|c| c.measured.iter().all(Option::is_none)));

        let holes = vec![Json::Null; htt_cells(Bench::Ep, &opts).len()];
        let htt = assemble_htt_table(Bench::Ep, &holes);
        assert!(htt.cells.iter().all(|c| c.measured.iter().flatten().all(Option::is_none)));

        let holes = vec![Json::Null; figure2_cells(&opts).len()];
        let fig2 = assemble_figure2(&holes);
        assert!(fig2.long_series.iter().all(|s| s.label == FAILED_SERIES_LABEL));
        assert!(fig2.long_series.iter().all(|s| s.points.is_empty()));
        assert!(fig2.baselines.is_empty());

        assert_eq!(text_payload(&Json::Null), FAILED_TEXT_PAYLOAD);
    }

    #[test]
    fn partial_holes_keep_surviving_cells_intact() {
        let opts = tiny();
        let reference = quiet_runner().run("holes-ref", table_cells(Bench::Ep, &opts));
        let mut payloads = reference.payloads();
        payloads[1] = Json::Null; // quarantine one cell
        let table = assemble_table(Bench::Ep, &payloads);
        let full = assemble_table(Bench::Ep, &reference.payloads());
        assert!(table.cells[1].measured.iter().all(Option::is_none), "the hole is absent");
        for (i, (a, b)) in table.cells.iter().zip(&full.cells).enumerate() {
            if i == 1 {
                continue;
            }
            for k in 0..3 {
                match (a.measured[k], b.measured[k]) {
                    (Some(x), Some(y)) => {
                        assert_eq!(x.mean, y.mean, "surviving cell {i} smm{k} untouched");
                        assert_eq!(x.std, y.std);
                        assert_eq!(x.reps, y.reps);
                    }
                    (None, None) => {}
                    other => panic!("measured presence diverged at cell {i}: {other:?}"),
                }
            }
        }
    }
}
