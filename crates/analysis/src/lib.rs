//! # analysis — experiment harness, tables, figures, comparisons
//!
//! Reproduces every table and figure in the paper's evaluation. An
//! artifact is produced one way only: its [`cells`] builder hands
//! independent cells to the parallel [`runner`], and the matching
//! `assemble_*` function turns the runner's payloads back into the
//! result struct the renderers print.
//!
//! * [`cells`] — the cell builders and assemblers for Tables 1–5 and
//!   Figures 1–2;
//! * [`mpi_tables`] — the result types of Tables 1–3 (NAS EP/BT/FT
//!   under SMM 0/1/2) and Tables 4–5 (the HTT interaction), and the
//!   per-cell measurement: calibrated to the paper's SMM-0 baseline and
//!   replicated with fresh SMI phases;
//! * [`figures`] — the result types and point models of Figure 1
//!   (Convolve interval/CPU sweeps) and Figure 2 (UnixBench index
//!   sweeps);
//! * [`noise_study`] — the noise-shape study's cells, assembler and
//!   renderer;
//! * [`render`] — paper-layout text tables and CSV export;
//! * [`compare`] — paper-vs-measured agreement metrics and the
//!   EXPERIMENTS.md report blocks.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod absorption;
pub mod cells;
pub mod compare;
pub mod extensions;
pub mod figures;
pub mod mpi_tables;
pub mod noise_study;
pub mod opts;
pub mod render;
pub mod svg;

pub use absorption::{absorption_profile, probe, AbsorptionPoint};
pub use compare::{agreement, htt_report, table_report, Agreement, NOISE_FLOOR_PP};
pub use extensions::{scale_projection, variance_study, ScalePoint, VariancePoint};
pub use figures::{impact_slope, FigPoint, FigSeries, Figure1Result, Figure2Result};
pub use mpi_tables::{
    measure_cell, measure_cell_adaptive, HttTableCell, HttTableResult, Measured, TableCell,
    TableResult, SMM_CLASSES,
};
pub use noise_study::{assemble_noise, noise_cell, noise_cells, render_noise, NoiseRow};
pub use opts::RunOptions;
pub use render::{
    render_figure1, render_figure2, render_htt_table, render_table, series_csv, table_csv,
};
pub use svg::{render_chart, ChartSpec};
