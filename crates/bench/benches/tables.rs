//! One bench target per paper table. Each benchmark runs the table's
//! regeneration path on a representative cell (calibration + the three
//! SMM classes), so `cargo bench` exercises exactly the code that
//! produces Tables 1–5. The full tables are printed by
//! `smi-lab table1..table5`.

use bench::bench_opts;
use bench::{criterion_group, criterion_main, Criterion};
use mpi_sim::{ClusterSpec, NetworkParams};
use nas::{calibrate_extra, table_cell, Bench, Class};
use std::hint::black_box;

fn cell_roundtrip(bench: Bench, class: Class, nodes: u32, rpn: u32, htt: bool) -> f64 {
    let network = NetworkParams::gigabit_cluster();
    let spec = ClusterSpec::wyeast(nodes, rpn, htt).expect("valid shape");
    let target =
        table_cell(bench, class, nodes, rpn).and_then(|c| c.baseline()).expect("paper cell");
    let extra = calibrate_extra(bench, class, &spec, &network, target).expect("calibrates");
    let opts = bench_opts();
    let mut total = 0.0;
    for smm in analysis::SMM_CLASSES {
        total += analysis::measure_cell(bench, class, &spec, extra, smm, &opts, &network, "bench")
            .expect("measures")
            .mean;
    }
    total
}

fn table1_bt(c: &mut Criterion) {
    c.bench_function("table1_bt_cell_A_4n", |b| {
        b.iter(|| black_box(cell_roundtrip(Bench::Bt, Class::A, 4, 1, false)))
    });
}

fn table2_ep(c: &mut Criterion) {
    c.bench_function("table2_ep_cell_A_16n", |b| {
        b.iter(|| black_box(cell_roundtrip(Bench::Ep, Class::A, 16, 1, false)))
    });
}

fn table3_ft(c: &mut Criterion) {
    c.bench_function("table3_ft_cell_A_8n", |b| {
        b.iter(|| black_box(cell_roundtrip(Bench::Ft, Class::A, 8, 1, false)))
    });
}

fn table4_ep_htt(c: &mut Criterion) {
    c.bench_function("table4_ep_htt_cell_A_4n", |b| {
        b.iter(|| {
            black_box(
                cell_roundtrip(Bench::Ep, Class::A, 4, 4, false)
                    + cell_roundtrip(Bench::Ep, Class::A, 4, 4, true),
            )
        })
    });
}

fn table5_ft_htt(c: &mut Criterion) {
    c.bench_function("table5_ft_htt_cell_A_4n", |b| {
        b.iter(|| {
            black_box(
                cell_roundtrip(Bench::Ft, Class::A, 4, 4, false)
                    + cell_roundtrip(Bench::Ft, Class::A, 4, 4, true),
            )
        })
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(2);
    targets = table1_bt, table2_ep, table3_ft, table4_ep_htt, table5_ft_htt
}
criterion_main!(tables);
