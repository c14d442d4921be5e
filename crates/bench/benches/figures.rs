//! Bench targets for Figure 1 (Convolve) and Figure 2 (UnixBench): each
//! runs one representative point of the sweep through the full pipeline.

use apps::{run_convolve, run_suite, ConvolveConfig, ConvolveRun, UbCosts};
use bench::{criterion_group, criterion_main, Criterion};
use sim_core::SimRng;
use smi_driver::{SmiClass, SmiDriver, SmiDriverConfig};
use std::hint::black_box;

fn figure1_convolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure1_convolve");
    for (config, cpus, interval) in [
        (ConvolveConfig::CacheUnfriendly, 4u32, 50u64),
        (ConvolveConfig::CacheUnfriendly, 8, 600),
        (ConvolveConfig::CacheFriendly, 8, 50),
    ] {
        let label = format!("{}_{}cpu_{}ms", config.label(), cpus, interval);
        group.bench_function(&label, |b| {
            b.iter(|| {
                let driver = SmiDriver::new(SmiDriverConfig::interval_ms(SmiClass::Long, interval));
                let mut rng = SimRng::new(1);
                let run = ConvolveRun {
                    config,
                    online_cpus: cpus,
                    schedule: driver.schedule_for_node(&mut rng),
                    effects: driver.side_effects(cpus > 4),
                    threads: 24,
                };
                black_box(run_convolve(&run, &mut rng).wall_seconds)
            })
        });
    }
    group.finish();
}

fn figure2_unixbench(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure2_unixbench");
    group.sample_size(2);
    for (cpus, interval) in [(4u32, 100u64), (8, 1600)] {
        let label = format!("{cpus}cpu_{interval}ms");
        group.bench_function(&label, |b| {
            b.iter(|| {
                let driver = SmiDriver::new(SmiDriverConfig::interval_ms(SmiClass::Long, interval));
                let mut rng = SimRng::new(2);
                let schedule = driver.schedule_for_node(&mut rng);
                let effects = driver.side_effects(cpus > 4);
                black_box(run_suite(cpus, &schedule, &effects, &UbCosts::default()).total_index)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(2);
    targets = figure1_convolve, figure2_unixbench
}
criterion_main!(figures);
