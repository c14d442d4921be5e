//! Benchmarks of the *real* computational kernels — the actual
//! EP deviate generation, BT block-tridiagonal solves, 3-D FFTs and
//! threaded convolution that anchor the workload models. These measure
//! genuine host performance (and incidentally let you estimate what a
//! class-A run would take on this machine).

use apps::{convolve_blocked, convolve_serial, Image, Kernel};
use bench::{criterion_group, criterion_main, Criterion, Throughput};
use nas::bt::{solve, BlockTriSystem, Mat5};
use nas::ep::ep_chunk;
use nas::ft::{Complex, Field3};
use sim_core::SimRng;
use std::hint::black_box;

fn ep_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("real_ep");
    let pairs = 1u64 << 16;
    group.throughput(Throughput::Elements(pairs));
    group.bench_function("gaussian_pairs_64k", |b| b.iter(|| black_box(ep_chunk(0, pairs).gc())));
    group.finish();
}

fn bt_kernel(c: &mut Criterion) {
    let mut rng = SimRng::new(1);
    let n = 162; // one class-C grid line
    let mut mk = |scale: f64| -> Mat5 {
        let mut m = [[0.0; 5]; 5];
        for row in &mut m {
            for v in row.iter_mut() {
                *v = rng.uniform_range(-scale, scale);
            }
        }
        m
    };
    let mut a = Vec::new();
    let mut bdiag = Vec::new();
    let mut cup = Vec::new();
    let mut r = Vec::new();
    for i in 0..n {
        a.push(if i > 0 { mk(0.1) } else { [[0.0; 5]; 5] });
        let mut d = mk(0.2);
        for (k, row) in d.iter_mut().enumerate() {
            row[k] += 4.0;
        }
        bdiag.push(d);
        cup.push(if i + 1 < n { mk(0.1) } else { [[0.0; 5]; 5] });
        r.push([1.0, 0.5, -0.5, 2.0, -1.0]);
    }
    let sys = BlockTriSystem { a, b: bdiag, c: cup, r };
    let mut group = c.benchmark_group("real_bt");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("block_tridiag_line_162", |b| b.iter(|| black_box(solve(&sys))));
    group.finish();
}

fn ft_kernel(c: &mut Criterion) {
    let mut rng = SimRng::new(2);
    let mut field = Field3::zeros((64, 32, 32));
    for v in &mut field.data {
        *v = Complex::new(rng.uniform_range(-1.0, 1.0), rng.uniform_range(-1.0, 1.0));
    }
    let mut group = c.benchmark_group("real_ft");
    group.throughput(Throughput::Elements(field.len() as u64));
    group.bench_function("fft3_64x32x32", |b| {
        b.iter(|| {
            let mut f = field.clone();
            f.fft3(false);
            black_box(f.checksum())
        })
    });
    group.finish();
}

fn convolve_kernel(c: &mut Criterion) {
    let mut rng = SimRng::new(3);
    let img = Image::from_fn(192, 192, |_, _| rng.range_u64(0, 255) as i64);
    let ker = Kernel::gaussian(5);
    let mut group = c.benchmark_group("real_convolve");
    group.throughput(Throughput::Elements((img.rows * img.cols) as u64));
    group
        .bench_function("serial_192x192_g5", |b| b.iter(|| black_box(convolve_serial(&img, &ker))));
    group.bench_function("blocked_24threads_192x192_g5", |b| {
        b.iter(|| black_box(convolve_blocked(&img, &ker, 48, 24)))
    });
    group.finish();
}

criterion_group! {
    name = real_kernels;
    config = Criterion::default().sample_size(2);
    targets = ep_kernel, bt_kernel, ft_kernel, convolve_kernel
}
criterion_main!(real_kernels);
