//! Criterion microbenchmarks for the tensor substrate — the kernels every
//! higher layer (execution, equivalence analysis, bounds) is built on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sommelier_tensor::{linalg, ops, Prng, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        let mut rng = Prng::seed_from_u64(1);
        let a = Tensor::gaussian(n, n, 1.0, &mut rng);
        let b = Tensor::gaussian(n, n, 1.0, &mut rng);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| ops::matmul(&a, &b))
        });
    }
    group.finish();
}

fn bench_spectral_norm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral_norm");
    for &n in &[64usize, 128, 256] {
        let mut rng = Prng::seed_from_u64(2);
        let m = Tensor::gaussian(n, n, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| linalg::spectral_norm_default(&m))
        });
    }
    // The shapes a register hands the kernel: a dense layer, a 3-tap
    // convolution's Toeplitz matrix (width 96 → 94), and the zoo's
    // largest matrix, the 192 → 96 stem (18 432 cells).
    let mut rng = Prng::seed_from_u64(2);
    let taps = [1.0f32, 0.3, -0.2];
    let zoo = [
        ("dense_96x64", Tensor::gaussian(96, 64, 0.1, &mut rng)),
        (
            "conv_toeplitz_96x94",
            Tensor::from_fn(96, 94, |r, c| {
                taps.get(r.wrapping_sub(c)).copied().unwrap_or(0.0)
            }),
        ),
        ("dense_192x96", Tensor::gaussian(192, 96, 0.1, &mut rng)),
    ];
    for (name, m) in &zoo {
        group.bench_function(*name, |bch| bch.iter(|| linalg::spectral_norm_default(m)));
    }
    group.finish();
}

fn bench_activations(c: &mut Criterion) {
    let mut rng = Prng::seed_from_u64(3);
    let x = Tensor::gaussian(64, 1024, 1.0, &mut rng);
    let mut group = c.benchmark_group("activations_64x1024");
    group.bench_function("relu", |b| b.iter(|| ops::relu(&x)));
    group.bench_function("softmax", |b| b.iter(|| ops::softmax(&x)));
    group.bench_function("l2_normalize", |b| b.iter(|| ops::l2_normalize(&x)));
    group.bench_function("max_pool_4", |b| b.iter(|| ops::max_pool(&x, 4)));
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_spectral_norm, bench_activations);
criterion_main!(benches);
