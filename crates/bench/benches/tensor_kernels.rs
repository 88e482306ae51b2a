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
    // A call is 10-600 us; fifty samples would time a few milliseconds.
    group.sample_size(400);
    for &n in &[64usize, 128, 256] {
        let mut rng = Prng::seed_from_u64(2);
        let m = Tensor::gaussian(n, n, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| linalg::spectral_norm_default(&m))
        });
    }
    // The shapes a register hands the kernel. On `curate`'s zoo nearly
    // every call is a square Dense layer: per register about five at
    // 96x96, three at 64x64 and two at 80x80. `dense_192x96` is the
    // zoo's largest matrix, the 192 -> 96 stem (18 432 cells), and
    // `dense_96x64` a narrowing layer. The 3-tap convolution's Toeplitz
    // matrix (width 96 -> 94) is the conv shape.
    let mut rng = Prng::seed_from_u64(2);
    let mut square = Prng::seed_from_u64(3);
    let taps = [1.0f32, 0.3, -0.2];
    let zoo = [
        ("dense_96x96", Tensor::gaussian(96, 96, 0.1, &mut square)),
        ("dense_80x80", Tensor::gaussian(80, 80, 0.1, &mut square)),
        ("dense_64x64", Tensor::gaussian(64, 64, 0.1, &mut square)),
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
