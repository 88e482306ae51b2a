//! Linear-algebra helpers for the equivalence analysis.
//!
//! The per-layer error-propagation bound of the paper (Section 4.2) scales
//! error vectors by the largest singular value `λ_max(W)` of each linear
//! layer's weight matrix. We compute `λ_max` with power iteration on
//! `WᵀW` — accurate to a relative tolerance, cheap, and dependency-free.

use crate::rng::Prng;
use crate::tensor::Tensor;

/// Matrix–vector product `m · v` for `m: [r, c]`, `v: [c]`.
pub fn matvec(m: &Tensor, v: &[f32]) -> Vec<f32> {
    assert_eq!(m.cols(), v.len(), "matvec dimension mismatch");
    (0..m.rows())
        .map(|r| m.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
        .collect()
}

/// Matrix-transpose–vector product `mᵀ · v` for `m: [r, c]`, `v: [r]`.
pub fn matvec_t(m: &Tensor, v: &[f32]) -> Vec<f32> {
    assert_eq!(m.rows(), v.len(), "matvec_t dimension mismatch");
    let mut out = vec![0.0f32; m.cols()];
    for (r, &vr) in v.iter().enumerate() {
        if vr == 0.0 {
            continue;
        }
        for (o, &a) in out.iter_mut().zip(m.row(r)) {
            *o += a * vr;
        }
    }
    out
}

/// Euclidean norm of a vector.
pub fn l2_norm(v: &[f32]) -> f64 {
    v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
}

/// Scale a vector to unit norm in place; returns the pre-scaling norm.
fn normalize(v: &mut [f32]) -> f64 {
    let n = l2_norm(v);
    if n > 0.0 {
        let inv = (1.0 / n) as f32;
        for x in v {
            *x *= inv;
        }
    }
    n
}

/// Largest singular value of `m`, estimated by power iteration on `mᵀm`.
///
/// Converges to relative tolerance `tol` or after `max_iters` iterations,
/// whichever comes first. Deterministic for a fixed `seed`. Returns 0 for a
/// zero or empty matrix.
pub fn spectral_norm(m: &Tensor, tol: f64, max_iters: usize, seed: u64) -> f64 {
    if m.rows() == 0 || m.cols() == 0 {
        return 0.0;
    }
    let mut rng = Prng::seed_from_u64(seed);
    let mut v: Vec<f32> = (0..m.cols()).map(|_| rng.gaussian() as f32).collect();
    if normalize(&mut v) == 0.0 {
        v[0] = 1.0;
    }
    let mut sigma = 0.0f64;
    for _ in 0..max_iters {
        // v ← normalize(mᵀ (m v)); σ ← ‖m v‖
        let mv = matvec(m, &v);
        let new_sigma = l2_norm(&mv);
        if new_sigma == 0.0 {
            return 0.0;
        }
        let mut next = matvec_t(m, &mv);
        normalize(&mut next);
        v = next;
        let rel = (new_sigma - sigma).abs() / new_sigma.max(1e-30);
        sigma = new_sigma;
        if rel < tol {
            break;
        }
    }
    sigma
}

/// Largest singular value with default tolerances (1e-6, 200 iterations).
///
/// ```
/// use sommelier_tensor::{linalg, Tensor};
/// let m = Tensor::identity(4).map(|x| x * 3.0);
/// assert!((linalg::spectral_norm_default(&m) - 3.0).abs() < 1e-3);
/// ```
pub fn spectral_norm_default(m: &Tensor) -> f64 {
    spectral_norm(m, 1e-6, 200, 0x5eed)
}

/// Number of independent accumulator lanes in the chunked kernels. Eight
/// `f64` lanes fill two AVX2 registers (or four NEON ones), which is what
/// lets the compiler auto-vectorize the main loop.
const LANES: usize = 8;

/// Reduce eight accumulator lanes pairwise: `((0+1)+(2+3)) + ((4+5)+(6+7))`.
///
/// The balanced tree keeps rounding error at `O(log n)` ulps instead of the
/// sequential sum's `O(n)`, and — because `x + 0.0 == x` for every finite
/// `x` — degenerates to the exact sequential sum when fewer than eight
/// lanes are populated (short-vector tails).
#[inline]
fn reduce_lanes(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Chunked dot product over `f32` slices: eight independent `f64`
/// accumulators over the 8-wide body, the exact tail folded into the
/// low lanes, pairwise lane reduction. The loop body is branch-free and
/// auto-vectorizes.
pub fn dot_chunked(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for lane in 0..LANES {
            acc[lane] += f64::from(xa[lane]) * f64::from(xb[lane]);
        }
    }
    for (lane, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[lane] += f64::from(x) * f64::from(y);
    }
    reduce_lanes(acc)
}

/// Fused chunked cosine similarity: one pass computes `a·b`, `‖a‖²`, and
/// `‖b‖²` together (eight lanes each); 0 when either vector is all-zero.
pub fn cosine_chunked(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine length mismatch");
    let mut dot_acc = [0.0f64; LANES];
    let mut na_acc = [0.0f64; LANES];
    let mut nb_acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for lane in 0..LANES {
            let (x, y) = (f64::from(xa[lane]), f64::from(xb[lane]));
            dot_acc[lane] += x * y;
            na_acc[lane] += x * x;
            nb_acc[lane] += y * y;
        }
    }
    for (lane, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let (x, y) = (f64::from(x), f64::from(y));
        dot_acc[lane] += x * y;
        na_acc[lane] += x * x;
        nb_acc[lane] += y * y;
    }
    let (na, nb) = (reduce_lanes(na_acc).sqrt(), reduce_lanes(nb_acc).sqrt());
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    reduce_lanes(dot_acc) / (na * nb)
}

/// Dot product of two equal-length slices (chunked/pairwise accumulation —
/// agrees with [`dot_chunked`] bit-for-bit).
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    dot_chunked(a, b)
}

/// Cosine similarity between two vectors; 0 when either is all-zero.
/// This is the comparator ModelDiff uses over decision-distance vectors
/// (paper Section 7.2).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_basics() {
        let m = Tensor::from_vec(2, 3, vec![1., 0., 2., 0., 1., 0.]);
        assert_eq!(matvec(&m, &[1., 2., 3.]), vec![7., 2.]);
        assert_eq!(matvec_t(&m, &[1., 1.]), vec![1., 1., 2.]);
    }

    #[test]
    fn l2_norm_pythagoras() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn spectral_norm_of_identity_is_one() {
        let m = Tensor::identity(8);
        assert!((spectral_norm_default(&m) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn spectral_norm_of_diagonal_is_max_entry() {
        let mut m = Tensor::zeros(4, 4);
        for (i, v) in [0.5f32, 3.0, 1.0, 2.0].iter().enumerate() {
            m.set(i, i, *v);
        }
        assert!((spectral_norm_default(&m) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn spectral_norm_of_scaled_identity_scales() {
        let m = Tensor::identity(5).map(|x| x * 7.0);
        assert!((spectral_norm_default(&m) - 7.0).abs() < 1e-3);
    }

    #[test]
    fn spectral_norm_rectangular_rank_one() {
        // rank-1 matrix u vᵀ with ‖u‖=2, ‖v‖=3 → σ = 6
        let u = [2.0f32, 0.0];
        let v = [0.0f32, 3.0, 0.0];
        let m = Tensor::from_fn(2, 3, |r, c| u[r] * v[c]);
        assert!((spectral_norm_default(&m) - 6.0).abs() < 1e-3);
    }

    #[test]
    fn spectral_norm_zero_matrix() {
        assert_eq!(spectral_norm_default(&Tensor::zeros(3, 3)), 0.0);
    }

    #[test]
    fn cosine_similarity_bounds() {
        assert!((cosine_similarity(&[1., 0.], &[1., 0.]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1., 0.], &[0., 1.])).abs() < 1e-12);
        assert!((cosine_similarity(&[1., 0.], &[-1., 0.]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0., 0.], &[1., 2.]), 0.0);
    }

    /// Sequential reference implementation the chunked kernels are
    /// checked against. Folds from +0.0 explicitly: std's `Sum<f64>`
    /// identity is -0.0, and the kernels (like any accumulator loop
    /// starting at +0.0) return +0.0 for empty input — numerically
    /// equal, different bits.
    fn dot_ref(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .fold(0.0, |s, (&x, &y)| s + (x as f64) * (y as f64))
    }

    fn gaussian_pair(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = crate::rng::Prng::seed_from_u64(seed);
        let a = (0..len).map(|_| rng.gaussian() as f32).collect();
        let b = (0..len).map(|_| rng.gaussian() as f32).collect();
        (a, b)
    }

    #[test]
    fn chunked_dot_handles_degenerate_lengths() {
        assert_eq!(dot_chunked(&[], &[]), 0.0);
        assert_eq!(dot_chunked(&[2.0], &[3.0]), 6.0);
        assert_eq!(cosine_chunked(&[], &[]), 0.0);
        assert_eq!(cosine_chunked(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn short_vector_dot_is_bitwise_sequential() {
        // With fewer than eight elements every product lands in its own
        // lane and the pairwise reduction associates exactly like the
        // sequential sum — bit-for-bit, which is what keeps short dots
        // unchanged by the kernel switch.
        for len in 0..8 {
            let (a, b) = gaussian_pair(len, 11 + len as u64);
            assert_eq!(dot_chunked(&a, &b).to_bits(), dot_ref(&a, &b).to_bits());
        }
    }

    #[test]
    fn dot_delegates_to_the_chunked_kernel() {
        let (a, b) = gaussian_pair(123, 5);
        assert_eq!(dot(&a, &b).to_bits(), dot_chunked(&a, &b).to_bits());
    }

    #[test]
    fn cosine_chunked_matches_cosine_similarity() {
        for len in [1, 3, 8, 65, 1024] {
            let (a, b) = gaussian_pair(len, 77 + len as u64);
            let fused = cosine_chunked(&a, &b);
            let plain = cosine_similarity(&a, &b);
            assert!((fused - plain).abs() < 1e-12, "len={len}");
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&fused));
        }
    }

    mod kernel_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The chunked kernels agree with the scalar reference to
            /// strict tolerance across every length 0–1025 (both sides of
            /// every 8-wide chunk boundary included).
            #[test]
            fn chunked_kernels_match_scalar_reference(
                len in 0usize..=1025,
                seed in any::<u64>(),
            ) {
                let (a, b) = gaussian_pair(len, seed);
                let magnitude: f64 = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| ((x as f64) * (y as f64)).abs())
                    .sum::<f64>()
                    .max(1.0);
                let tol = 1e-10 * magnitude;

                prop_assert!((dot_chunked(&a, &b) - dot_ref(&a, &b)).abs() <= tol);
            }
        }
    }

    #[test]
    fn spectral_norm_bounds_matvec_amplification() {
        // ‖m v‖ ≤ σ_max ‖v‖ must hold for arbitrary v.
        let mut rng = crate::rng::Prng::seed_from_u64(42);
        let m = Tensor::gaussian(6, 9, 1.0, &mut rng);
        let sigma = spectral_norm_default(&m);
        for _ in 0..20 {
            let v: Vec<f32> = (0..9).map(|_| rng.gaussian() as f32).collect();
            let amplified = l2_norm(&matvec(&m, &v));
            assert!(amplified <= sigma * l2_norm(&v) * (1.0 + 1e-3));
        }
    }
}
