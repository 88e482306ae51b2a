//! Linear-algebra helpers for the equivalence analysis.
//!
//! The per-layer error-propagation bound of the paper (Section 4.2) scales
//! error vectors by the largest singular value `λ_max(W)` of each linear
//! layer's weight matrix. We compute `λ_max` with power iteration on
//! `WᵀW` — accurate to a relative tolerance, cheap, and dependency-free.
//!
//! [`matvec`] and [`matvec_t`] define the summation order of the power
//! iteration. [`spectral_norm`] runs its own vectorizable kernel, but each
//! output element is summed in the same order as `matvec` / `matvec_t`,
//! so results are bit-identical to them.
//!
//! # One kernel, dispatched on the CPU's SIMD width
//!
//! The power iteration and [`crate::ops::matmul`] share one four-row
//! kernel (`matvec_t_into`; row `i` of `a · b` is `bᵀ`'s product with
//! row `i` of `a`). The kernel and everything the power iteration calls
//! are `#[inline(always)]`, so each entry point is compiled twice on
//! x86-64: for the baseline (SSE2, four `f32` lanes) and under `avx2`
//! (eight). Each call runs the AVX2 copy when the CPU reports AVX2,
//! picked with `is_x86_feature_detected!` as
//! `sommelier_index::somb::crc32` picks its SSE4.2 path. Other targets
//! compile only the baseline copy. An `avx512f` copy ran the kernel
//! faster still, but the queries served after each apply read slower
//! (the core's AVX-512 clock license outlives the kernel), so it is
//! not built.
//!
//! The copies return the same bits. Every output element is one lane,
//! and every lane does the same IEEE-754 multiply, then the same add,
//! in the same order as the scalar loop. Rust never contracts `a * b + c`
//! into a fused multiply-add, so no FMA instruction is emitted. The
//! `f64` norms are sequential sums in every copy. The tests hold each
//! tier the host detects to the baseline bit for bit.

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
#[inline(always)]
pub fn l2_norm(v: &[f32]) -> f64 {
    v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
}

/// Scale a vector to unit norm in place; returns the pre-scaling norm.
#[inline(always)]
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
/// zero or empty matrix, and NaN at once for a matrix with a non-finite
/// entry.
///
/// Each output element of `m v` and `mᵀ (m v)` is summed in the same order
/// as [`matvec`] / [`matvec_t`], so results are bit-identical to a loop
/// over them, on every instruction set the kernel is dispatched to (see
/// the module docs). If an iterate overflows `f32`, the iteration reruns
/// on `m` scaled by a power of two (exact) and scales σ back.
pub fn spectral_norm(m: &Tensor, tol: f64, max_iters: usize, seed: u64) -> f64 {
    spectral_norm_on(Isa::widest(), m, tol, max_iters, seed)
}

/// [`spectral_norm`] with its power iteration compiled for `isa`.
fn spectral_norm_on(isa: Isa, m: &Tensor, tol: f64, max_iters: usize, seed: u64) -> f64 {
    if m.rows() == 0 || m.cols() == 0 {
        return 0.0;
    }
    if !m.as_slice().iter().all(|x| x.is_finite()) {
        return f64::NAN;
    }
    if let Some(sigma) = power_iteration(isa, m, tol, max_iters, seed) {
        return sigma;
    }
    // Bring the largest entry into [1, 2). The exponent is clamped so the
    // factor 2⁻ᵏ stays finite in f32.
    let k = (m.max_abs() as f64).log2().floor().max(-126.0) as i32;
    let scaled = m.map(|x| x * 2f64.powi(-k) as f32);
    power_iteration(isa, &scaled, tol, max_iters, seed).map_or(f64::NAN, |s| s * 2f64.powi(k))
}

/// An instruction set the kernel is compiled for. `Baseline` is what
/// the target builds for by default (SSE2 on x86-64); `Avx2` exists on
/// x86-64 only, and runs only where the CPU reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Baseline,
    Avx2,
}

impl Isa {
    /// The widest instruction set this CPU reports.
    pub(crate) fn widest() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Baseline
    }

    /// Every instruction set this CPU can run, narrowest first.
    #[cfg(test)]
    pub(crate) fn detected() -> Vec<Isa> {
        let mut isas = vec![Isa::Baseline];
        if Isa::widest() == Isa::Avx2 {
            isas.push(Isa::Avx2);
        }
        isas
    }
}

/// Defines `fn $name(isa: Isa, args…)`, which runs the `#[inline(always)]`
/// `$body` compiled for `isa`: the wide copy under `#[target_feature]`,
/// entered only after the CPU is seen to have the feature. An `isa` the
/// CPU lacks runs the baseline copy.
macro_rules! per_isa {
    ($(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:ident) => {
        $(#[$doc])*
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
        $vis fn $name(isa: Isa, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if isa == Isa::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
                /// `$body` compiled for AVX2.
                ///
                /// # Safety
                ///
                /// The CPU must support AVX2.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                // SAFETY: the CPU reports AVX2.
                return unsafe { avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

per_isa! {
    /// The power iteration of [`spectral_norm`], compiled for `isa`.
    fn power_iteration(m: &Tensor, tol: f64, max_iters: usize, seed: u64) -> Option<f64>
        = power_iteration_body
}

per_isa! {
    /// `out ← a · b` for `a: [m, k]`, `b: [k, n]` and `out: [m, n]`,
    /// compiled for `isa`. Row `i` is `matvec_t_into(b, a.row(i))`: the
    /// products `a_ik · b_kj` added in `k` order from `0.0`, a zero
    /// `a_ik` skipped.
    pub(crate) fn matmul_on(a: &Tensor, b: &Tensor, out: &mut Tensor) = matmul_body
}

#[inline(always)]
fn matmul_body(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    // The kernel walks `b` in runs of whole rows, which needs `n > 0`.
    if out.cols() == 0 {
        return;
    }
    for i in 0..a.rows() {
        let _ = matvec_t_into(b, a.row(i), out.row_mut(i));
    }
}

/// The power iteration of [`spectral_norm`] on a finite, non-empty `m`;
/// `None` once `‖m v‖` is not finite.
#[inline(always)]
fn power_iteration_body(m: &Tensor, tol: f64, max_iters: usize, seed: u64) -> Option<f64> {
    let mt = m.transpose();
    let mut rng = Prng::seed_from_u64(seed);
    let mut v: Vec<f32> = (0..m.cols()).map(|_| rng.gaussian() as f32).collect();
    if normalize(&mut v) == 0.0 {
        v[0] = 1.0;
    }
    let mut mv = vec![0.0f32; m.rows()];
    let mut next = vec![0.0f32; m.cols()];
    let mut sigma = 0.0f64;
    for _ in 0..max_iters {
        // v ← normalize(mᵀ (m v)); σ ← ‖m v‖, summed in the mᵀ pass so
        // that its serial adds overlap the pass's vector work.
        matvec_by_columns(&mt, &v, &mut mv);
        let new_sigma = matvec_t_into(m, &mv, &mut next).sqrt();
        if !new_sigma.is_finite() {
            return None;
        }
        if new_sigma == 0.0 {
            return Some(0.0);
        }
        normalize(&mut next);
        std::mem::swap(&mut v, &mut next);
        let rel = (new_sigma - sigma).abs() / new_sigma.max(1e-30);
        sigma = new_sigma;
        if rel < tol {
            break;
        }
    }
    Some(sigma)
}

/// `out ← m v`, given `mt = mᵀ`. Every row's sum folds from `-0.0` (as
/// `f32::sum` does) over the columns in order, exactly as [`matvec`];
/// the rows are independent lanes.
#[inline(always)]
fn matvec_by_columns(mt: &Tensor, v: &[f32], out: &mut [f32]) {
    let rows = out.len();
    out.fill(-0.0);
    let mut columns = mt.as_slice().chunks_exact(4 * rows);
    let mut xs = v.chunks_exact(4);
    for (quad, x) in columns.by_ref().zip(xs.by_ref()) {
        add_four_rows(out, quad, x);
    }
    for (a, &x) in columns.remainder().chunks_exact(rows).zip(xs.remainder()) {
        add_row(out, a, x);
    }
}

/// `out ← mᵀ y`, exactly as [`matvec_t`]: rows with `y[r] == 0` are
/// skipped, and four rows go per pass when none of them is. Returns
/// `‖y‖²` summed in row order from `-0.0`, as [`l2_norm`] sums it.
#[inline(always)]
fn matvec_t_into(m: &Tensor, y: &[f32], out: &mut [f32]) -> f64 {
    let cols = out.len();
    out.fill(0.0);
    let mut squares = -0.0f64;
    let mut rows = m.as_slice().chunks_exact(4 * cols);
    let mut ys = y.chunks_exact(4);
    for (quad, w) in rows.by_ref().zip(ys.by_ref()) {
        for &wr in w {
            squares += f64::from(wr) * f64::from(wr);
        }
        if w.contains(&0.0) {
            for (a, &wr) in quad.chunks_exact(cols).zip(w) {
                if wr != 0.0 {
                    add_row(out, a, wr);
                }
            }
        } else {
            add_four_rows(out, quad, w);
        }
    }
    for (a, &wr) in rows.remainder().chunks_exact(cols).zip(ys.remainder()) {
        squares += f64::from(wr) * f64::from(wr);
        if wr != 0.0 {
            add_row(out, a, wr);
        }
    }
    squares
}

/// `out += a₀·w₀ + a₁·w₁ + a₂·w₂ + a₃·w₃` for the four rows `aᵢ` of
/// `quad`, added one row after another per element — the same additions
/// as four [`add_row`] calls, with one load and store of `out`.
#[inline(always)]
fn add_four_rows(out: &mut [f32], quad: &[f32], w: &[f32]) {
    let n = out.len();
    let (a0, rest) = quad.split_at(n);
    let (a1, rest) = rest.split_at(n);
    let (a2, a3) = rest.split_at(n);
    let (w0, w1, w2, w3) = (w[0], w[1], w[2], w[3]);
    let iter = out.iter_mut().zip(a0).zip(a1).zip(a2).zip(a3);
    for ((((o, &p0), &p1), &p2), &p3) in iter {
        *o = (((*o + p0 * w0) + p1 * w1) + p2 * w2) + p3 * w3;
    }
}

/// `out += a · w`.
#[inline(always)]
fn add_row(out: &mut [f32], a: &[f32], w: f32) {
    for (o, &p) in out.iter_mut().zip(a) {
        *o += p * w;
    }
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
        assert_eq!(cosine_similarity(&[], &[]), 0.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
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

    mod spectral_kernel {
        use super::*;
        use crate::rng::Prng;
        use proptest::prelude::*;

        /// The power iteration as it was written before the kernel:
        /// allocating `matvec` → `matvec_t` per iteration. It is the
        /// oracle the kernel must match bit for bit.
        fn spectral_norm_reference(m: &Tensor, tol: f64, max_iters: usize, seed: u64) -> f64 {
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

        /// A `rows × cols` matrix of gaussians times `scale`. `flags` bit 0
        /// zeroes about a quarter of the rows, bit 1 a quarter of the
        /// columns, bit 2 keeps about one entry in eight, and bit 3 turns
        /// about a third of the zeros it makes into `-0.0`.
        fn matrix(rows: usize, cols: usize, scale: f32, flags: u8, seed: u64) -> Tensor {
            let mut rng = Prng::seed_from_u64(seed);
            let zero_row: Vec<bool> = (0..rows)
                .map(|_| flags & 1 != 0 && rng.flip(0.25))
                .collect();
            let zero_col: Vec<bool> = (0..cols)
                .map(|_| flags & 2 != 0 && rng.flip(0.25))
                .collect();
            Tensor::from_fn(rows, cols, |r, c| {
                let x = rng.gaussian() as f32 * scale;
                let zero = zero_row[r] || zero_col[c] || (flags & 4 != 0 && rng.flip(0.875));
                match (zero, flags & 8 != 0 && rng.flip(1.0 / 3.0)) {
                    (false, _) => x,
                    (true, true) => -0.0,
                    (true, false) => 0.0,
                }
            })
        }

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            /// The kernel returns the reference's bits wherever the
            /// reference's iterates stay finite. Where they do not (tiny
            /// scales whose normalization overflows), it rescales and
            /// returns a finite σ.
            #[test]
            fn kernel_matches_the_reference_bit_for_bit(
                rows in 1usize..=300,
                cols in 1usize..=300,
                exp in -20i32..=15,
                flags in 0u8..16,
                (tol, max_iters) in (sample::select(vec![0.0, 1e-6]), sample::select(vec![1usize, 17, 200])),
                seed in any::<u64>(),
            ) {
                let m = matrix(rows, cols, 10f32.powi(exp), flags, seed);
                let want = spectral_norm_reference(&m, tol, max_iters, seed);
                let got = spectral_norm(&m, tol, max_iters, seed);
                if want.is_finite() {
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "{}x{} 1e{} flags {}: {} vs {}", rows, cols, exp, flags, got, want
                    );
                } else {
                    prop_assert!(got.is_finite(), "{}x{} 1e{} flags {}: {}", rows, cols, exp, flags, got);
                }
            }

            /// One product of each kind, against `matvec` / `matvec_t`
            /// element by element, signed zeros included.
            #[test]
            fn products_match_matvec_bit_for_bit(
                rows in 1usize..=41,
                cols in 1usize..=41,
                flags in 0u8..16,
                seed in any::<u64>(),
            ) {
                let m = matrix(rows, cols, 1.0, flags, seed);
                let v: Vec<f32> = matrix(1, cols, 1.0, flags, !seed).as_slice().to_vec();
                let mut mv = vec![f32::NAN; rows];
                matvec_by_columns(&m.transpose(), &v, &mut mv);
                prop_assert_eq!(bits(&mv), bits(&matvec(&m, &v)));
                let y: Vec<f32> = matrix(1, rows, 1.0, flags, seed ^ 1).as_slice().to_vec();
                let mut mty = vec![f32::NAN; cols];
                let squares = matvec_t_into(&m, &y, &mut mty);
                prop_assert_eq!(bits(&mty), bits(&matvec_t(&m, &y)));
                prop_assert_eq!(squares.sqrt().to_bits(), l2_norm(&y).to_bits());
            }

            /// The dispatched `spectral_norm`, and the power iteration
            /// compiled for every tier the host detects, return the baseline
            /// copy's bits. `large` plants one entry of `1e30`, whose
            /// iterates overflow `f32` and take the rescale path, as tiny
            /// scales do.
            #[test]
            fn every_tier_gives_the_baseline_bits(
                rows in 1usize..=200,
                cols in 1usize..=200,
                exp in -20i32..=15,
                flags in 0u8..16,
                large in any::<bool>(),
                (tol, max_iters) in (sample::select(vec![0.0, 1e-6]), sample::select(vec![1usize, 17, 200])),
                seed in any::<u64>(),
            ) {
                let mut m = matrix(rows, cols, 10f32.powi(exp), flags, seed);
                if large {
                    m.set(rows / 2, cols / 2, 1e30);
                }
                let want = spectral_norm_on(Isa::Baseline, &m, tol, max_iters, seed).to_bits();
                prop_assert!(
                    spectral_norm(&m, tol, max_iters, seed).to_bits() == want,
                    "dispatched, {}x{} 1e{} flags {} large {}", rows, cols, exp, flags, large
                );
                for isa in Isa::detected() {
                    let got = spectral_norm_on(isa, &m, tol, max_iters, seed).to_bits();
                    prop_assert!(
                        got == want,
                        "{:?}, {}x{} 1e{} flags {} large {}", isa, rows, cols, exp, flags, large
                    );
                }
            }
        }

        #[test]
        fn a_zero_inside_a_run_of_four_is_skipped_like_the_reference() {
            // Rows 1 and 6 are zero, so `m v` is zero there and the runs
            // 0..4 and 4..8 of `mᵀ (m v)` each hold one skipped row.
            let m = Tensor::from_fn(9, 7, |r, c| {
                if r == 1 || r == 6 {
                    0.0
                } else {
                    ((r * 7 + c) as f32 * 0.37).sin()
                }
            });
            for max_iters in [1, 17, 200] {
                assert_eq!(
                    spectral_norm(&m, 0.0, max_iters, 3).to_bits(),
                    spectral_norm_reference(&m, 0.0, max_iters, 3).to_bits()
                );
            }
        }

        #[test]
        fn golden_bits_are_pinned() {
            // Computed by the allocating loop before the kernel replaced
            // it. Every in-tree oracle shares this kernel; these do not.
            for (seed, rows, cols, want) in [
                (1u64, 64usize, 64usize, 0x402e_a758_9941_0d23u64),
                (2, 96, 32, 0x4030_1a4c_6271_a9ca),
                (3, 1, 300, 0x4031_0e69_0000_0000),
            ] {
                let mut rng = Prng::seed_from_u64(seed);
                let m = Tensor::gaussian(rows, cols, 1.0, &mut rng);
                assert_eq!(spectral_norm_default(&m).to_bits(), want, "{rows}x{cols}");
            }
        }

        /// A 16×12 gaussian matrix with one entry of `1e30`.
        fn with_large_entry() -> Tensor {
            let mut rng = Prng::seed_from_u64(16);
            let mut m = Tensor::gaussian(16, 12, 1.0, &mut rng);
            m.set(5, 7, 1e30);
            m
        }

        #[test]
        fn a_large_finite_entry_gives_a_finite_sigma() {
            let m = with_large_entry();
            // `mᵀ (m v)` overflows f32, and every later iterate is NaN.
            assert!(spectral_norm_reference(&m, 1e-6, 200, 0x5eed).is_nan());
            let sigma = spectral_norm_default(&m);
            let rescaled = spectral_norm_default(&m.map(|x| x * 1e-25)) * 1e25;
            assert!(sigma.is_finite() && sigma >= 1e30 * (1.0 - 1e-6), "{sigma}");
            assert!(
                (sigma - rescaled).abs() <= 1e-3 * rescaled,
                "{sigma} vs {rescaled}"
            );
        }

        #[test]
        fn a_non_finite_entry_gives_nan_without_iterating() {
            // Unbounded iterations with no tolerance: only the up-front
            // check returns.
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let mut m = with_large_entry();
                m.set(2, 3, bad);
                assert!(spectral_norm(&m, 0.0, usize::MAX, 1).is_nan(), "{bad}");
            }
        }
    }
}
