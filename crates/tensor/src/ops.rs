//! Numeric kernels used by the graph interpreter.
//!
//! These are the concrete computations behind the operator taxonomy of the
//! paper's Section 4.2: *linear* operators (matrix multiplication and local
//! convolution), *non-linear* operators (activations, pooling,
//! normalization), and *multi-source combinations* (add, multiply, concat).

use crate::linalg;
use crate::tensor::Tensor;

/// `a @ b` for `a: [m, k]`, `b: [k, n]`. Panics on an inner-dimension
/// mismatch.
///
/// Row `i` of the product is `bᵀ · a.row(i)` on the four-row kernel the
/// power iteration runs ([`crate::linalg`]): each `out_ij` adds the
/// products `a_ik · b_kj` in `k` order, starting from `0.0` and skipping
/// a zero `a_ik`. That kernel runs on AVX2 where the CPU has it and on
/// SSE2 elsewhere. Both do the same IEEE multiply, then the same add,
/// per element and never fuse them, so the product has the same bits on
/// every CPU.
///
/// ```
/// use sommelier_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
/// let b = Tensor::from_vec(2, 1, vec![3.0, 4.0]);
/// assert_eq!(ops::matmul(&a, &b).as_slice(), &[11.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul inner dimensions differ: {}x{} @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Tensor::zeros(a.rows(), b.cols());
    linalg::matmul_on(linalg::Isa::widest(), a, b, &mut out);
    out
}

/// Add a bias row vector `[1, n]` to every row of `x: [m, n]`, in place.
pub fn add_bias(x: &mut Tensor, bias: &Tensor) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), x.cols(), "bias width must match features");
    for r in 0..x.rows() {
        let row = x.row_mut(r);
        for (v, &b) in row.iter_mut().zip(bias.row(0)) {
            *v += b;
        }
    }
}

/// 1-D local convolution over the feature axis.
///
/// `kernel` is `[out_channels, kernel_size]`; each output channel `o` slides
/// its kernel across the input features with the given `stride`:
/// `out[b, o * w + j] = Σ_c kernel[o, c] · x[b, j·stride + c]`, where `w` is
/// the number of valid window positions. This models the locally-connected,
/// weight-shared structure of a convolution while staying 1-D; the paper's
/// analysis reshapes convolution kernels to 2-D matrices anyway (§4.2).
pub fn conv1d(x: &Tensor, kernel: &Tensor, stride: usize) -> Tensor {
    assert!(stride > 0, "stride must be positive");
    let ksize = kernel.cols();
    assert!(
        ksize <= x.cols(),
        "kernel size {} exceeds input width {}",
        ksize,
        x.cols()
    );
    let windows = (x.cols() - ksize) / stride + 1;
    let out_ch = kernel.rows();
    let mut out = Tensor::zeros(x.rows(), out_ch * windows);
    for b in 0..x.rows() {
        let xin = x.row(b);
        let out_row = out.row_mut(b);
        for o in 0..out_ch {
            let krow = kernel.row(o);
            for j in 0..windows {
                let start = j * stride;
                let mut acc = 0.0f32;
                for (c, &kv) in krow.iter().enumerate() {
                    acc += kv * xin[start + c];
                }
                out_row[o * windows + j] = acc;
            }
        }
    }
    out
}

/// Rectified linear unit.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Leaky ReLU with the given negative-side slope.
pub fn leaky_relu(x: &Tensor, slope: f32) -> Tensor {
    x.map(move |v| if v >= 0.0 { v } else { slope * v })
}

/// Hyperbolic tangent.
pub fn tanh(x: &Tensor) -> Tensor {
    x.map(f32::tanh)
}

/// Logistic sigmoid.
pub fn sigmoid(x: &Tensor) -> Tensor {
    x.map(|v| 1.0 / (1.0 + (-v).exp()))
}

/// Row-wise softmax (numerically stabilized by subtracting the row max).
pub fn softmax(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

/// Max pooling over non-overlapping windows of `window` features.
/// A trailing partial window is pooled as-is.
pub fn max_pool(x: &Tensor, window: usize) -> Tensor {
    pool(x, window, |chunk| {
        chunk.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    })
}

/// Mean pooling over non-overlapping windows of `window` features.
pub fn mean_pool(x: &Tensor, window: usize) -> Tensor {
    pool(x, window, |chunk| {
        chunk.iter().sum::<f32>() / chunk.len() as f32
    })
}

fn pool(x: &Tensor, window: usize, f: impl Fn(&[f32]) -> f32) -> Tensor {
    assert!(window > 0, "pool window must be positive");
    let out_cols = x.cols().div_ceil(window);
    let mut out = Tensor::zeros(x.rows(), out_cols);
    for r in 0..x.rows() {
        for (j, chunk) in x.row(r).chunks(window).enumerate() {
            out.set(r, j, f(chunk));
        }
    }
    out
}

/// Row-wise l2 normalization: each row is scaled to unit norm (rows with
/// zero norm are left untouched). This is the "normalization" operator of
/// the error-propagation taxonomy.
pub fn l2_normalize(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
    out
}

/// Element-wise sum of several same-shaped tensors (multi-source `add`).
pub fn add_n(inputs: &[&Tensor]) -> Tensor {
    assert!(!inputs.is_empty(), "add_n needs at least one input");
    let mut out = inputs[0].clone();
    for t in &inputs[1..] {
        out = out.zip_with(t, |a, b| a + b);
    }
    out
}

/// Element-wise product of several same-shaped tensors (multi-source
/// `multiply`).
pub fn multiply_n(inputs: &[&Tensor]) -> Tensor {
    assert!(!inputs.is_empty(), "multiply_n needs at least one input");
    let mut out = inputs[0].clone();
    for t in &inputs[1..] {
        out = out.zip_with(t, |a, b| a * b);
    }
    out
}

/// Feature-axis concatenation of several tensors with equal batch size.
pub fn concat(inputs: &[&Tensor]) -> Tensor {
    assert!(!inputs.is_empty(), "concat needs at least one input");
    let rows = inputs[0].rows();
    let total_cols: usize = inputs.iter().map(|t| t.cols()).sum();
    let mut out = Tensor::zeros(rows, total_cols);
    for r in 0..rows {
        let mut offset = 0;
        for t in inputs {
            assert_eq!(t.rows(), rows, "concat inputs must share batch size");
            out.row_mut(r)[offset..offset + t.cols()].copy_from_slice(t.row(r));
            offset += t.cols();
        }
    }
    out
}

/// Mean l2 distance between corresponding rows of two same-shaped tensors.
/// This is the default QoR difference for regression-style outputs
/// (paper Section 4.1).
pub fn mean_row_l2_distance(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.rows(), b.rows(), "row counts must match");
    assert_eq!(a.cols(), b.cols(), "widths must match");
    if a.rows() == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for r in 0..a.rows() {
        let d: f64 = a
            .row(r)
            .iter()
            .zip(b.row(r))
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum();
        total += d.sqrt();
    }
    total / a.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(rows, cols, v)
    }

    #[test]
    fn matmul_small_case() {
        let a = t(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(matmul(&a, &Tensor::identity(2)), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dim_mismatch_panics() {
        let _ = matmul(&Tensor::zeros(2, 3), &Tensor::zeros(4, 2));
    }

    #[test]
    fn add_bias_broadcasts_rows() {
        let mut x = t(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::row_vector(vec![10., 20.]);
        add_bias(&mut x, &b);
        assert_eq!(x.as_slice(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn conv1d_single_channel() {
        // kernel [1,1] over width 4, stride 1 → moving dot product
        let x = t(1, 4, vec![1., 2., 3., 4.]);
        let k = t(1, 2, vec![1., -1.]);
        let y = conv1d(&x, &k, 1);
        assert_eq!(y.as_slice(), &[-1., -1., -1.]);
    }

    #[test]
    fn conv1d_stride_and_channels() {
        let x = t(1, 5, vec![1., 0., 2., 0., 3.]);
        let k = t(2, 1, vec![2., -1.]); // two 1-wide kernels
        let y = conv1d(&x, &k, 2);
        // windows at 0,2,4 → channel0: 2,4,6; channel1: -1,-2,-3
        assert_eq!(y.as_slice(), &[2., 4., 6., -1., -2., -3.]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = t(1, 3, vec![-1., 0., 2.]);
        assert_eq!(relu(&x).as_slice(), &[0., 0., 2.]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let x = t(1, 2, vec![-2., 3.]);
        assert_eq!(leaky_relu(&x, 0.1).as_slice(), &[-0.2, 3.]);
    }

    #[test]
    fn sigmoid_and_tanh_ranges() {
        let x = t(1, 3, vec![-10., 0., 10.]);
        let s = sigmoid(&x);
        assert!(s.get(0, 0) < 0.001 && (s.get(0, 1) - 0.5).abs() < 1e-6 && s.get(0, 2) > 0.999);
        let th = tanh(&x);
        assert!(th.get(0, 0) < -0.999 && th.get(0, 2) > 0.999);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t(2, 3, vec![1., 2., 3., 1000., 1000., 1000.]);
        let s = softmax(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // stability: huge equal logits → uniform
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn pooling_reduces_width() {
        let x = t(1, 5, vec![1., 5., 2., 2., 9.]);
        assert_eq!(max_pool(&x, 2).as_slice(), &[5., 2., 9.]);
        assert_eq!(mean_pool(&x, 2).as_slice(), &[3., 2., 9.]);
    }

    #[test]
    fn l2_normalize_unit_rows() {
        let x = t(2, 2, vec![3., 4., 0., 0.]);
        let n = l2_normalize(&x);
        assert!((n.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((n.get(0, 1) - 0.8).abs() < 1e-6);
        // zero row untouched
        assert_eq!(n.row(1), &[0., 0.]);
    }

    #[test]
    fn multi_source_combinators() {
        let a = t(1, 2, vec![1., 2.]);
        let b = t(1, 2, vec![3., 4.]);
        assert_eq!(add_n(&[&a, &b]).as_slice(), &[4., 6.]);
        assert_eq!(multiply_n(&[&a, &b]).as_slice(), &[3., 8.]);
        let c = concat(&[&a, &b]);
        assert_eq!(c.cols(), 4);
        assert_eq!(c.as_slice(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn mean_row_l2_distance_basic() {
        let a = t(2, 2, vec![0., 0., 1., 1.]);
        let b = t(2, 2, vec![3., 4., 1., 1.]);
        // row0 distance 5, row1 distance 0 → mean 2.5
        assert!((mean_row_l2_distance(&a, &b) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = t(3, 4, (0..12).map(|i| i as f32).collect());
        assert_eq!(mean_row_l2_distance(&a, &a), 0.0);
    }

    mod tiers {
        use super::*;
        use crate::linalg::{matmul_on, Isa};
        use crate::rng::Prng;
        use proptest::prelude::*;

        /// The i-k-j loop `matmul` ran before it moved onto the linalg
        /// kernel. It is the oracle every tier must match.
        fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
            let (m, k, n) = (a.rows(), a.cols(), b.cols());
            let mut out = Tensor::zeros(m, n);
            for i in 0..m {
                let out_row = out.row_mut(i);
                for (kk, &a_ik) in a.row(i).iter().enumerate().take(k) {
                    if a_ik == 0.0 {
                        continue;
                    }
                    let b_row = b.row(kk);
                    for j in 0..n {
                        out_row[j] += a_ik * b_row[j];
                    }
                }
            }
            out
        }

        /// A gaussian `rows × cols` matrix in which about `specials`
        /// entries in eight are `0.0`, `-0.0`, NaN, `∞` or `-∞`.
        fn operand(rows: usize, cols: usize, specials: u8, seed: u64) -> Tensor {
            const SPECIAL: [f32; 5] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            let mut rng = Prng::seed_from_u64(seed);
            Tensor::from_fn(rows, cols, |_, _| {
                if rng.flip(f64::from(specials) / 8.0) {
                    SPECIAL[rng.index(SPECIAL.len())]
                } else {
                    rng.gaussian() as f32
                }
            })
        }

        /// Each element's bits, every NaN as one: Rust leaves a NaN's
        /// sign and payload unspecified, so a sum of two different NaNs
        /// may keep either one.
        fn bits(t: &Tensor) -> Vec<u32> {
            let nan = f32::NAN.to_bits();
            t.as_slice()
                .iter()
                .map(|x| if x.is_nan() { nan } else { x.to_bits() })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `matmul`, and its kernel compiled for every tier the host
            /// detects, give the i-k-j loop's bits, with zeros, `-0.0`,
            /// NaN and infinities in either operand.
            #[test]
            fn every_tier_matches_the_ikj_loop(
                m in 0usize..=9,
                k in 0usize..=41,
                n in 0usize..=41,
                specials_a in 0u8..=8,
                specials_b in 0u8..=8,
                seed in any::<u64>(),
            ) {
                let a = operand(m, k, specials_a, seed);
                let b = operand(k, n, specials_b, !seed);
                let want = bits(&matmul_reference(&a, &b));
                prop_assert!(bits(&matmul(&a, &b)) == want, "dispatched, {}x{}x{}", m, k, n);
                for isa in Isa::detected() {
                    let mut out = Tensor::from_fn(m, n, |_, _| f32::NAN);
                    matmul_on(isa, &a, &b, &mut out);
                    prop_assert!(bits(&out) == want, "{:?}, {}x{}x{}", isa, m, k, n);
                }
            }
        }
    }
}
