//! Seeded pseudo-random sampling.
//!
//! All randomness in the reproduction — weight initialization, synthetic
//! datasets, Gaussian noise injection for the segment-equivalence
//! assessment (paper Section 4.2 step ii), and arrival processes in the
//! serving simulator — flows through [`Prng`] so that every experiment is
//! reproducible from a single `u64` seed.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, the standard
//! pairing recommended by the xoshiro authors. It is implemented here
//! directly (rather than through the `rand` crate) so the numeric stream is
//! stable across dependency upgrades, and so `Prng` is `Clone` — cloning a
//! generator to replay a stream is used by the experiment harness.
//! Distribution sampling (Gaussian, exponential, Poisson) is implemented on
//! top via standard transforms.

/// FNV-1a 64-bit hash of a byte string.
///
/// A *stable* hash: the constants are fixed by the FNV specification, so
/// the value never changes across Rust releases or platforms (unlike
/// `DefaultHasher`, which documents no such guarantee). Seed derivation
/// for per-pair analysis RNGs flows through this function so that the
/// random stream attached to a `(seed, key_a, key_b)` triple is a pure
/// function of the triple — independent of insertion order, thread
/// schedule, and process history.
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Mix an ordered sequence of 64-bit words into a single seed
/// (SplitMix64 absorption). Order-sensitive: `mix64(&[a, b])` and
/// `mix64(&[b, a])` differ, so directional pair seeds stay distinct.
pub fn mix64(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(Mix64::default(), |m, &p| m.absorb(p))
        .finish()
}

/// [`mix64`] one word at a time: a caller hashing many sequences that
/// share a prefix absorbs the prefix once and copies the state.
#[derive(Clone, Copy, Debug)]
pub struct Mix64 {
    state: u64,
    acc: u64,
}

impl Default for Mix64 {
    /// No word absorbed yet.
    #[inline]
    fn default() -> Self {
        Mix64 {
            state: 0x6a09_e667_f3bc_c909,
            acc: 0,
        }
    }
}

impl Mix64 {
    #[inline]
    #[must_use]
    pub fn absorb(mut self, word: u64) -> Self {
        self.state ^= word;
        self.acc = self.acc.rotate_left(23) ^ splitmix64(&mut self.state);
        self
    }

    /// The value `mix64` returns for the words absorbed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.acc
    }
}

/// A seeded pseudo-random number generator (xoshiro256++) with the
/// distribution samplers the reproduction needs.
///
/// ```
/// use sommelier_tensor::Prng;
/// let mut a = Prng::seed_from_u64(7);
/// let mut b = Prng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let child = a.fork();                   // independent child stream
/// drop(child);
/// ```
#[derive(Clone, Debug)]
pub struct Prng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Create a generator from a 64-bit seed. The same seed always yields
    /// the same stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { state }
    }

    /// Derive an independent child generator. Used to give each model /
    /// dataset / simulation its own stream while staying reproducible.
    pub fn fork(&mut self) -> Prng {
        Prng::seed_from_u64(self.next_u64())
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform() as f32
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased bounded
    /// integers.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        let range = n as u64;
        let threshold = range.wrapping_neg() % range;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (range as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli trial with success probability `p`.
    pub fn flip(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn gaussian(&mut self) -> f64 {
        // Avoid log(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Exponential sample with the given rate (inverse-CDF method).
    /// Used for Poisson-process inter-arrival times in the serving
    /// simulator. Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.uniform(); // in (0, 1]
        -u.ln() / rate
    }

    /// Poisson sample (Knuth's algorithm; adequate for the small means the
    /// workload generators use).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (or all of them if
    /// `k >= n`). Order is random. Used for the semantic index's sampled
    /// insertion (paper Section 5.2: "randomly selects 5 existing models").
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k.min(n));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_fixed_forever() {
        // Golden values: these must never change (snapshots and pair
        // seeds depend on them).
        assert_eq!(stable_hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(stable_hash64(b"ab"), stable_hash64(b"ba"));
    }

    #[test]
    fn mix64_is_order_sensitive_and_deterministic() {
        let ab = mix64(&[1, 2]);
        assert_eq!(ab, mix64(&[1, 2]));
        assert_ne!(ab, mix64(&[2, 1]));
        assert_ne!(mix64(&[1]), mix64(&[1, 0]));
        // Pinned: persisted edge tables were chosen by these values.
        assert_eq!(mix64(&[]), 0);
        assert_eq!(mix64(&[9, 2, 3]), 0x6943_9f01_2e87_7f1c);
        let prefix = Mix64::default().absorb(9).absorb(2);
        assert_eq!(prefix.absorb(3).finish(), mix64(&[9, 2, 3]));
        assert_eq!(prefix.absorb(4).finish(), mix64(&[9, 2, 4]));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_replays_stream() {
        let mut a = Prng::seed_from_u64(99);
        a.next_u64();
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Prng::seed_from_u64(3);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_covers_range_roughly_uniformly() {
        let mut rng = Prng::seed_from_u64(17);
        let n = 8;
        let mut counts = vec![0usize; n];
        let draws = 16_000;
        for _ in 0..draws {
            counts[rng.index(n)] += 1;
        }
        let expected = draws / n;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 4) as u64,
                "bucket {i} count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = Prng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.08, "var = {var}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = Prng::seed_from_u64(5);
        let rate = 4.0;
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn poisson_mean_matches() {
        let mut rng = Prng::seed_from_u64(6);
        let lambda = 3.5;
        let n = 20_000;
        let mean = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Prng::seed_from_u64(8);
        let idx = rng.sample_indices(100, 5);
        assert_eq!(idx.len(), 5);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "indices must be distinct");
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_saturates_at_population() {
        let mut rng = Prng::seed_from_u64(9);
        let idx = rng.sample_indices(3, 10);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Prng::seed_from_u64(10);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent_but_reproducible() {
        let mut parent1 = Prng::seed_from_u64(11);
        let mut parent2 = Prng::seed_from_u64(11);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..10 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = Prng::seed_from_u64(12);
        assert_eq!(rng.poisson(0.0), 0);
    }
}
