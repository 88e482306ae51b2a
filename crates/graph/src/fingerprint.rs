//! Stable model fingerprints.
//!
//! The semantic index (paper Section 5.2) is a hashtable whose keys are
//! "hash fingerprints" of DNN models. We provide two flavours:
//!
//! * [`Fingerprint::of_model`] — hashes structure *and* parameters, so two
//!   models differing only in weights (e.g. fine-tuned variants) get
//!   distinct keys;
//! * [`Fingerprint::structural`] — hashes operator types and edges only,
//!   used to detect structurally identical models/segments (Section 4.2
//!   requires segment counterparts to be structurally identical).
//!
//! The hash is FNV-1a over a canonical byte serialization; it is stable
//! across processes and platforms (no `DefaultHasher` seeds involved).
//!
//! [`LayerKey`] names one parameterized layer by what its dense-equivalent
//! weight is a function of, so a fine-tune's frozen layers share the keys
//! of its base's.

use crate::layer::LayerId;
use crate::model::Model;
use serde::{Deserialize, Serialize};
use sommelier_tensor::{mix64, stable_hash64};
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit stable content hash.
///
/// ```
/// use sommelier_graph::{Fingerprint, ModelBuilder, TaskKind};
/// use sommelier_tensor::{Prng, Shape};
///
/// let mut rng = Prng::seed_from_u64(1);
/// let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(4))
///     .dense(2, &mut rng)
///     .build()
///     .unwrap();
/// // Renaming never changes the fingerprint; it keys the semantic index.
/// assert_eq!(Fingerprint::of_model(&m), Fingerprint::of_model(&m.renamed("x")));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Fingerprint(pub u64);

/// Incremental FNV-1a hasher over byte chunks.
#[derive(Clone, Debug)]
pub struct FnvHasher {
    state: u64,
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher { state: FNV_OFFSET }
    }
}

impl FnvHasher {
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a usize as little-endian u64.
    pub fn update_usize(&mut self, v: usize) {
        self.update(&(v as u64).to_le_bytes());
    }

    /// Absorb an f32's bit pattern.
    pub fn update_f32(&mut self, v: f32) {
        self.update(&v.to_bits().to_le_bytes());
    }

    /// Finish.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Fingerprint {
    /// Full fingerprint: structure plus every parameter value.
    pub fn of_model(model: &Model) -> Fingerprint {
        let mut h = Self::hash_structure(model);
        for layer in model.layers() {
            if let Some(w) = &layer.params.weight {
                for &v in w.as_slice() {
                    h.update_f32(v);
                }
            }
            if let Some(b) = &layer.params.bias {
                for &v in b.as_slice() {
                    h.update_f32(v);
                }
            }
        }
        h.finish()
    }

    /// Structure-only fingerprint: operator type tags and edges, ignoring
    /// parameter values, the model name, and metadata.
    pub fn structural(model: &Model) -> Fingerprint {
        Self::hash_structure(model).finish()
    }

    fn hash_structure(model: &Model) -> FnvHasher {
        let mut h = FnvHasher::new();
        h.update_usize(model.num_layers());
        for layer in model.layers() {
            let tag = layer.op.type_tag();
            h.update_usize(tag.len());
            h.update(tag.as_bytes());
            h.update_usize(layer.inputs.len());
            for input in &layer.inputs {
                h.update_usize(input.index());
            }
        }
        h
    }
}

/// A 128-bit content key of one layer: its operator's
/// [`type_tag`](crate::Op::type_tag), its input width, and its weight's
/// shape and bits. Those fix the layer's dense-equivalent weight
/// ([`Model::dense_equivalent`]), so two layers with one key have the
/// same matrix whatever model holds them. The bias is left out.
///
/// The weight is absorbed four words (eight `f32`s) at a time, one word
/// per independent lane: on a 256 × 256 weight it takes 0.35 ns an `f32`,
/// where the byte-serial FNV of [`Fingerprint`] takes 6 ns (2.1 GHz
/// Xeon). Each lane step is a bijection of the lane, and the lanes and
/// the length are finished through two [`mix64`] chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LayerKey(pub u128);

impl LayerKey {
    /// The key of layer `id` of `model`.
    pub fn of(model: &Model, id: LayerId) -> LayerKey {
        const LANES: usize = 4;
        let layer = model.layer(id);
        let input_width = layer.inputs.first().map_or(0, |&i| model.width_of(i));
        let (rows, cols, bits) = match &layer.params.weight {
            Some(w) => (w.rows(), w.cols(), w.as_slice()),
            None => (0, 0, &[][..]),
        };
        let header = mix64(&[
            stable_hash64(layer.op.type_tag().as_bytes()),
            input_width as u64,
            rows as u64,
            cols as u64,
        ]);
        let mut lanes: [u64; LANES] = std::array::from_fn(|i| mix64(&[header, i as u64]));
        let mut words = bits.chunks_exact(2 * LANES);
        for chunk in &mut words {
            for (lane, pair) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
                let word = u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32;
                *lane = absorb(*lane, word);
            }
        }
        for (i, v) in words.remainder().iter().enumerate() {
            lanes[i % LANES] = absorb(lanes[i % LANES], u64::from(v.to_bits()));
        }
        let [a, b, c, d] = lanes;
        let len = bits.len() as u64;
        let hi = mix64(&[a, b, c, d, len]);
        let lo = mix64(&[d, c, b, a, len, hi]);
        LayerKey(u128::from(hi) << 64 | u128::from(lo))
    }
}

/// One lane step: xor, an odd multiply and a xorshift, each invertible.
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::task::TaskKind;
    use sommelier_tensor::{Prng, Shape};

    fn model(seed: u64) -> Model {
        let mut rng = Prng::seed_from_u64(seed);
        ModelBuilder::new("m", TaskKind::Other, Shape::vector(8))
            .dense(4, &mut rng)
            .relu()
            .dense(2, &mut rng)
            .build()
            .unwrap()
    }

    #[test]
    fn identical_models_share_fingerprints() {
        let a = model(1);
        let b = model(1);
        assert_eq!(Fingerprint::of_model(&a), Fingerprint::of_model(&b));
        assert_eq!(Fingerprint::structural(&a), Fingerprint::structural(&b));
    }

    #[test]
    fn weights_change_full_but_not_structural() {
        let a = model(1);
        let b = model(2); // different weight init, same structure
        assert_ne!(Fingerprint::of_model(&a), Fingerprint::of_model(&b));
        assert_eq!(Fingerprint::structural(&a), Fingerprint::structural(&b));
    }

    #[test]
    fn structure_change_changes_both() {
        let a = model(1);
        let mut rng = Prng::seed_from_u64(1);
        let c = ModelBuilder::new("m", TaskKind::Other, Shape::vector(8))
            .dense(4, &mut rng)
            .tanh() // relu → tanh
            .dense(2, &mut rng)
            .build()
            .unwrap();
        assert_ne!(Fingerprint::structural(&a), Fingerprint::structural(&c));
        assert_ne!(Fingerprint::of_model(&a), Fingerprint::of_model(&c));
    }

    #[test]
    fn name_does_not_affect_fingerprint() {
        let a = model(1);
        let renamed = a.renamed("other-name");
        assert_eq!(Fingerprint::of_model(&a), Fingerprint::of_model(&renamed));
    }

    #[test]
    fn hex_display_is_sixteen_chars() {
        let fp = Fingerprint(0xdead_beef);
        assert_eq!(fp.to_string(), "00000000deadbeef");
    }

    #[test]
    fn layer_keys_follow_the_weight_and_what_it_acts_on() {
        let mut rng = Prng::seed_from_u64(5);
        let kernel = sommelier_tensor::Tensor::gaussian(3, 4, 1.0, &mut rng);
        let conv = |input: usize, stride: usize| {
            ModelBuilder::new("c", TaskKind::Other, Shape::vector(input))
                .conv1d_with(kernel.clone(), stride)
                .build()
                .unwrap()
        };
        let key = |m: &Model| LayerKey::of(m, LayerId(1));
        // The same weight bits in the same op over the same input: one key,
        // whatever model holds the layer.
        assert_eq!(key(&conv(16, 2)), key(&conv(16, 2).renamed("other")));
        // Another stride or another input width makes another dense
        // equivalent from the same bits: another key.
        assert_ne!(key(&conv(16, 2)), key(&conv(16, 1)));
        assert_ne!(key(&conv(16, 2)), key(&conv(20, 2)));
        // One flipped weight bit: another key.
        let mut flipped = kernel.clone();
        flipped.set(2, 3, f32::from_bits(kernel.get(2, 3).to_bits() ^ 1));
        let other = ModelBuilder::new("c", TaskKind::Other, Shape::vector(16))
            .conv1d_with(flipped, 2)
            .build()
            .unwrap();
        assert_ne!(key(&conv(16, 2)), key(&other));
        // A dense layer over the same bits: another op, another key.
        let dense = ModelBuilder::new("d", TaskKind::Other, Shape::vector(3))
            .dense_with(kernel.clone(), None)
            .build()
            .unwrap();
        assert_ne!(key(&dense), key(&conv(16, 2)));
        // The bias does not enter the dense equivalent, so not the key.
        let biased = ModelBuilder::new("d", TaskKind::Other, Shape::vector(3))
            .dense_with(kernel, Some(sommelier_tensor::Tensor::zeros(1, 4)))
            .build()
            .unwrap();
        assert_eq!(key(&dense), key(&biased));
    }

    #[test]
    fn fnv_empty_input_is_offset_basis() {
        assert_eq!(FnvHasher::new().finish(), Fingerprint(super::FNV_OFFSET));
    }
}
