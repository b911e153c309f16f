//! Feature-stream-to-hypervector encoders: the baseline HDC pipeline,
//! the proposed uHD pipeline, and the non-image workload families
//! (n-gram text, tabular/sensor bins) that prove the stack is
//! workload-agnostic.
//!
//! Every encoder turns a byte-valued *feature stream* into D-dimensional
//! hypervector *contributions* and bundles them with a popcount
//! accumulator:
//!
//! * [`baseline::BaselineEncoder`] — position hypervectors `P` bound
//!   (XOR/XNOR) with level hypervectors `L`, both pseudo-random
//!   (paper Fig. 1); one contribution per pixel.
//! * [`uhd::UhdEncoder`] — per-pixel Sobol sequences compared against the
//!   pixel intensity; the Sobol *index* replaces the position hypervector
//!   and the binding multiplication disappears (paper Fig. 2).
//! * [`text::NgramTextEncoder`] — rotate-and-bind n-grams over a
//!   27-symbol alphabet for language identification; one contribution
//!   per n-gram, so the stream length may vary per sample.
//! * [`tabular::TabularEncoder`] — per-column key hypervectors bound with
//!   a correlated level chain for tabular/sensor rows.
//!
//! The [`Encoder`] trait is what training, inference, serving, examples
//! and benches program against; [`EncoderProfile`] exposes the
//! per-sample operation counts that drive the embedded-platform cost
//! model (paper Table I).

pub mod baseline;
pub mod level;
pub mod tabular;
pub mod text;
pub mod uhd;

use std::borrow::Cow;

use crate::accumulator::BitSliceAccumulator;
use crate::error::HdcError;
use crate::hypervector::Hypervector;
use crate::item_memory::MemoryBackend;

/// Per-sample operation and memory profile of an encoder.
///
/// These are *structural* counts (how many comparisons, bindings and
/// accumulations one encoded sample costs), not wall-clock measurements;
/// the `uhd-hw` crate maps them to ARM cycles and bytes for Table I/III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncoderProfile {
    /// Human-readable encoder name. `Cow` so dynamically-configured
    /// encoders (n-gram order, bin count) can report precise names
    /// without leaking allocations into the static-name common case.
    pub name: Cow<'static, str>,
    /// Features per sample, H (pixels for images, window length for
    /// text, columns for tabular rows).
    pub features: usize,
    /// Hypervector dimension D.
    pub dim: u32,
    /// Scalar comparisons per sample (hypervector-bit generation).
    pub comparisons_per_sample: u64,
    /// Binding (element-wise multiply / XOR) bit-operations per sample.
    pub bind_bitops_per_sample: u64,
    /// Bundling accumulator increments per sample.
    pub accumulate_ops_per_sample: u64,
    /// Random numbers drawn to (re)generate the hypervector tables for
    /// one training iteration. Zero for encoders whose tables are
    /// rematerializable from a fixed seed (uHD, text, tabular).
    pub rng_draws_per_iteration: u64,
    /// Persistent table storage in bytes (P/L tables or quantized Sobol).
    pub table_bytes: u64,
    /// Per-sample working memory in bytes (accumulators, scratch).
    pub working_bytes: u64,
    /// Memory backend the encoder's item memories run on.
    pub backend: MemoryBackend,
    /// Table state actually resident on this instance's heap, in bytes:
    /// materialized rows plus rematerialized hot-row prefixes. Unlike
    /// [`EncoderProfile::table_bytes`] — the cost model's *nominal*
    /// storage for the design — this figure reflects the backend, so a
    /// rematerialized encoder reports O(prefix) here while still quoting
    /// the hardware table size above.
    pub resident_bytes: u64,
}

/// An encoder from byte-valued feature streams to D-dimensional
/// hypervectors.
///
/// A *sample* is a `&[u8]` feature stream: pixel intensities for
/// images, case-folded characters for text, quantized sensor readings
/// for tabular rows. Implementations declare a nominal [`features`]
/// count and may override [`check_features`] to accept variable-length
/// streams (the n-gram text encoder does). Everything downstream —
/// [`HdcModel`](crate::model::HdcModel) training,
/// [`OnlineLearner`](crate::online::OnlineLearner) feedback, the
/// `uhd-serve` registry — is generic over this trait, so a new workload
/// plugs in by implementing these methods only.
///
/// [`features`]: Encoder::features
/// [`check_features`]: Encoder::check_features
pub trait Encoder: Send + Sync {
    /// Hypervector dimension D.
    fn dim(&self) -> u32;

    /// Nominal features H per sample. For fixed-shape workloads this is
    /// the exact required stream length; for variable-length workloads
    /// it is the maximum accepted length (see [`Encoder::check_features`]).
    fn features(&self) -> usize;

    /// Validate a sample's feature count against this encoder.
    ///
    /// The default requires `input.len() == features()` exactly, which
    /// is right for fixed-shape workloads (images, tabular rows).
    /// Variable-length encoders override this with their accepted range.
    /// The serving layer calls this eagerly at `submit` time so
    /// malformed requests fail before entering the batch queue.
    ///
    /// # Errors
    ///
    /// [`HdcError::ImageSizeMismatch`] (or
    /// [`HdcError::FeatureCountOutOfRange`] for range-accepting
    /// encoders) describing the expected count.
    fn check_features(&self, input: &[u8]) -> Result<(), HdcError> {
        check_feature_len(self.features(), input)
    }

    /// Add the per-feature hypervector masks of `input` into `acc`.
    ///
    /// Each mask bit is 1 where that contribution's hypervector element
    /// is +1; adding all masks realizes the paper's bundling sum
    /// `Σᵢ Lᵢ` (uHD) or `Σᵢ Pᵢ ⊕ Lᵢ` (baseline). The number of masks
    /// added is the accumulator's `total()` — H for fixed-shape
    /// encoders, the n-gram count for text.
    ///
    /// # Errors
    ///
    /// * [`HdcError::ImageSizeMismatch`] /
    ///   [`HdcError::FeatureCountOutOfRange`] if `input` fails
    ///   [`Encoder::check_features`].
    /// * [`HdcError::DimensionMismatch`] if `acc` has the wrong dimension.
    fn accumulate(&self, input: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError>;

    /// Encode one sample to a binarized hypervector (sign at TOB =
    /// total/2, the concurrent binarization of paper Fig. 5).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Encoder::accumulate`].
    fn encode(&self, input: &[u8]) -> Result<Hypervector, HdcError> {
        let mut acc = BitSliceAccumulator::new(self.dim());
        self.encode_into(input, &mut acc)
    }

    /// [`Encoder::encode`] with a caller-provided scratch accumulator,
    /// for allocation-free encoding in batch/serving hot loops (the
    /// accumulator is cleared first and its plane storage is reused).
    /// Binarizes at the accumulator's own running total, so
    /// variable-length samples get the correct threshold.
    /// Implementations overriding either method must keep the two
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Encoder::accumulate`].
    fn encode_into(
        &self,
        input: &[u8],
        acc: &mut BitSliceAccumulator,
    ) -> Result<Hypervector, HdcError> {
        acc.clear();
        self.accumulate(input, acc)?;
        Ok(acc.binarize())
    }

    /// The per-sample operation/memory profile for the embedded cost
    /// model.
    fn profile(&self) -> EncoderProfile;
}

/// Validate an exact feature-stream length against an encoder's count.
pub(crate) fn check_feature_len(expected: usize, input: &[u8]) -> Result<(), HdcError> {
    if input.len() != expected {
        return Err(HdcError::ImageSizeMismatch {
            expected,
            got: input.len(),
        });
    }
    Ok(())
}

/// Validate an accumulator dimension against an encoder's dimension.
pub(crate) fn check_acc(dim: u32, acc: &BitSliceAccumulator) -> Result<(), HdcError> {
    if acc.dim() != dim {
        return Err(HdcError::DimensionMismatch {
            left: dim,
            right: acc.dim(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal fixed-shape encoder for trait-default tests.
    struct Constant {
        dim: u32,
        features: usize,
    }

    impl Encoder for Constant {
        fn dim(&self) -> u32 {
            self.dim
        }
        fn features(&self) -> usize {
            self.features
        }
        fn accumulate(&self, input: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
            check_feature_len(self.features, input)?;
            check_acc(self.dim, acc)?;
            let words = vec![u64::MAX; crate::hypervector::words_for_dim(self.dim)];
            let mut words = words;
            let rem = self.dim % 64;
            if rem != 0 {
                let last = words.len() - 1;
                words[last] &= (1u64 << rem) - 1;
            }
            for _ in 0..input.len() {
                acc.add_mask(&words);
            }
            Ok(())
        }
        fn profile(&self) -> EncoderProfile {
            EncoderProfile {
                name: Cow::Borrowed("constant"),
                features: self.features,
                dim: self.dim,
                comparisons_per_sample: 0,
                bind_bitops_per_sample: 0,
                accumulate_ops_per_sample: self.features as u64 * u64::from(self.dim),
                rng_draws_per_iteration: 0,
                table_bytes: 0,
                working_bytes: 0,
                backend: MemoryBackend::Resident,
                resident_bytes: 0,
            }
        }
    }

    #[test]
    fn default_check_features_requires_exact_length() {
        let enc = Constant {
            dim: 64,
            features: 4,
        };
        assert!(enc.check_features(&[0u8; 4]).is_ok());
        assert!(matches!(
            enc.check_features(&[0u8; 3]),
            Err(HdcError::ImageSizeMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn encode_into_binarizes_at_running_total() {
        let enc = Constant {
            dim: 64,
            features: 5,
        };
        let hv = enc.encode(&[0u8; 5]).unwrap();
        // All contributions are +1 everywhere, so the sign is +1.
        assert_eq!(hv.count_plus_ones(), 64);
    }

    #[test]
    fn profile_name_supports_owned_strings() {
        let owned = EncoderProfile {
            name: Cow::Owned(format!("ngram-text(n={})", 3)),
            features: 8,
            dim: 32,
            comparisons_per_sample: 0,
            bind_bitops_per_sample: 0,
            accumulate_ops_per_sample: 0,
            rng_draws_per_iteration: 0,
            table_bytes: 0,
            working_bytes: 0,
            backend: MemoryBackend::Resident,
            resident_bytes: 0,
        };
        assert_eq!(owned.name, "ngram-text(n=3)");
    }
}
