//! The uHD encoder: Sobol-index embedding with multiplier-less encoding
//! (paper Fig. 2, §III).
//!
//! One low-discrepancy sequence is assigned to each pixel position — the
//! *index* of the sequence carries the position information, so there are
//! no position hypervectors and no binding multiplications. A pixel's
//! level hypervector element `j` is +1 iff the normalized intensity is
//! **not smaller** than the j-th Sobol value of that pixel's sequence:
//! `L_p[j] = +1 ⇔ x_p ≥ S_p[j]`.
//!
//! Both the intensity and the Sobol scalars are ξ-level quantized and the
//! comparison runs in the unary domain (paper Fig. 3–4). Three encoding
//! paths are provided, all proven equivalent where they overlap:
//!
//! * the **plane-table path** ([`UhdEncoder`]) — one row of the per-pixel
//!   threshold bit-plane [`ItemMemory`] per pixel, resident or
//!   rematerialized; the fast path used for training and benches;
//! * the **unary gate path** ([`UhdEncoder::encode_via_unary`]) — every
//!   comparison walks the Fig. 4 comparator on UST-fetched streams, with
//!   the Sobol scalars re-derived from the family, never read from the
//!   plane table it checks;
//! * the **exact path** ([`UhdExactEncoder`]) — unquantized fixed-point
//!   comparison, used to measure what quantization costs (the paper
//!   claims: nothing measurable).

use std::borrow::Cow;

use super::{check_acc, check_feature_len, Encoder, EncoderProfile};
use crate::accumulator::BitSliceAccumulator;
use crate::error::HdcError;
use crate::hypervector::{words_for_dim, Hypervector};
use crate::item_memory::{ItemMemory, MemoryBackend, RowRecipe};
use uhd_bitstream::comparator::unary_geq;
use uhd_bitstream::ust::UnaryStreamTable;
use uhd_lowdisc::halton::HaltonDimension;
use uhd_lowdisc::quantize::Quantizer;
use uhd_lowdisc::r2::R2Dimension;
use uhd_lowdisc::rng::{UniformSource, Xoshiro256StarStar};
use uhd_lowdisc::sobol::SobolDimension;

/// Which low-discrepancy family supplies the per-pixel sequences.
///
/// The paper uses Sobol; the alternatives exist for the ablation study
/// (how much of the win is *Sobol* vs generic quasi-randomness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdFamily {
    /// Sobol sequences, one dimension per pixel, de-phased per pixel
    /// (the paper's choice — see [`LdFamily::sobol`]).
    Sobol {
        /// Initial points skipped in every dimension (MATLAB's
        /// `sobolset` examples use `Skip = 1000`; skipping also removes
        /// the degenerate all-zero first point).
        skip_base: u64,
        /// Additional per-pixel skip stride: pixel `p` starts at
        /// `skip_base + p · skip_stride`. A nonzero stride de-phases the
        /// per-pixel sequences — the "recurrence property" the paper
        /// invokes — so hypervector dimensions decorrelate across pixels.
        skip_stride: u64,
    },
    /// Halton sequences, one prime base per pixel.
    Halton,
    /// R2/Kronecker additive recurrences, one offset per pixel.
    R2,
    /// Pseudo-random control: defeats the quasi-randomness while keeping
    /// the rest of the uHD pipeline (ablation baseline).
    Pseudo {
        /// Seed for the pseudo-random stream.
        seed: u64,
    },
}

impl LdFamily {
    /// The paper-default Sobol family: `Skip = 1000` (the MATLAB
    /// `sobolset` convention) and a per-pixel de-phasing stride.
    #[must_use]
    pub fn sobol() -> Self {
        LdFamily::Sobol {
            skip_base: 1000,
            skip_stride: 63,
        }
    }

    /// Sobol with index-aligned dimensions (no skip, no stride) — the
    /// naive construction; kept for the ablation bench, which shows the
    /// alignment correlations it suffers from.
    #[must_use]
    pub fn sobol_aligned() -> Self {
        LdFamily::Sobol {
            skip_base: 0,
            skip_stride: 0,
        }
    }

    /// Materialize the first `len` sequence values for `pixel`.
    pub(crate) fn values(&self, pixel: usize, len: usize) -> Result<Vec<f64>, HdcError> {
        match *self {
            LdFamily::Sobol {
                skip_base,
                skip_stride,
            } => {
                let mut d = SobolDimension::new(pixel)?;
                d.seek(skip_base + pixel as u64 * skip_stride);
                Ok(d.take_values(len))
            }
            LdFamily::Halton => {
                let d = HaltonDimension::new(pixel)?;
                Ok(d.take(len).collect())
            }
            LdFamily::R2 => Ok(R2Dimension::new(pixel).take(len).collect()),
            LdFamily::Pseudo { seed } => {
                let mut rng = Xoshiro256StarStar::seeded(
                    seed ^ (pixel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                Ok((0..len).map(|_| rng.next_unit()).collect())
            }
        }
    }
}

/// Configuration for the uHD encoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UhdConfig {
    /// Hypervector dimension D.
    pub dim: u32,
    /// Pixels (features) per image, H.
    pub pixels: usize,
    /// Quantization levels ξ (paper default 16, i.e. M = 4 bits).
    pub levels: u32,
    /// Low-discrepancy family (paper: Sobol).
    pub family: LdFamily,
    /// Memory backend for the threshold-plane item memory.
    pub backend: MemoryBackend,
}

impl UhdConfig {
    /// Paper-default configuration: Sobol sequences, ξ = 16, resident
    /// plane tables.
    #[must_use]
    pub fn new(dim: u32, pixels: usize) -> Self {
        UhdConfig {
            dim,
            pixels,
            levels: 16,
            family: LdFamily::sobol(),
            backend: MemoryBackend::Resident,
        }
    }

    /// The same configuration on the rematerialized backend: planes
    /// regenerate from the LD family on demand, so a fleet of encoders
    /// costs a 64-row hot prefix of heap each instead of O(H·ξ·D) bits.
    #[must_use]
    pub fn rematerialized(mut self) -> Self {
        self.backend = MemoryBackend::Rematerialized;
        self
    }

    fn validate(&self) -> Result<(), HdcError> {
        if self.dim == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "dimension must be nonzero".into(),
            });
        }
        if self.pixels == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "pixel count must be nonzero".into(),
            });
        }
        if self.levels < 2 {
            return Err(HdcError::InvalidConfig {
                reason: "need at least 2 levels".into(),
            });
        }
        Ok(())
    }
}

/// The quantized uHD encoder (plane-table fast path).
#[derive(Debug, Clone)]
pub struct UhdEncoder {
    config: UhdConfig,
    quantizer: Quantizer,
    /// Threshold bit-planes as an item memory, row `p·ξ + q`: bit `j`
    /// of row `(p, q)` is 1 iff `q ≥ Q(S_p[j])`. Resident tables
    /// materialize via scatter + prefix-OR; rematerialized tables
    /// derive rows from the LD family on demand.
    planes: ItemMemory,
}

impl UhdEncoder {
    /// Build the encoder (compiles the threshold planes from the
    /// quantized per-pixel sequences — or, on the rematerialized
    /// backend, validates the recipe and stores only it).
    ///
    /// # Errors
    ///
    /// * [`HdcError::InvalidConfig`] for degenerate configurations.
    /// * [`HdcError::LowDisc`] if the LD family cannot supply enough
    ///   dimensions (e.g. > 4096 pixels for Sobol).
    pub fn new(config: UhdConfig) -> Result<Self, HdcError> {
        config.validate()?;
        let quantizer = Quantizer::new(config.levels)?;
        let rows = u32::try_from(config.pixels)
            .ok()
            .and_then(|p| p.checked_mul(config.levels))
            .ok_or_else(|| HdcError::InvalidConfig {
                reason: "pixels × levels exceeds the item-memory row limit".into(),
            })?;
        let planes = ItemMemory::new(
            "plane",
            config.dim,
            rows,
            RowRecipe::ThresholdPlanes {
                family: config.family,
                levels: config.levels,
            },
            config.backend,
        )?;
        Ok(UhdEncoder {
            config,
            quantizer,
            planes,
        })
    }

    /// The encoder configuration.
    #[must_use]
    pub fn config(&self) -> &UhdConfig {
        &self.config
    }

    /// The threshold-plane item memory (row `pixel·ξ + level`).
    #[must_use]
    pub fn plane_memory(&self) -> &ItemMemory {
        &self.planes
    }

    /// Quantize an 8-bit intensity to its ξ-level index.
    #[must_use]
    pub fn level_of(&self, intensity: u8) -> u32 {
        self.quantizer.quantize_u8(intensity)
    }

    /// The quantized scalars `Q(S_pixel[0..D])` of one pixel, derived
    /// from the LD family rather than read back from the plane table.
    fn quantized_column(&self, pixel: usize) -> Result<Vec<u32>, HdcError> {
        let values = self.config.family.values(pixel, self.config.dim as usize)?;
        Ok(values
            .iter()
            .map(|&s| self.quantizer.quantize_unit(s))
            .collect())
    }

    /// Gate-faithful encoding: every hypervector bit is produced by the
    /// Fig. 4 unary comparator on streams fetched from `ust`.
    ///
    /// Slow by design — used to prove the fast path equals the hardware
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// * [`HdcError::ImageSizeMismatch`] for wrong image sizes.
    /// * [`HdcError::Bitstream`] if `ust` cannot hold ξ levels.
    pub fn encode_via_unary(
        &self,
        image: &[u8],
        ust: &UnaryStreamTable,
    ) -> Result<Hypervector, HdcError> {
        check_feature_len(self.config.pixels, image)?;
        let mut acc = BitSliceAccumulator::new(self.config.dim);
        let mut mask = vec![0u64; words_for_dim(self.config.dim)];
        for (pixel, &v) in image.iter().enumerate() {
            let data = ust.fetch(self.level_of(v))?;
            mask.fill(0);
            for (j, &q) in self.quantized_column(pixel)?.iter().enumerate() {
                let sobol = ust.fetch(q)?;
                if unary_geq(data, sobol)? {
                    mask[j / 64] |= 1u64 << (j % 64);
                }
            }
            acc.add_mask(&mask);
        }
        Ok(acc.binarize_with_total(self.config.pixels as u64))
    }
}

impl Encoder for UhdEncoder {
    fn dim(&self) -> u32 {
        self.config.dim
    }

    fn features(&self) -> usize {
        self.config.pixels
    }

    fn accumulate(&self, image: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        check_feature_len(self.config.pixels, image)?;
        check_acc(self.config.dim, acc)?;
        let levels = self.config.levels;
        let mut scratch = Vec::new();
        for (pixel, &v) in image.iter().enumerate() {
            let mask = self
                .planes
                .row(pixel as u32 * levels + self.level_of(v), &mut scratch)?;
            acc.add_mask(mask);
        }
        Ok(())
    }

    fn profile(&self) -> EncoderProfile {
        let h = self.config.pixels as u64;
        let d = u64::from(self.config.dim);
        let m_bits = u64::from(self.quantizer.bits());
        EncoderProfile {
            name: Cow::Borrowed("uhd"),
            features: self.config.pixels,
            dim: self.config.dim,
            comparisons_per_sample: h * d,
            bind_bitops_per_sample: 0,
            accumulate_ops_per_sample: h * d,
            rng_draws_per_iteration: 0,
            // M-bit quantized Sobol scalars in BRAM (Fig. 3(a)).
            table_bytes: h * d * m_bits / 8,
            working_bytes: d * 4,
            backend: self.config.backend,
            resident_bytes: self.planes.resident_bytes(),
        }
    }
}

/// The exact (unquantized) uHD encoder.
///
/// Keeps each Sobol value as a 32-bit binary fraction and compares
/// `v/255 ≥ S` with exact integer arithmetic. Used to quantify the
/// accuracy impact of ξ-level quantization (paper: "this data
/// quantization does not affect the accuracy of the system").
#[derive(Debug, Clone)]
pub struct UhdExactEncoder {
    dim: u32,
    pixels: usize,
    /// 32-bit fractions `S_p[j] · 2^32`, flattened `[pixel][dim]`.
    fractions: Vec<u32>,
}

impl UhdExactEncoder {
    /// Build the exact encoder for the given LD family.
    ///
    /// # Errors
    ///
    /// Same conditions as [`UhdEncoder::new`].
    pub fn new(dim: u32, pixels: usize, family: LdFamily) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "dimension must be nonzero".into(),
            });
        }
        if pixels == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "pixel count must be nonzero".into(),
            });
        }
        let mut fractions = vec![0u32; pixels * dim as usize];
        for pixel in 0..pixels {
            let values = family.values(pixel, dim as usize)?;
            for (j, &s) in values.iter().enumerate() {
                fractions[pixel * dim as usize + j] =
                    (s * 4_294_967_296.0).min(4_294_967_295.0) as u32;
            }
        }
        Ok(UhdExactEncoder {
            dim,
            pixels,
            fractions,
        })
    }
}

impl Encoder for UhdExactEncoder {
    fn dim(&self) -> u32 {
        self.dim
    }

    fn features(&self) -> usize {
        self.pixels
    }

    fn accumulate(&self, image: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
        check_feature_len(self.pixels, image)?;
        check_acc(self.dim, acc)?;
        let wc = words_for_dim(self.dim);
        let mut mask = vec![0u64; wc];
        for (pixel, &v) in image.iter().enumerate() {
            // x >= s  <=>  v/255 >= fr/2^32  <=>  v·2^32 >= fr·255.
            let lhs = u64::from(v) << 32;
            mask.fill(0);
            let base = pixel * self.dim as usize;
            for j in 0..self.dim as usize {
                if lhs >= u64::from(self.fractions[base + j]) * 255 {
                    mask[j / 64] |= 1u64 << (j % 64);
                }
            }
            acc.add_mask(&mask);
        }
        Ok(())
    }

    fn profile(&self) -> EncoderProfile {
        let h = self.pixels as u64;
        let d = u64::from(self.dim);
        EncoderProfile {
            name: Cow::Borrowed("uhd-exact"),
            features: self.pixels,
            dim: self.dim,
            comparisons_per_sample: h * d,
            bind_bitops_per_sample: 0,
            accumulate_ops_per_sample: h * d,
            rng_draws_per_iteration: 0,
            table_bytes: h * d * 4,
            working_bytes: d * 4,
            backend: MemoryBackend::Resident,
            resident_bytes: self.fractions.len() as u64 * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> UhdConfig {
        UhdConfig {
            dim: 128,
            pixels: 9,
            levels: 16,
            family: LdFamily::sobol(),
            backend: MemoryBackend::Resident,
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(UhdEncoder::new(UhdConfig {
            dim: 0,
            ..tiny_config()
        })
        .is_err());
        assert!(UhdEncoder::new(UhdConfig {
            pixels: 0,
            ..tiny_config()
        })
        .is_err());
        assert!(UhdEncoder::new(UhdConfig {
            levels: 1,
            ..tiny_config()
        })
        .is_err());
    }

    #[test]
    fn plane_table_matches_direct_quantized_comparison() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let quantizer = Quantizer::new(16).unwrap();
        for pixel in 0..9 {
            let mut sobol = SobolDimension::new(pixel).unwrap();
            sobol.seek(1000 + pixel as u64 * 63); // the LdFamily::sobol() phase
            let values = sobol.take_values(128);
            for level in 0..16u32 {
                let row = pixel as u32 * 16 + level;
                let mask = enc.plane_memory().row_hypervector(row).unwrap();
                let mask = mask.words();
                for (j, &s) in values.iter().enumerate() {
                    let expect = level >= quantizer.quantize_unit(s);
                    let got = (mask[j / 64] >> (j % 64)) & 1 == 1;
                    assert_eq!(got, expect, "pixel {pixel} level {level} dim {j}");
                }
            }
        }
    }

    #[test]
    fn masks_grow_monotonically_with_level() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let planes = enc.plane_memory();
        for pixel in 0..9u32 {
            for level in 1..16u32 {
                let lo = planes.row_hypervector(pixel * 16 + level - 1).unwrap();
                let hi = planes.row_hypervector(pixel * 16 + level).unwrap();
                for (a, b) in lo.words().iter().zip(hi.words()) {
                    assert_eq!(a & !b, 0, "mask must be monotone in level");
                }
            }
        }
    }

    #[test]
    fn top_level_mask_is_all_ones() {
        // Intensity 255 quantizes to xi-1 which is >= every quantized
        // Sobol value, so the mask is full.
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let mask = enc.plane_memory().row_hypervector(15).unwrap();
        assert_eq!(mask.count_plus_ones(), 128);
    }

    #[test]
    fn rematerialized_encoder_is_bit_identical() {
        let res = UhdEncoder::new(tiny_config()).unwrap();
        let rem = UhdEncoder::new(tiny_config().rematerialized()).unwrap();
        for seed in 0u8..8 {
            let image: Vec<u8> = (0..9u8)
                .map(|i| i.wrapping_mul(13).wrapping_add(seed.wrapping_mul(31)))
                .collect();
            assert_eq!(res.encode(&image).unwrap(), rem.encode(&image).unwrap());
        }
        // The rematerialized instance pins far less heap while quoting
        // the same nominal hardware table size.
        let (pr, pm) = (res.profile(), rem.profile());
        assert_eq!(pr.table_bytes, pm.table_bytes);
        assert!(pm.resident_bytes < pr.resident_bytes);
        assert_eq!(pm.backend, MemoryBackend::Rematerialized);
    }

    #[test]
    fn rematerialized_unary_gate_path_still_agrees() {
        let enc = UhdEncoder::new(tiny_config().rematerialized()).unwrap();
        let ust = UnaryStreamTable::new(16, 16).unwrap();
        let image: Vec<u8> = (0..9).map(|i| (i * 28) as u8).collect();
        assert_eq!(
            enc.encode(&image).unwrap(),
            enc.encode_via_unary(&image, &ust).unwrap()
        );
    }

    #[test]
    fn unary_gate_path_equals_plane_path() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let ust = UnaryStreamTable::new(16, 16).unwrap();
        let image: Vec<u8> = (0..9).map(|i| (i * 28) as u8).collect();
        let fast = enc.encode(&image).unwrap();
        let gate = enc.encode_via_unary(&image, &ust).unwrap();
        assert_eq!(fast, gate);
    }

    #[test]
    fn wrong_image_size_errors() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        assert!(matches!(
            enc.encode(&[0u8; 8]),
            Err(HdcError::ImageSizeMismatch {
                expected: 9,
                got: 8
            })
        ));
    }

    #[test]
    fn deterministic_across_reconstruction() {
        let a = UhdEncoder::new(tiny_config()).unwrap();
        let b = UhdEncoder::new(tiny_config()).unwrap();
        let image: Vec<u8> = (0..9).map(|i| (255 - i * 20) as u8).collect();
        assert_eq!(a.encode(&image).unwrap(), b.encode(&image).unwrap());
    }

    #[test]
    fn families_produce_different_encoders() {
        let sobol = UhdEncoder::new(tiny_config()).unwrap();
        let halton = UhdEncoder::new(UhdConfig {
            family: LdFamily::Halton,
            ..tiny_config()
        })
        .unwrap();
        let image = vec![100u8; 9];
        assert_ne!(
            sobol.encode(&image).unwrap(),
            halton.encode(&image).unwrap()
        );
    }

    #[test]
    fn exact_encoder_close_to_quantized_encoder() {
        // Per-bit decisions may differ near quantization thresholds, and
        // with few pixels the binarization margin is thin, so compare the
        // two paths where the *exact* bundle has a comfortable margin:
        // there the quantized encoder must agree almost always (the
        // paper's "quantization does not affect accuracy" claim).
        let dim = 2048u32;
        let pixels = 25usize;
        let q = UhdEncoder::new(UhdConfig {
            dim,
            pixels,
            levels: 16,
            family: LdFamily::sobol(),
            backend: MemoryBackend::Resident,
        })
        .unwrap();
        let e = UhdExactEncoder::new(dim, pixels, LdFamily::sobol()).unwrap();
        let image: Vec<u8> = (0..pixels).map(|i| (i * 10 % 256) as u8).collect();
        let hq = q.encode(&image).unwrap();
        let mut acc = BitSliceAccumulator::new(dim);
        e.accumulate(&image, &mut acc).unwrap();
        let sums = acc.bipolar_sums();
        let margin = (pixels as i64) / 4;
        let mut confident = 0usize;
        let mut agree = 0usize;
        for (i, &s) in sums.iter().enumerate() {
            if s.abs() >= margin {
                confident += 1;
                if hq.bit(i as u32) == (s >= 0) {
                    agree += 1;
                }
            }
        }
        assert!(
            confident > 300,
            "test needs confident dimensions, got {confident}"
        );
        let frac = agree as f64 / confident as f64;
        assert!(frac > 0.9, "agreement on confident dims {frac}");
    }

    #[test]
    fn profile_is_multiplier_free() {
        let enc = UhdEncoder::new(tiny_config()).unwrap();
        let p = enc.profile();
        assert_eq!(p.bind_bitops_per_sample, 0);
        assert_eq!(p.rng_draws_per_iteration, 0);
        assert_eq!(p.comparisons_per_sample, 9 * 128);
    }

    #[test]
    fn pseudo_family_is_seed_deterministic() {
        let cfg = |seed| UhdConfig {
            family: LdFamily::Pseudo { seed },
            ..tiny_config()
        };
        let a = UhdEncoder::new(cfg(5)).unwrap();
        let b = UhdEncoder::new(cfg(5)).unwrap();
        let c = UhdEncoder::new(cfg(6)).unwrap();
        let image = vec![77u8; 9];
        assert_eq!(a.encode(&image).unwrap(), b.encode(&image).unwrap());
        assert_ne!(a.encode(&image).unwrap(), c.encode(&image).unwrap());
    }
}
