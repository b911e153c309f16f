//! ξ-level quantization of unit-interval scalars and 8-bit intensities.
//!
//! uHD stores both the processing data (pixels/features) and the Sobol
//! scalars in quantized M-bit binary form, where `M = log2(ξ)` and each
//! quantized value is *the number of 1s in the corresponding N-bit unary
//! bit-stream* (paper Fig. 3(a)). The worked example in the figure maps
//! `0.671875 → 10`, `0.109375 → 2`, `0.984375 → 15` for ξ = 16, i.e.
//! `q = round(s · (ξ − 1))`. This module reproduces that mapping exactly.

use crate::error::LowDiscError;

/// A ξ-level quantizer for values in the unit interval and for 8-bit
/// intensities.
///
/// # Example
///
/// ```
/// use uhd_lowdisc::quantize::Quantizer;
///
/// // The exact worked example from the paper's Fig. 3(a) (ξ = 16).
/// let q = Quantizer::new(16)?;
/// assert_eq!(q.quantize_unit(0.671875), 10);
/// assert_eq!(q.quantize_unit(0.359375), 5);
/// assert_eq!(q.quantize_unit(0.859375), 13);
/// assert_eq!(q.quantize_unit(0.609375), 9);
/// assert_eq!(q.quantize_unit(0.109375), 2);
/// assert_eq!(q.quantize_unit(0.984375), 15);
/// assert_eq!(q.quantize_unit(0.484375), 7);
/// # Ok::<(), uhd_lowdisc::LowDiscError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    levels: u32,
}

impl Quantizer {
    /// Create a quantizer with `levels` = ξ output levels (ξ ≥ 2).
    ///
    /// # Errors
    ///
    /// Returns [`LowDiscError::InvalidQuantizerLevels`] when `levels < 2`.
    pub fn new(levels: u32) -> Result<Self, LowDiscError> {
        if levels < 2 {
            return Err(LowDiscError::InvalidQuantizerLevels { levels });
        }
        Ok(Quantizer { levels })
    }

    /// Number of quantization levels ξ.
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Bits needed to store a quantized value, `M = ceil(log2(ξ))`.
    #[must_use]
    pub fn bits(&self) -> u32 {
        32 - (self.levels - 1).leading_zeros()
    }

    /// Quantize a scalar in `[0, 1]` to `0..=ξ−1` via
    /// `round(s · (ξ − 1))`, the paper's rule.
    ///
    /// Values outside the unit interval are clamped first.
    #[must_use]
    pub fn quantize_unit(&self, s: f64) -> u32 {
        let s = s.clamp(0.0, 1.0);
        let q = (s * f64::from(self.levels - 1)).round() as u32;
        q.min(self.levels - 1)
    }

    /// Quantize an 8-bit intensity to `0..=ξ−1`.
    ///
    /// Equivalent to `quantize_unit(x / 255)`.
    #[must_use]
    pub fn quantize_u8(&self, x: u8) -> u32 {
        self.quantize_unit(f64::from(x) / 255.0)
    }

    /// Midpoint reconstruction of a quantized value back to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= levels`.
    #[must_use]
    pub fn dequantize(&self, q: u32) -> f64 {
        assert!(
            q < self.levels,
            "quantized value {q} out of range for {} levels",
            self.levels
        );
        f64::from(q) / f64::from(self.levels - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_degenerate_levels() {
        assert!(Quantizer::new(0).is_err());
        assert!(Quantizer::new(1).is_err());
        assert!(Quantizer::new(2).is_ok());
    }

    #[test]
    fn bits_for_common_levels() {
        assert_eq!(Quantizer::new(16).unwrap().bits(), 4);
        assert_eq!(Quantizer::new(256).unwrap().bits(), 8);
        assert_eq!(Quantizer::new(2).unwrap().bits(), 1);
        assert_eq!(Quantizer::new(3).unwrap().bits(), 2);
    }

    #[test]
    fn endpoint_behaviour() {
        let q = Quantizer::new(16).unwrap();
        assert_eq!(q.quantize_unit(0.0), 0);
        assert_eq!(q.quantize_unit(1.0), 15);
        assert_eq!(q.quantize_u8(0), 0);
        assert_eq!(q.quantize_u8(255), 15);
    }

    #[test]
    fn clamps_out_of_range_inputs() {
        let q = Quantizer::new(8).unwrap();
        assert_eq!(q.quantize_unit(-0.5), 0);
        assert_eq!(q.quantize_unit(1.5), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dequantize_rejects_overflow() {
        let q = Quantizer::new(8).unwrap();
        let _ = q.dequantize(8);
    }

    proptest! {
        #[test]
        fn quantize_is_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0, levels in 2u32..512) {
            let q = Quantizer::new(levels).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(q.quantize_unit(lo) <= q.quantize_unit(hi));
        }

        #[test]
        fn quantize_dequantize_error_bounded(s in 0.0f64..=1.0, levels in 2u32..512) {
            let q = Quantizer::new(levels).unwrap();
            let round_trip = q.dequantize(q.quantize_unit(s));
            let max_err = 0.5 / f64::from(levels - 1) + 1e-12;
            prop_assert!((round_trip - s).abs() <= max_err,
                "s={s} rt={round_trip} levels={levels}");
        }

        #[test]
        fn quantized_values_in_range(s in any::<f64>(), levels in 2u32..512) {
            let q = Quantizer::new(levels).unwrap();
            let v = q.quantize_unit(if s.is_finite() { s } else { 0.0 });
            prop_assert!(v < levels);
        }
    }
}
