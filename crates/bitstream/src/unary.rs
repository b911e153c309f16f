//! The packed unary (thermometer) bit-stream type and its algebra.

use crate::error::BitstreamError;
use std::fmt;

/// An N-bit unary (thermometer) bit-stream representing an integer value
/// `0..=N`.
///
/// Bit position `i` (0-based) is logic-1 iff `i < value`. Displayed in the
/// paper's orientation — most significant position first, so the 1s appear
/// right-aligned:
///
/// ```
/// use uhd_bitstream::unary::UnaryBitstream;
/// let x = UnaryBitstream::encode(2, 7)?;
/// assert_eq!(x.to_string(), "0000011");
/// # Ok::<(), uhd_bitstream::BitstreamError>(())
/// ```
///
/// The type maintains the thermometer invariant: every constructor either
/// guarantees it or checks it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnaryBitstream {
    /// Packed little-endian words; bit `i` of the stream is bit `i % 64`
    /// of word `i / 64`. Unused high bits of the last word are zero.
    words: Vec<u64>,
    /// Stream length in bits.
    len: u32,
    /// Number of leading logic-1 bits (the encoded value).
    value: u32,
}

impl UnaryBitstream {
    /// Encode `value` as a thermometer stream of `length` bits.
    ///
    /// # Errors
    ///
    /// * [`BitstreamError::EmptyStream`] if `length == 0`.
    /// * [`BitstreamError::ValueOverflow`] if `value > length`.
    pub fn encode(value: u32, length: u32) -> Result<Self, BitstreamError> {
        if length == 0 {
            return Err(BitstreamError::EmptyStream);
        }
        if value > length {
            return Err(BitstreamError::ValueOverflow {
                value: u64::from(value),
                length: u64::from(length),
            });
        }
        let words = Self::prefix_words(value, length);
        Ok(UnaryBitstream {
            words,
            len: length,
            value,
        })
    }

    /// Construct from raw packed words, validating the thermometer form.
    ///
    /// # Errors
    ///
    /// * [`BitstreamError::EmptyStream`] if `length == 0`.
    /// * [`BitstreamError::NotThermometer`] if the bits are not a prefix
    ///   of 1s (including stray bits beyond `length`).
    pub fn from_words(words: Vec<u64>, length: u32) -> Result<Self, BitstreamError> {
        if length == 0 {
            return Err(BitstreamError::EmptyStream);
        }
        let needed = Self::word_count(length);
        if words.len() != needed {
            return Err(BitstreamError::NotThermometer);
        }
        let value: u32 = words.iter().map(|w| w.count_ones()).sum();
        let expect = Self::prefix_words(value, length);
        if words != expect {
            return Err(BitstreamError::NotThermometer);
        }
        Ok(UnaryBitstream {
            words,
            len: length,
            value,
        })
    }

    fn word_count(length: u32) -> usize {
        (length as usize).div_ceil(64)
    }

    fn prefix_words(value: u32, length: u32) -> Vec<u64> {
        let n = Self::word_count(length);
        let mut words = vec![0u64; n];
        let mut remaining = value as usize;
        for w in &mut words {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(64);
            *w = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            remaining -= take;
        }
        words
    }

    /// Stream length N in bits.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the stream has zero length (never true for constructed
    /// streams; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded value (number of logic-1 bits).
    #[must_use]
    pub fn decode(&self) -> u32 {
        self.value
    }

    /// The packed words (little-endian bit order within each word).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bit at stream position `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn bit(&self, i: u32) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Bitwise AND — the *minimum* of two unary values.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::LengthMismatch`] if lengths differ.
    pub fn and(&self, other: &Self) -> Result<Self, BitstreamError> {
        self.check_len(other)?;
        // AND of two thermometer prefixes is the shorter prefix.
        let value = self.value.min(other.value);
        Ok(UnaryBitstream {
            words: Self::prefix_words(value, self.len),
            len: self.len,
            value,
        })
    }

    /// Bitwise OR — the *maximum* of two unary values.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::LengthMismatch`] if lengths differ.
    pub fn or(&self, other: &Self) -> Result<Self, BitstreamError> {
        self.check_len(other)?;
        let value = self.value.max(other.value);
        Ok(UnaryBitstream {
            words: Self::prefix_words(value, self.len),
            len: self.len,
            value,
        })
    }

    /// Saturating unary addition: `min(a + b, N)` — OR of one stream with
    /// the other shifted past its prefix. Models the unary adder used in
    /// thermometer arithmetic.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::LengthMismatch`] if lengths differ.
    pub fn saturating_add(&self, other: &Self) -> Result<Self, BitstreamError> {
        self.check_len(other)?;
        let value = (self.value + other.value).min(self.len);
        Ok(UnaryBitstream {
            words: Self::prefix_words(value, self.len),
            len: self.len,
            value,
        })
    }

    /// The complement bit pattern as raw words (NOT a thermometer code —
    /// 1s become a *suffix*). Used by the Fig. 4 comparator, which ORs the
    /// minimum with the inverted second operand.
    #[must_use]
    pub fn invert_words(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.words.iter().map(|w| !w).collect();
        // Clear bits beyond the stream length.
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = out.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        out
    }

    fn check_len(&self, other: &Self) -> Result<(), BitstreamError> {
        if self.len != other.len {
            return Err(BitstreamError::LengthMismatch {
                left: u64::from(self.len),
                right: u64::from(other.len),
            });
        }
        Ok(())
    }

    /// Iterate over the bits in stream order (position 0 first).
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.bit(i))
    }
}

impl fmt::Display for UnaryBitstream {
    /// Paper orientation: highest position printed first, so the 1s of a
    /// small value appear at the right (`0000011` for 2 of 7).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_examples_display_correctly() {
        // X1 -> 0000011 (2), X2 -> 0011111 (5) with N = 7.
        assert_eq!(UnaryBitstream::encode(2, 7).unwrap().to_string(), "0000011");
        assert_eq!(UnaryBitstream::encode(5, 7).unwrap().to_string(), "0011111");
    }

    #[test]
    fn encode_rejects_bad_requests() {
        assert_eq!(
            UnaryBitstream::encode(0, 0).unwrap_err(),
            BitstreamError::EmptyStream
        );
        assert_eq!(
            UnaryBitstream::encode(8, 7).unwrap_err(),
            BitstreamError::ValueOverflow {
                value: 8,
                length: 7
            }
        );
    }

    #[test]
    fn encode_decode_round_trip_across_word_boundaries() {
        for length in [1u32, 7, 16, 63, 64, 65, 128, 130, 1024] {
            for value in [0u32, 1, length / 2, length.saturating_sub(1), length] {
                let s = UnaryBitstream::encode(value, length).unwrap();
                assert_eq!(s.decode(), value, "len={length} value={value}");
                assert_eq!(s.len(), length);
            }
        }
    }

    #[test]
    fn bit_pattern_is_prefix_of_ones() {
        let s = UnaryBitstream::encode(70, 130).unwrap();
        for i in 0..130 {
            assert_eq!(s.bit(i), i < 70, "bit {i}");
        }
    }

    #[test]
    fn and_is_min_or_is_max() {
        let a = UnaryBitstream::encode(2, 7).unwrap();
        let b = UnaryBitstream::encode(5, 7).unwrap();
        assert_eq!(a.and(&b).unwrap().decode(), 2);
        assert_eq!(a.or(&b).unwrap().decode(), 5);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let a = UnaryBitstream::encode(2, 7).unwrap();
        let b = UnaryBitstream::encode(2, 8).unwrap();
        assert!(matches!(
            a.and(&b),
            Err(BitstreamError::LengthMismatch { .. })
        ));
        assert!(matches!(
            a.or(&b),
            Err(BitstreamError::LengthMismatch { .. })
        ));
        assert!(matches!(
            a.saturating_add(&b),
            Err(BitstreamError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn from_words_validates_thermometer_form() {
        // 0b0101 is not a thermometer code.
        assert_eq!(
            UnaryBitstream::from_words(vec![0b0101], 4).unwrap_err(),
            BitstreamError::NotThermometer
        );
        // 0b0011 is the value 2 in 4 bits.
        let ok = UnaryBitstream::from_words(vec![0b0011], 4).unwrap();
        assert_eq!(ok.decode(), 2);
        // Stray bits beyond the length are rejected.
        assert_eq!(
            UnaryBitstream::from_words(vec![0b1_0011], 4).unwrap_err(),
            BitstreamError::NotThermometer
        );
        // Wrong word count is rejected.
        assert_eq!(
            UnaryBitstream::from_words(vec![0, 0], 4).unwrap_err(),
            BitstreamError::NotThermometer
        );
    }

    #[test]
    fn invert_words_is_suffix_of_ones() {
        let s = UnaryBitstream::encode(2, 7).unwrap();
        let inv = s.invert_words();
        assert_eq!(inv, vec![0b111_1100]);
    }

    #[test]
    fn invert_words_clears_padding() {
        let s = UnaryBitstream::encode(0, 65).unwrap();
        let inv = s.invert_words();
        assert_eq!(inv[0], u64::MAX);
        assert_eq!(inv[1], 1); // only bit 64 within range
    }

    #[test]
    fn display_of_full_and_empty() {
        assert_eq!(UnaryBitstream::encode(0, 4).unwrap().to_string(), "0000");
        assert_eq!(UnaryBitstream::encode(4, 4).unwrap().to_string(), "1111");
    }

    #[test]
    fn full_intensity_scale_round_trips() {
        // The paper's pixel datapath uses 8-bit intensities: streams of
        // length 255 and 256 must handle the extremes exactly.
        for length in [255u32, 256] {
            for value in [0u32, 1, 127, 254, 255] {
                let s = UnaryBitstream::encode(value, length).unwrap();
                assert_eq!(s.decode(), value, "len={length} value={value}");
                let ones: u32 = s.words().iter().map(|w| w.count_ones()).sum();
                assert_eq!(ones, value);
            }
        }
        // 256 overflows a 255-bit stream.
        assert!(matches!(
            UnaryBitstream::encode(256, 255),
            Err(BitstreamError::ValueOverflow { .. })
        ));
    }

    #[test]
    fn and_or_with_self_are_identity() {
        for value in [0u32, 7, 255] {
            let s = UnaryBitstream::encode(value, 255).unwrap();
            assert_eq!(s.and(&s).unwrap(), s);
            assert_eq!(s.or(&s).unwrap(), s);
        }
    }

    proptest! {
        #[test]
        fn prop_and_or_with_equal_operands(length in 1u32..300, frac in 0.0f64..=1.0) {
            let value = (frac * f64::from(length)) as u32;
            let s = UnaryBitstream::encode(value, length).unwrap();
            let t = UnaryBitstream::encode(value, length).unwrap();
            prop_assert_eq!(s.and(&t).unwrap().decode(), value);
            prop_assert_eq!(s.or(&t).unwrap().decode(), value);
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(length in 1u32..600, frac in 0.0f64..=1.0) {
            let value = (frac * f64::from(length)) as u32;
            let s = UnaryBitstream::encode(value, length).unwrap();
            prop_assert_eq!(s.decode(), value);
            let count: u32 = s.words().iter().map(|w| w.count_ones()).sum();
            prop_assert_eq!(count, value);
        }

        #[test]
        fn prop_and_or_match_min_max(length in 1u32..300, a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let va = (a * f64::from(length)) as u32;
            let vb = (b * f64::from(length)) as u32;
            let sa = UnaryBitstream::encode(va, length).unwrap();
            let sb = UnaryBitstream::encode(vb, length).unwrap();
            prop_assert_eq!(sa.and(&sb).unwrap().decode(), va.min(vb));
            prop_assert_eq!(sa.or(&sb).unwrap().decode(), va.max(vb));
        }

        #[test]
        fn prop_bitwise_and_matches_semantic_and(length in 1u32..300, a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            // The semantic AND (min) must equal a literal word-wise AND.
            let va = (a * f64::from(length)) as u32;
            let vb = (b * f64::from(length)) as u32;
            let sa = UnaryBitstream::encode(va, length).unwrap();
            let sb = UnaryBitstream::encode(vb, length).unwrap();
            let semantic = sa.and(&sb).unwrap();
            let literal: Vec<u64> = sa.words().iter().zip(sb.words()).map(|(x, y)| x & y).collect();
            prop_assert_eq!(semantic.words(), &literal[..]);
        }

        #[test]
        fn prop_saturating_add(length in 1u32..300, a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let va = (a * f64::from(length)) as u32;
            let vb = (b * f64::from(length)) as u32;
            let sa = UnaryBitstream::encode(va, length).unwrap();
            let sb = UnaryBitstream::encode(vb, length).unwrap();
            prop_assert_eq!(sa.saturating_add(&sb).unwrap().decode(), (va + vb).min(length));
        }

        #[test]
        fn prop_from_words_round_trip(length in 1u32..300, frac in 0.0f64..=1.0) {
            let value = (frac * f64::from(length)) as u32;
            let s = UnaryBitstream::encode(value, length).unwrap();
            let rebuilt = UnaryBitstream::from_words(s.words().to_vec(), length).unwrap();
            prop_assert_eq!(rebuilt, s);
        }
    }
}
