//! Van der Corput radical-inverse sequences.
//!
//! The base-2 van der Corput sequence is the first Sobol dimension in
//! natural (non-Gray) order; general bases are the building block of the
//! [`crate::halton`] sequence. Exposed separately because the paper's
//! Fig. 2 illustrates Sobol values in radical-inverse order and because the
//! ablation benches compare LD families.

use crate::rng::UniformSource;

/// Radical inverse of `n` in base `b` (`b ≥ 2`).
///
/// # Panics
///
/// Panics if `base < 2`.
///
/// # Example
///
/// ```
/// use uhd_lowdisc::vdc::radical_inverse;
/// assert_eq!(radical_inverse(1, 2), 0.5);
/// assert_eq!(radical_inverse(2, 2), 0.25);
/// assert_eq!(radical_inverse(3, 2), 0.75);
/// ```
#[must_use]
pub fn radical_inverse(mut n: u64, base: u64) -> f64 {
    assert!(base >= 2, "radical inverse base must be >= 2");
    let mut inv = 0.0f64;
    let mut denom = 1.0f64;
    while n > 0 {
        denom *= base as f64;
        inv += (n % base) as f64 / denom;
        n /= base;
    }
    inv
}

/// The van der Corput sequence in a fixed base, starting at index 0
/// (whose value is 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VanDerCorput {
    base: u64,
    index: u64,
}

impl VanDerCorput {
    /// Create a base-`base` sequence.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        assert!(base >= 2, "van der Corput base must be >= 2");
        VanDerCorput { base, index: 0 }
    }

    /// The numeric base.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Restart from index 0.
    pub fn reset(&mut self) {
        self.index = 0;
    }
}

impl Iterator for VanDerCorput {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let v = radical_inverse(self.index, self.base);
        self.index += 1;
        Some(v)
    }
}

impl UniformSource for VanDerCorput {
    fn next_unit(&mut self) -> f64 {
        self.next().expect("van der Corput sequence is infinite")
    }
}

impl crate::rng::SeekableSource for VanDerCorput {
    /// O(1): van der Corput points are the radical inverse of the index.
    fn seek_to(&mut self, n: u64) {
        self.index = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base2_prefix_matches_textbook_values() {
        let seq: Vec<f64> = VanDerCorput::new(2).take(8).collect();
        assert_eq!(seq, vec![0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]);
    }

    #[test]
    fn base3_prefix() {
        let seq: Vec<f64> = VanDerCorput::new(3).take(4).collect();
        let expect = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0];
        for (g, e) in seq.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-12);
        }
    }

    #[test]
    fn values_stay_in_unit_interval() {
        for base in [2u64, 3, 5, 7, 11] {
            for v in VanDerCorput::new(base).take(500) {
                assert!((0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn base2_first_block_is_stratified() {
        let n = 64;
        let mut cells = vec![false; n];
        for v in VanDerCorput::new(2).take(n) {
            let c = (v * n as f64) as usize;
            assert!(!cells[c]);
            cells[c] = true;
        }
        assert!(cells.iter().all(|&c| c));
    }

    #[test]
    #[should_panic(expected = "base must be >= 2")]
    fn base_one_panics() {
        let _ = VanDerCorput::new(1);
    }
}
