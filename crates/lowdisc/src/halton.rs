//! Halton low-discrepancy sequences (prime-base radical inverses).
//!
//! Used by the ablation study comparing LD families: the paper chooses
//! Sobol sequences, and the `ablation` bench quantifies how much of the
//! accuracy benefit is specific to that choice versus generic
//! quasi-randomness.

use crate::error::LowDiscError;
use crate::rng::UniformSource;
use crate::vdc::radical_inverse;

/// The first 1024 primes, generated at first use (bases for dimensions).
fn prime(index: usize) -> Option<u64> {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    let primes = PRIMES.get_or_init(|| {
        let mut out = Vec::with_capacity(1024);
        let mut candidate: u64 = 2;
        while out.len() < 1024 {
            if is_prime(candidate) {
                out.push(candidate);
            }
            candidate += 1;
        }
        out
    });
    primes.get(index).copied()
}

fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// One dimension of the Halton sequence (radical inverse in the
/// dimension's prime base).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaltonDimension {
    base: u64,
    index: u64,
}

impl HaltonDimension {
    /// Create the Halton generator for a 0-based dimension (base =
    /// `index`-th prime).
    ///
    /// # Errors
    ///
    /// Returns [`LowDiscError::HaltonDimensionUnsupported`] beyond the
    /// embedded prime table (1024 dimensions).
    pub fn new(dim: usize) -> Result<Self, LowDiscError> {
        let base = prime(dim).ok_or(LowDiscError::HaltonDimensionUnsupported { requested: dim })?;
        Ok(HaltonDimension { base, index: 0 })
    }

    /// The prime base of this dimension.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Restart from the first point.
    pub fn reset(&mut self) {
        self.index = 0;
    }
}

impl Iterator for HaltonDimension {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let v = radical_inverse(self.index, self.base);
        self.index += 1;
        Some(v)
    }
}

impl UniformSource for HaltonDimension {
    fn next_unit(&mut self) -> f64 {
        self.next().expect("halton sequence is infinite")
    }
}

impl crate::rng::SeekableSource for HaltonDimension {
    /// O(1): Halton points are the radical inverse of the index.
    fn seek_to(&mut self, n: u64) {
        self.index = n;
    }
}

/// Multi-dimensional Halton point set.
#[derive(Debug, Clone)]
pub struct HaltonSequence {
    dims: Vec<HaltonDimension>,
}

impl HaltonSequence {
    /// Create a `dimensions`-dimensional Halton generator.
    ///
    /// # Errors
    ///
    /// [`LowDiscError::EmptyRequest`] for zero dimensions;
    /// [`LowDiscError::HaltonDimensionUnsupported`] past 1024 dimensions.
    pub fn new(dimensions: usize) -> Result<Self, LowDiscError> {
        if dimensions == 0 {
            return Err(LowDiscError::EmptyRequest);
        }
        let dims = (0..dimensions)
            .map(HaltonDimension::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HaltonSequence { dims })
    }

    /// Number of coordinates per point.
    #[must_use]
    pub fn dimensions(&self) -> usize {
        self.dims.len()
    }

    /// The next point.
    pub fn next_point(&mut self) -> Vec<f64> {
        self.dims
            .iter_mut()
            .map(|d| d.next().expect("infinite"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_bases_are_primes_in_order() {
        let bases: Vec<u64> = (0..8)
            .map(|d| HaltonDimension::new(d).unwrap().base())
            .collect();
        assert_eq!(bases, vec![2, 3, 5, 7, 11, 13, 17, 19]);
    }

    #[test]
    fn halton_2d_prefix() {
        let mut seq = HaltonSequence::new(2).unwrap();
        let p: Vec<Vec<f64>> = (0..4).map(|_| seq.next_point()).collect();
        assert_eq!(p[0], vec![0.0, 0.0]);
        assert_eq!(p[1], vec![0.5, 1.0 / 3.0]);
        assert_eq!(p[2], vec![0.25, 2.0 / 3.0]);
        assert_eq!(p[3], vec![0.75, 1.0 / 9.0]);
    }

    #[test]
    fn rejects_zero_and_oversized_dimensions() {
        assert!(matches!(
            HaltonSequence::new(0),
            Err(LowDiscError::EmptyRequest)
        ));
        assert!(HaltonDimension::new(1023).is_ok());
        assert!(matches!(
            HaltonDimension::new(1024),
            Err(LowDiscError::HaltonDimensionUnsupported { requested: 1024 })
        ));
    }

    #[test]
    fn values_in_unit_interval() {
        for d in [0usize, 5, 100] {
            let dim = HaltonDimension::new(d).unwrap();
            for v in dim.take(300) {
                assert!((0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn reset_restarts() {
        let mut d = HaltonDimension::new(3).unwrap();
        let a: Vec<f64> = d.by_ref().take(5).collect();
        d.reset();
        let b: Vec<f64> = d.take(5).collect();
        assert_eq!(a, b);
    }
}
