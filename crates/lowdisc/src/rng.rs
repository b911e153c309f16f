//! Small deterministic PRNGs and the [`UniformSource`] abstraction.
//!
//! The baseline HDC design generates position and level hypervectors from
//! *pseudo*-random numbers. Reproducing its iteration-to-iteration accuracy
//! fluctuation (paper Fig. 6(a)) requires a seedable generator whose output
//! is bit-identical across platforms and releases, so the crate carries its
//! own SplitMix64 / Xoshiro256** implementations instead of depending on an
//! external RNG crate whose stream could change under it.

/// A source of uniform samples in `[0, 1)`.
///
/// Implemented by the pseudo-random generators here, by
/// [`crate::lfsr::Lfsr`] (the baseline's hardware random source) and by
/// [`crate::sobol::SobolDimension`] — which is exactly the interchange the
/// paper proposes: swap the pseudo-random source for a quasi-random one and
/// keep the rest of the pipeline.
pub trait UniformSource {
    /// Next sample, uniformly distributed in `[0, 1)`.
    fn next_unit(&mut self) -> f64;
}

/// A [`UniformSource`] whose stream supports random access: the cursor
/// can jump to any draw index without generating the intermediate
/// draws, and the values emitted afterwards are bit-identical to the
/// sequential stream.
///
/// This is the seekability contract behind rematerialized item
/// memories (Schmuck, Benini & Rahimi): a table row generated from
/// draws `[r·D, (r+1)·D)` of a master stream can be regenerated on
/// demand by seeking instead of being stored. Every low-discrepancy
/// family in this crate is seekable — Sobol via its Gray-code jump,
/// Halton/R2/van der Corput because their points are closed-form in
/// the index, the LFSR via a GF(2) matrix power — and so is
/// [`SplitMix64`], whose state after `n` draws is an affine function
/// of `n`.
pub trait SeekableSource: UniformSource {
    /// Reposition the stream so the next [`UniformSource::next_unit`]
    /// call returns draw `n` (0-based) of the stream as emitted from
    /// construction, in O(1) or O(log n) — never by replaying the
    /// `n` predecessors.
    fn seek_to(&mut self, n: u64);
}

/// SplitMix64: tiny, fast, full-period 2^64 generator.
///
/// Used to seed [`Xoshiro256StarStar`] and to derive the deterministic
/// direction-number extension of the Sobol table.
///
/// # Example
///
/// ```
/// use uhd_lowdisc::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
    /// The construction seed, kept so [`SeekableSource::seek_to`] can
    /// jump in O(1): the state before draw `n` is `seed + n·γ` (the
    /// Weyl increment), with no dependence on the path taken there.
    seed: u64,
}

impl SplitMix64 {
    /// The Weyl-sequence increment (golden-ratio constant) stepping the
    /// state; also the repo-wide mixing constant for keyed derivation.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Create a generator from a seed. All seeds (including 0) are valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed, seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl UniformSource for SplitMix64 {
    fn next_unit(&mut self) -> f64 {
        u64_to_unit(self.next_u64())
    }
}

impl SeekableSource for SplitMix64 {
    /// O(1): the state is an affine function of the draw index.
    fn seek_to(&mut self, n: u64) {
        self.state = self.seed.wrapping_add(n.wrapping_mul(Self::GAMMA));
    }
}

/// Xoshiro256**: the workhorse pseudo-random generator for baseline
/// hypervector assignment and synthetic-dataset construction.
///
/// # Example
///
/// ```
/// use uhd_lowdisc::rng::{UniformSource, Xoshiro256StarStar};
/// let mut rng = Xoshiro256StarStar::seeded(7);
/// let x = rng.next_unit();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Create a generator whose full 256-bit state is expanded from a
    /// 64-bit seed via SplitMix64 (the construction recommended by the
    /// xoshiro authors).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is invalid; SplitMix64 cannot produce four
        // consecutive zeros, but keep the guard for clarity.
        if s == [0; 4] {
            s[0] = 0x1;
        }
        Xoshiro256StarStar { s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `0..bound` (rejection-free multiply-shift;
    /// negligible bias for the bounds used here).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_unit()
    }

    /// A Bernoulli draw with probability `p` of `true`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_unit() < p
    }

    /// Approximately standard-normal sample (sum of 4 uniforms, scaled).
    ///
    /// Accurate enough for synthetic-texture generation; not intended for
    /// statistical work.
    pub fn next_gaussian(&mut self) -> f64 {
        let sum: f64 = (0..4).map(|_| self.next_unit()).sum();
        (sum - 2.0) * (12.0f64 / 4.0).sqrt()
    }
}

impl UniformSource for Xoshiro256StarStar {
    fn next_unit(&mut self) -> f64 {
        u64_to_unit(self.next_u64())
    }
}

/// Map 64 random bits to `[0, 1)` using the top 53 bits.
#[inline]
#[must_use]
pub fn u64_to_unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_vector() {
        // Reference values for seed 0 (from the public-domain reference C
        // implementation by Sebastiano Vigna).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256StarStar::seeded(1);
        let mut b = Xoshiro256StarStar::seeded(1);
        let mut c = Xoshiro256StarStar::seeded(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn unit_samples_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::seeded(99);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_unit();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Xoshiro256StarStar::seeded(3);
        let mut seen_high = false;
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            if v == 9 {
                seen_high = true;
            }
        }
        assert!(seen_high, "bound edge never sampled");
    }

    #[test]
    fn gaussian_has_sane_moments() {
        let mut rng = Xoshiro256StarStar::seeded(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut rng = Xoshiro256StarStar::seeded(0);
        let _ = rng.next_below(0);
    }

    #[test]
    fn splitmix_seek_matches_sequential_advances() {
        for n in [0u64, 1, 2, 7, 63, 64, 65, 1000, 123_456] {
            let mut sequential = SplitMix64::new(0xFEED);
            for _ in 0..n {
                let _ = sequential.next_unit();
            }
            let mut seeked = SplitMix64::new(0xFEED);
            seeked.seek_to(n);
            assert_eq!(seeked.next_u64(), sequential.next_u64(), "draw {n}");
        }
    }

    #[test]
    fn splitmix_seek_is_absolute_not_relative() {
        let mut rng = SplitMix64::new(9);
        let draw3 = {
            let mut r = SplitMix64::new(9);
            r.seek_to(3);
            r.next_u64()
        };
        // Burn draws, then seek back: position is from construction.
        for _ in 0..100 {
            let _ = rng.next_u64();
        }
        rng.seek_to(3);
        assert_eq!(rng.next_u64(), draw3);
    }
}
