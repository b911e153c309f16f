//! Maximal-length linear-feedback shift registers.
//!
//! The paper's *baseline* HDC hardware uses LFSR modules to generate the
//! pseudo-random position and level hypervectors ("Linear-feedback shift
//! register (LFSR) modules are used for hypervector generation in the
//! baseline design", §IV). This module provides a Fibonacci LFSR whose
//! feedback polynomial is chosen — and *verified* — to be primitive, so
//! the register walks all `2^n − 1` nonzero states.
//!
//! Rather than embedding a tap table copied from an application note, the
//! feedback polynomial is the lexicographically smallest primitive
//! polynomial of the requested degree, obtained from [`crate::gf2`]. The
//! maximal-period property is what matters for hypervector quality, and it
//! is guaranteed by construction (and spot-checked exhaustively in tests).

use crate::error::LowDiscError;
use crate::gf2;
use crate::rng::{SeekableSource, UniformSource};

/// A Fibonacci (many-to-one) maximal-length LFSR of width 2..=32 bits.
///
/// # Example
///
/// ```
/// use uhd_lowdisc::lfsr::Lfsr;
///
/// let mut lfsr = Lfsr::new(8, 0x5A)?;
/// // Period of a maximal 8-bit LFSR is 255.
/// let start = lfsr.state();
/// let mut period = 0u32;
/// loop {
///     lfsr.step();
///     period += 1;
///     if lfsr.state() == start { break; }
/// }
/// assert_eq!(period, 255);
/// # Ok::<(), uhd_lowdisc::LowDiscError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    width: u32,
    /// Feedback polynomial bit mask over state bits (bit i = coefficient of
    /// x^(i+1); the implicit constant term is the output tap).
    taps: u32,
    state: u32,
    /// The construction seed, kept so [`SeekableSource::seek_to`] can
    /// re-derive the state at an absolute stream position.
    seed: u32,
}

impl Lfsr {
    /// Create a maximal-length LFSR.
    ///
    /// # Errors
    ///
    /// * [`LowDiscError::InvalidLfsrWidth`] if `width` is outside 2..=32.
    /// * [`LowDiscError::ZeroLfsrSeed`] if `seed & mask == 0` (the all-zero
    ///   state is a lock-up state for XOR LFSRs).
    pub fn new(width: u32, seed: u32) -> Result<Self, LowDiscError> {
        if !(2..=32).contains(&width) {
            return Err(LowDiscError::InvalidLfsrWidth { width });
        }
        let mask = Self::mask_for(width);
        if seed & mask == 0 {
            return Err(LowDiscError::ZeroLfsrSeed);
        }
        let poly = smallest_primitive_of_degree(width);
        // Convert polynomial x^n + ... + 1 to a tap mask over state bits:
        // state bit i holds x^(i). Feedback = parity of state & taps where
        // taps are the coefficients of x^0..x^(n-1).
        let taps = (poly & u64::from(u32::MAX)) as u32 & mask;
        Ok(Lfsr {
            width,
            taps,
            state: seed & mask,
            seed: seed & mask,
        })
    }

    fn mask_for(width: u32) -> u32 {
        if width == 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        }
    }

    /// Register width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Current register contents.
    #[must_use]
    pub fn state(&self) -> u32 {
        self.state
    }

    /// The feedback tap mask (coefficients of `x^0..x^(n-1)` of the
    /// primitive feedback polynomial).
    #[must_use]
    pub fn taps(&self) -> u32 {
        self.taps
    }

    /// Advance one clock cycle and return the output bit (the bit shifted
    /// out of the low end).
    pub fn step(&mut self) -> u8 {
        let out = (self.state & 1) as u8;
        let feedback = (self.state & self.taps).count_ones() & 1;
        self.state >>= 1;
        self.state |= feedback << (self.width - 1);
        out
    }

    /// Produce the next `bits` output bits packed little-endian into a u32.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 32.
    pub fn next_bits(&mut self, bits: u32) -> u32 {
        assert!((1..=32).contains(&bits), "bits must be 1..=32");
        let mut v = 0u32;
        for i in 0..bits {
            v |= u32::from(self.step()) << i;
        }
        v
    }

    /// The one-step state-transition matrix over GF(2), column `i` being
    /// the successor of basis state `e_i`. [`Lfsr::step`] is linear in
    /// the state (shift + tap parity), so `steps` clock cycles compose
    /// to the matrix power `M^steps`.
    fn step_matrix(&self) -> [u32; 32] {
        let mut m = [0u32; 32];
        for (i, col) in m.iter_mut().take(self.width as usize).enumerate() {
            let mut v = 0u32;
            if i > 0 {
                v |= 1 << (i - 1);
            }
            if (self.taps >> i) & 1 == 1 {
                v |= 1 << (self.width - 1);
            }
            *col = v;
        }
        m
    }

    fn apply(m: &[u32; 32], mut state: u32) -> u32 {
        let mut out = 0u32;
        while state != 0 {
            let i = state.trailing_zeros() as usize;
            out ^= m[i];
            state &= state - 1;
        }
        out
    }

    fn compose(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
        let mut c = [0u32; 32];
        for (ci, &bi) in c.iter_mut().zip(b.iter()) {
            *ci = Self::apply(a, bi);
        }
        c
    }

    /// Advance the register by `steps` clock cycles in O(w² log steps)
    /// via square-and-multiply on the GF(2) transition matrix —
    /// equivalent to, but exponentially faster than, calling
    /// [`Lfsr::step`] `steps` times.
    pub fn jump(&mut self, mut steps: u64) {
        let mut base = self.step_matrix();
        while steps > 0 {
            if steps & 1 == 1 {
                self.state = Self::apply(&base, self.state);
            }
            steps >>= 1;
            if steps > 0 {
                base = Self::compose(&base, &base);
            }
        }
    }
}

impl UniformSource for Lfsr {
    /// Interpret the next `width` output bits as a fraction in `[0, 1)`.
    ///
    /// This mirrors how baseline HDC hardware converts an LFSR state to a
    /// comparable scalar: the register contents divided by `2^width`.
    fn next_unit(&mut self) -> f64 {
        let bits = self.next_bits(self.width);
        f64::from(bits) / (1u64 << self.width) as f64
    }
}

impl SeekableSource for Lfsr {
    /// O(w² log n): draw `n` starts `n·width` clock cycles after the
    /// seed state, reached by a GF(2) matrix-power jump ([`Lfsr::jump`])
    /// from the seed. The cycle count is reduced modulo the maximal
    /// period `2^w − 1` first, so arbitrarily large indices stay cheap
    /// and the `n·width` product cannot overflow.
    fn seek_to(&mut self, n: u64) {
        let period = (1u128 << self.width) - 1;
        let steps = (u128::from(n) * u128::from(self.width)) % period;
        self.state = self.seed;
        self.jump(steps as u64);
    }
}

/// The lexicographically smallest primitive polynomial of a given degree.
fn smallest_primitive_of_degree(degree: u32) -> u64 {
    // Candidates run over odd masks with the top bit fixed.
    let lo = 1u64 << degree;
    let hi = 1u64 << (degree + 1);
    let mut p = lo + 1;
    while p < hi {
        if gf2::is_primitive(p) {
            return p;
        }
        p += 2;
    }
    unreachable!("a primitive polynomial exists for every degree 1..=32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rejects_bad_widths_and_zero_seed() {
        assert!(matches!(
            Lfsr::new(1, 1),
            Err(LowDiscError::InvalidLfsrWidth { width: 1 })
        ));
        assert!(matches!(
            Lfsr::new(33, 1),
            Err(LowDiscError::InvalidLfsrWidth { width: 33 })
        ));
        assert!(matches!(Lfsr::new(8, 0), Err(LowDiscError::ZeroLfsrSeed)));
        // Seed whose in-mask bits are zero is also rejected.
        assert!(matches!(
            Lfsr::new(4, 0xF0),
            Err(LowDiscError::ZeroLfsrSeed)
        ));
    }

    #[test]
    fn maximal_period_for_small_widths() {
        for width in 2..=16u32 {
            let mut lfsr = Lfsr::new(width, 1).unwrap();
            let start = lfsr.state();
            let expect = (1u64 << width) - 1;
            let mut period = 0u64;
            loop {
                lfsr.step();
                period += 1;
                if lfsr.state() == start {
                    break;
                }
                assert!(period <= expect, "width {width}: period exceeds maximal");
            }
            assert_eq!(period, expect, "width {width}");
        }
    }

    #[test]
    fn never_reaches_zero_state() {
        let mut lfsr = Lfsr::new(10, 0x3FF).unwrap();
        for _ in 0..(1 << 10) {
            lfsr.step();
            assert_ne!(lfsr.state(), 0);
        }
    }

    #[test]
    fn visits_every_nonzero_state_width8() {
        let mut lfsr = Lfsr::new(8, 1).unwrap();
        let mut seen = HashSet::new();
        for _ in 0..255 {
            seen.insert(lfsr.state());
            lfsr.step();
        }
        assert_eq!(seen.len(), 255);
    }

    #[test]
    fn uniform_source_mean_is_centered() {
        let mut lfsr = Lfsr::new(16, 0xACE1).unwrap();
        let n = 4096;
        let mean: f64 = (0..n).map(|_| lfsr.next_unit()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn next_bits_packs_step_outputs() {
        let mut a = Lfsr::new(8, 0x5A).unwrap();
        let mut b = Lfsr::new(8, 0x5A).unwrap();
        let packed = a.next_bits(8);
        let mut expected = 0u32;
        for i in 0..8 {
            expected |= u32::from(b.step()) << i;
        }
        assert_eq!(packed, expected);
    }

    #[test]
    #[should_panic(expected = "bits must be 1..=32")]
    fn next_bits_zero_panics() {
        let mut lfsr = Lfsr::new(8, 1).unwrap();
        let _ = lfsr.next_bits(0);
    }

    #[test]
    fn width_32_constructs_and_runs() {
        let mut lfsr = Lfsr::new(32, 0xDEAD_BEEF).unwrap();
        for _ in 0..1000 {
            lfsr.step();
            assert_ne!(lfsr.state(), 0);
        }
    }

    #[test]
    fn jump_matches_sequential_steps() {
        for width in [2u32, 8, 16, 32] {
            for steps in [0u64, 1, 2, 7, 100, 255, 256, 4097] {
                let mut jumped = Lfsr::new(width, 0x5A5A_5A5A).unwrap();
                let mut stepped = jumped.clone();
                jumped.jump(steps);
                for _ in 0..steps {
                    stepped.step();
                }
                assert_eq!(
                    jumped.state(),
                    stepped.state(),
                    "width {width}, {steps} steps"
                );
            }
        }
    }

    #[test]
    fn seek_matches_sequential_draws() {
        for n in [0u64, 1, 3, 17, 100, 1000] {
            let mut sequential = Lfsr::new(12, 0xACE).unwrap();
            for _ in 0..n {
                let _ = sequential.next_unit();
            }
            let mut seeked = Lfsr::new(12, 0xACE).unwrap();
            seeked.seek_to(n);
            assert_eq!(seeked.next_unit(), sequential.next_unit(), "draw {n}");
        }
    }

    #[test]
    fn seek_is_absolute_and_wraps_the_period() {
        let mut lfsr = Lfsr::new(8, 0x33).unwrap();
        let first = lfsr.next_unit();
        // Burn draws, then seek back to the stream origin.
        for _ in 0..50 {
            let _ = lfsr.next_unit();
        }
        lfsr.seek_to(0);
        assert_eq!(lfsr.next_unit(), first);
        // An 8-bit register emits 8 steps per draw over a 255-step
        // period, so 255 draws return to the seed state exactly.
        lfsr.seek_to(255);
        assert_eq!(lfsr.next_unit(), first);
        // Far beyond the period must still be cheap and consistent.
        lfsr.seek_to(255 * 1_000_000);
        assert_eq!(lfsr.next_unit(), first);
    }
}
