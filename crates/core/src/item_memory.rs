//! Item memory: the tables of hypervectors every encoder looks rows up in.
//!
//! Classic HDC implementations keep their position/level/symbol
//! hypervectors *resident* — materialized row by row at construction and
//! held on the heap for the encoder's lifetime. Following Schmuck,
//! Benini & Rahimi's rematerialization result, none of that state is
//! fundamental: every table this codebase uses is a pure function of a
//! small recipe (a `u64` seed or a low-discrepancy family), so any row
//! can be regenerated on demand, bit-identically, in O(D) work and O(1)
//! persistent bytes.
//!
//! [`ItemMemory`] makes that choice explicit. A table is a `(dim, rows,
//! recipe)` triple plus a [`MemoryBackend`]:
//!
//! * [`MemoryBackend::Resident`] — materialize all rows up front
//!   (today's behaviour, fastest lookups);
//! * [`MemoryBackend::Rematerialized`] — keep only the recipe; derive
//!   rows into caller scratch on demand, with a small fixed prefix of
//!   lazily-materialized hot rows.
//!
//! The backends are interchangeable because each [`RowRecipe`] obeys one
//! contract, enforced by tests here and property tests in the workspace:
//! `derive(row)` equals `materialize_all()[row]` for every row. For
//! seed-driven recipes this leans on the seekable SplitMix64 stream
//! ([`uhd_lowdisc::rng::SeekableSource`]): row `r` owns draws
//! `[r·D, (r+1)·D)`, which the resident path reaches by drawing
//! sequentially and the rematerialized path by an O(1) seek.

use std::sync::OnceLock;

use crate::encoder::level::{
    cumulative_flip_plan, cumulative_flip_row, generate_level_hypervectors, threshold_draw_row,
    LevelScheme,
};
use crate::encoder::uhd::LdFamily;
use crate::error::HdcError;
use crate::hypervector::{words_for_dim, Hypervector};
use uhd_lowdisc::quantize::Quantizer;
use uhd_lowdisc::rng::{SeekableSource, SplitMix64, UniformSource};

/// Derive a sub-table seed from a master seed and a role tag, using the
/// same golden-ratio keyed mixing the per-pixel pseudo streams use.
/// Encoders with one published seed but several tables (e.g. tabular
/// keys + levels) give each table a distinct tag so the streams
/// decorrelate.
#[must_use]
pub fn derive_seed(master: u64, tag: u64) -> u64 {
    master ^ tag.wrapping_mul(SplitMix64::GAMMA)
}

/// Rows `0..CACHED_ROWS` of a rematerialized table are materialized
/// lazily on first touch and then served resident; every other row
/// derives into caller scratch on each lookup.
const CACHED_ROWS: u32 = 64;

/// How an [`ItemMemory`] stores (or does not store) its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryBackend {
    /// All rows materialized at construction and held resident — the
    /// classic table, O(rows · D) heap, O(1) lookups.
    #[default]
    Resident,
    /// Rows regenerated on demand from the recipe — O(seed) persistent
    /// heap plus a 64-row hot prefix, O(D) work per uncached lookup.
    Rematerialized,
}

/// The pure function a table's rows are derived from.
///
/// Every variant satisfies the rematerialization contract: deriving row
/// `r` in isolation produces exactly the hypervector that materializing
/// the whole table sequentially would put at index `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowRecipe {
    /// Independent random rows. Row `r` consumes SplitMix64 draws
    /// `[r·D, (r+1)·D)` of the stream seeded with `seed`, under the
    /// [`Hypervector::random`] comparison rule.
    Iid {
        /// Master seed of the per-table stream.
        seed: u64,
    },
    /// Rotated views over `symbols` i.i.d. base rows — the n-gram text
    /// layout. With `order = rows / symbols`, row `k·symbols + s` is
    /// `ρ^{order−1−k}(S_s)` where `S_s` is i.i.d. row `s` under `seed`.
    RotatedIid {
        /// Master seed of the symbol stream.
        seed: u64,
        /// Base symbols per rotation block (e.g. 27 for text).
        symbols: u32,
    },
    /// Correlated level hypervectors: row `k` is level `k` of a
    /// `rows`-level chain (see [`crate::encoder::level`]). The chain's
    /// shared randomness (base + flip order, or the threshold draw)
    /// comes from the SplitMix64 stream seeded with `seed`.
    LevelChain {
        /// Master seed of the chain's stream.
        seed: u64,
        /// Which level construction the chain uses.
        scheme: LevelScheme,
    },
    /// uHD threshold bit-planes: row `p·levels + q` has bit `j` set iff
    /// `q ≥ Q(S_p[j])` for the family's pixel-`p` sequence — the
    /// prefix-OR'd monotone masks of the plane-table fast path.
    ThresholdPlanes {
        /// Low-discrepancy family supplying the per-pixel sequences.
        family: LdFamily,
        /// Quantization levels ξ (rows per pixel).
        levels: u32,
    },
}

/// Fill packed words with random bits using the exact draw rule of
/// [`Hypervector::random`] (`next_unit() ≤ 0.5 ⇔ +1`, one draw per
/// dimension in order), so seeking to `row·dim` reproduces the
/// sequential stream bit-for-bit.
fn fill_random_words<S: UniformSource + ?Sized>(dim: u32, source: &mut S, out: &mut [u64]) {
    out.fill(0);
    for i in 0..dim {
        if source.next_unit() <= 0.5 {
            out[(i / 64) as usize] |= 1u64 << (i % 64);
        }
    }
}

impl RowRecipe {
    /// Structural validation against a table shape (cheap; does not
    /// touch the LD substrate).
    fn validate(&self, dim: u32, rows: u32) -> Result<(), HdcError> {
        if dim == 0 {
            return Err(HdcError::DimensionZero);
        }
        if rows == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "item memory needs at least one row".into(),
            });
        }
        match *self {
            RowRecipe::Iid { .. } => Ok(()),
            RowRecipe::RotatedIid { symbols, .. } => {
                if symbols == 0 || !rows.is_multiple_of(symbols) {
                    return Err(HdcError::InvalidConfig {
                        reason: format!(
                            "rotated table rows ({rows}) must be a nonzero multiple of \
                             the symbol count ({symbols})"
                        ),
                    });
                }
                Ok(())
            }
            RowRecipe::LevelChain { .. } => {
                if rows < 2 {
                    return Err(HdcError::InvalidConfig {
                        reason: "need at least 2 levels".into(),
                    });
                }
                Ok(())
            }
            RowRecipe::ThresholdPlanes { levels, .. } => {
                if levels < 2 {
                    return Err(HdcError::InvalidConfig {
                        reason: "need at least 2 levels".into(),
                    });
                }
                if !rows.is_multiple_of(levels) {
                    return Err(HdcError::InvalidConfig {
                        reason: format!(
                            "plane table rows ({rows}) must be a multiple of levels ({levels})"
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// Derive row `row` of a `(dim, rows)` table into `out`
    /// (`out.len() == words_for_dim(dim)`), without materializing any
    /// other row.
    fn derive_into(&self, dim: u32, rows: u32, row: u32, out: &mut [u64]) -> Result<(), HdcError> {
        debug_assert_eq!(out.len(), words_for_dim(dim));
        debug_assert!(row < rows);
        match *self {
            RowRecipe::Iid { seed } => {
                let mut src = SplitMix64::new(seed);
                src.seek_to(u64::from(row) * u64::from(dim));
                fill_random_words(dim, &mut src, out);
                Ok(())
            }
            RowRecipe::RotatedIid { seed, symbols } => {
                let order = rows / symbols;
                let k = row / symbols;
                let s = row % symbols;
                let shift = (order - 1 - k) % dim;
                let mut src = SplitMix64::new(seed);
                src.seek_to(u64::from(s) * u64::from(dim));
                let mut tmp = vec![0u64; out.len()];
                fill_random_words(dim, &mut src, &mut tmp);
                let base = Hypervector::from_words(tmp, dim)?;
                out.copy_from_slice(base.rotate(shift).words());
                Ok(())
            }
            RowRecipe::LevelChain { seed, scheme } => {
                let mut src = SplitMix64::new(seed);
                let hv = match scheme {
                    LevelScheme::CumulativeFlip => {
                        let (base, order) = cumulative_flip_plan(dim, &mut src);
                        cumulative_flip_row(&base, &order, dim, rows, row)
                    }
                    LevelScheme::ThresholdDraw => {
                        let r: Vec<f64> = (0..dim).map(|_| src.next_unit()).collect();
                        threshold_draw_row(&r, dim, rows, row)
                    }
                };
                out.copy_from_slice(hv.words());
                Ok(())
            }
            RowRecipe::ThresholdPlanes { family, levels } => {
                let pixel = (row / levels) as usize;
                let level = row % levels;
                let quantizer = Quantizer::new(levels)?;
                let values = family.values(pixel, dim as usize)?;
                out.fill(0);
                for (j, &s) in values.iter().enumerate() {
                    if level >= quantizer.quantize_unit(s) {
                        out[j / 64] |= 1u64 << (j % 64);
                    }
                }
                Ok(())
            }
        }
    }

    /// Materialize the whole table, fastest path per recipe (sequential
    /// streams, scatter + prefix-OR for the planes).
    fn materialize_all(&self, dim: u32, rows: u32) -> Result<Vec<Hypervector>, HdcError> {
        match *self {
            RowRecipe::Iid { seed } => {
                let mut src = SplitMix64::new(seed);
                Ok((0..rows)
                    .map(|_| Hypervector::random(dim, &mut src))
                    .collect())
            }
            RowRecipe::RotatedIid { seed, symbols } => {
                let order = rows / symbols;
                let mut src = SplitMix64::new(seed);
                let bases: Vec<Hypervector> = (0..symbols)
                    .map(|_| Hypervector::random(dim, &mut src))
                    .collect();
                let mut out = Vec::with_capacity(rows as usize);
                for k in 0..order {
                    let shift = (order - 1 - k) % dim;
                    for base in &bases {
                        out.push(base.rotate(shift));
                    }
                }
                Ok(out)
            }
            RowRecipe::LevelChain { seed, scheme } => {
                let mut src = SplitMix64::new(seed);
                Ok(generate_level_hypervectors(dim, rows, scheme, &mut src))
            }
            RowRecipe::ThresholdPlanes { family, levels } => {
                let wc = words_for_dim(dim);
                let lv = levels as usize;
                let quantizer = Quantizer::new(levels)?;
                let pixels = (rows / levels) as usize;
                let mut out = Vec::with_capacity(rows as usize);
                let mut planes = vec![0u64; lv * wc];
                for pixel in 0..pixels {
                    let values = family.values(pixel, dim as usize)?;
                    planes.fill(0);
                    // Scatter: mark each dimension in the plane of its
                    // own level, then prefix-OR so plane q covers all
                    // levels ≤ q.
                    for (j, &s) in values.iter().enumerate() {
                        let qs = quantizer.quantize_unit(s) as usize;
                        planes[qs * wc + j / 64] |= 1u64 << (j % 64);
                    }
                    for q in 1..lv {
                        for w in 0..wc {
                            let prev = planes[(q - 1) * wc + w];
                            planes[q * wc + w] |= prev;
                        }
                    }
                    for q in 0..lv {
                        out.push(Hypervector::from_words(
                            planes[q * wc..(q + 1) * wc].to_vec(),
                            dim,
                        )?);
                    }
                }
                Ok(out)
            }
        }
    }
}

/// A table of `rows` hypervectors of dimension `dim`, resident or
/// rematerialized.
///
/// Lookups go through [`ItemMemory::row`], which borrows from the table
/// (resident rows, cached rows) or from caller-provided scratch
/// (rematerialized rows) — the hot path never copies resident data.
#[derive(Debug, Clone)]
pub struct ItemMemory {
    /// What this table holds, for error messages ("position", "level", …).
    what: &'static str,
    dim: u32,
    rows: u32,
    words: usize,
    backend: MemoryBackend,
    recipe: Option<RowRecipe>,
    /// All rows, when the backend is resident (or the table was built
    /// from externally supplied rows). Empty otherwise.
    resident: Vec<Hypervector>,
    /// Lazily-materialized hot rows `0..CACHED_ROWS` of the
    /// rematerialized backend. Empty for resident tables.
    cache: Vec<OnceLock<Hypervector>>,
}

impl ItemMemory {
    /// Build a table from a recipe on the chosen backend.
    ///
    /// Both backends validate eagerly: the rematerialized path probes
    /// the last row once so substrate errors (e.g. an LD family out of
    /// dimensions) surface at construction, exactly like the resident
    /// path.
    ///
    /// # Errors
    ///
    /// * [`HdcError::DimensionZero`] / [`HdcError::InvalidConfig`] for
    ///   degenerate shapes.
    /// * [`HdcError::LowDisc`] if the recipe's LD family cannot supply
    ///   enough dimensions.
    pub fn new(
        what: &'static str,
        dim: u32,
        rows: u32,
        recipe: RowRecipe,
        backend: MemoryBackend,
    ) -> Result<Self, HdcError> {
        recipe.validate(dim, rows)?;
        let words = words_for_dim(dim);
        match backend {
            MemoryBackend::Resident => Ok(ItemMemory {
                what,
                dim,
                rows,
                words,
                backend,
                recipe: Some(recipe),
                resident: recipe.materialize_all(dim, rows)?,
                cache: Vec::new(),
            }),
            MemoryBackend::Rematerialized => {
                let mut probe = vec![0u64; words];
                recipe.derive_into(dim, rows, rows - 1, &mut probe)?;
                let cache = (0..CACHED_ROWS.min(rows))
                    .map(|_| OnceLock::new())
                    .collect();
                Ok(ItemMemory {
                    what,
                    dim,
                    rows,
                    words,
                    backend,
                    recipe: Some(recipe),
                    resident: Vec::new(),
                    cache,
                })
            }
        }
    }

    /// Wrap externally materialized rows (e.g. drawn from a caller's
    /// RNG stream) as a resident table. Such a table has no recipe and
    /// cannot be rematerialized.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidConfig`] for an empty table,
    /// [`HdcError::DimensionMismatch`] if rows disagree on dimension.
    pub fn from_rows(what: &'static str, rows: Vec<Hypervector>) -> Result<Self, HdcError> {
        let Some(first) = rows.first() else {
            return Err(HdcError::InvalidConfig {
                reason: "item memory needs at least one row".into(),
            });
        };
        let dim = first.dim();
        for r in &rows {
            if r.dim() != dim {
                return Err(HdcError::DimensionMismatch {
                    left: dim,
                    right: r.dim(),
                });
            }
        }
        Ok(ItemMemory {
            what,
            dim,
            rows: rows.len() as u32,
            words: words_for_dim(dim),
            backend: MemoryBackend::Resident,
            recipe: None,
            resident: rows,
            cache: Vec::new(),
        })
    }

    /// Hypervector dimension D.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of rows in the table.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Packed words per row.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The backend this table runs on.
    #[must_use]
    pub fn backend(&self) -> MemoryBackend {
        self.backend
    }

    /// Heap bytes this table pins for its lifetime: the materialized
    /// rows plus the hot-row cache *capacity* (counted whether or not a
    /// slot is filled yet, so the figure is deterministic).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let row_bytes = self.words as u64 * 8;
        (self.resident.len() as u64 + self.cache.len() as u64) * row_bytes
    }

    fn derive_row(&self, row: u32) -> Result<Hypervector, HdcError> {
        let recipe = self
            .recipe
            .expect("rematerialized tables always carry a recipe");
        let mut words = vec![0u64; self.words];
        recipe.derive_into(self.dim, self.rows, row, &mut words)?;
        Hypervector::from_words(words, self.dim)
    }

    /// The packed words of row `row`.
    ///
    /// Resident and cached rows borrow from the table; rematerialized
    /// rows are derived into `scratch` (resized as needed) and borrowed
    /// from there. Callers that loop should reuse one scratch buffer.
    ///
    /// # Errors
    ///
    /// * [`HdcError::IndexOutOfRange`] if `row >= rows()`.
    pub fn row<'a>(&'a self, row: u32, scratch: &'a mut Vec<u64>) -> Result<&'a [u64], HdcError> {
        if row >= self.rows {
            return Err(HdcError::IndexOutOfRange {
                what: self.what,
                index: row as usize,
                len: self.rows as usize,
            });
        }
        if !self.resident.is_empty() {
            return Ok(self.resident[row as usize].words());
        }
        if let Some(slot) = self.cache.get(row as usize) {
            let hv = slot.get_or_init(|| {
                self.derive_row(row)
                    .expect("recipe was validated at construction")
            });
            return Ok(hv.words());
        }
        scratch.resize(self.words, 0);
        let recipe = self
            .recipe
            .expect("rematerialized tables always carry a recipe");
        recipe.derive_into(self.dim, self.rows, row, &mut scratch[..])?;
        Ok(&scratch[..])
    }

    /// Row `row` as an owned [`Hypervector`] (always allocates for
    /// non-resident rows; convenience for tests and tools).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ItemMemory::row`].
    pub fn row_hypervector(&self, row: u32) -> Result<Hypervector, HdcError> {
        let mut scratch = Vec::new();
        let words = self.row(row, &mut scratch)?.to_vec();
        Hypervector::from_words(words, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhd_lowdisc::rng::Xoshiro256StarStar;

    /// Every recipe, each sized past the hot-row prefix so its rows
    /// cover both the cached rows and the scratch path.
    fn recipes() -> Vec<(RowRecipe, u32)> {
        vec![
            (RowRecipe::Iid { seed: 11 }, 70),
            (
                RowRecipe::RotatedIid {
                    seed: 12,
                    symbols: 5,
                },
                14 * 5,
            ),
            (
                RowRecipe::LevelChain {
                    seed: 13,
                    scheme: LevelScheme::CumulativeFlip,
                },
                70,
            ),
            (
                RowRecipe::LevelChain {
                    seed: 13,
                    scheme: LevelScheme::ThresholdDraw,
                },
                70,
            ),
            (
                RowRecipe::ThresholdPlanes {
                    family: LdFamily::sobol(),
                    levels: 4,
                },
                18 * 4,
            ),
        ]
    }

    #[test]
    fn fill_matches_hypervector_random() {
        for dim in [1u32, 63, 64, 65, 127, 128, 300] {
            let mut a = Xoshiro256StarStar::seeded(99);
            let mut b = Xoshiro256StarStar::seeded(99);
            let hv = Hypervector::random(dim, &mut a);
            let mut words = vec![0u64; words_for_dim(dim)];
            fill_random_words(dim, &mut b, &mut words);
            assert_eq!(hv.words(), &words[..], "dim {dim}");
        }
    }

    #[test]
    fn rematerialized_rows_equal_resident_rows() {
        for (recipe, rows) in recipes() {
            assert!(rows > CACHED_ROWS, "{recipe:?} must reach the scratch path");
            for dim in [1u32, 65, 130] {
                let res = ItemMemory::new("t", dim, rows, recipe, MemoryBackend::Resident).unwrap();
                let rem =
                    ItemMemory::new("t", dim, rows, recipe, MemoryBackend::Rematerialized).unwrap();
                for r in 0..rows {
                    let mut scratch = Vec::new();
                    let got = rem.row(r, &mut scratch).unwrap().to_vec();
                    assert_eq!(
                        got,
                        res.row_hypervector(r).unwrap().words(),
                        "{recipe:?} dim {dim} row {r}"
                    );
                    // Prefix rows borrow from the cache; the rest derive
                    // into the caller's scratch.
                    let filled = if r < CACHED_ROWS { 0 } else { rem.words() };
                    assert_eq!(scratch.len(), filled, "{recipe:?} dim {dim} row {r}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_row_errors() {
        let im = ItemMemory::new(
            "level",
            64,
            4,
            RowRecipe::Iid { seed: 1 },
            MemoryBackend::Resident,
        )
        .unwrap();
        let mut scratch = Vec::new();
        assert!(matches!(
            im.row(4, &mut scratch),
            Err(HdcError::IndexOutOfRange {
                what: "level",
                index: 4,
                len: 4
            })
        ));
    }

    #[test]
    fn rejects_degenerate_shapes() {
        let iid = RowRecipe::Iid { seed: 0 };
        assert!(ItemMemory::new("t", 0, 4, iid, MemoryBackend::Resident).is_err());
        assert!(ItemMemory::new("t", 64, 0, iid, MemoryBackend::Resident).is_err());
        let rot = RowRecipe::RotatedIid {
            seed: 0,
            symbols: 5,
        };
        assert!(ItemMemory::new("t", 64, 7, rot, MemoryBackend::Resident).is_err());
        let chain = RowRecipe::LevelChain {
            seed: 0,
            scheme: LevelScheme::CumulativeFlip,
        };
        assert!(ItemMemory::new("t", 64, 1, chain, MemoryBackend::Resident).is_err());
        let planes = RowRecipe::ThresholdPlanes {
            family: LdFamily::sobol(),
            levels: 4,
        };
        assert!(ItemMemory::new("t", 64, 5, planes, MemoryBackend::Resident).is_err());
    }

    #[test]
    fn rematerialized_probes_substrate_errors_at_construction() {
        // Sobol runs out of dimensions past 4096 pixels; the probe of
        // the last row must surface that eagerly.
        let planes = RowRecipe::ThresholdPlanes {
            family: LdFamily::sobol(),
            levels: 2,
        };
        let err = ItemMemory::new("plane", 32, 5000 * 2, planes, MemoryBackend::Rematerialized);
        assert!(matches!(err, Err(HdcError::LowDisc(_))));
    }

    #[test]
    fn resident_bytes_reflect_backend() {
        let recipe = RowRecipe::Iid { seed: 3 };
        let res = ItemMemory::new("t", 64, 4096, recipe, MemoryBackend::Resident).unwrap();
        let rem = ItemMemory::new("t", 64, 4096, recipe, MemoryBackend::Rematerialized).unwrap();
        assert_eq!(res.resident_bytes(), 4096 * 8);
        assert_eq!(rem.resident_bytes(), u64::from(CACHED_ROWS) * 8);
        assert!(res.resident_bytes() >= 50 * rem.resident_bytes());
    }

    #[test]
    fn from_rows_wraps_external_tables() {
        let mut rng = Xoshiro256StarStar::seeded(5);
        let rows: Vec<Hypervector> = (0..3).map(|_| Hypervector::random(100, &mut rng)).collect();
        let im = ItemMemory::from_rows("pos", rows.clone()).unwrap();
        assert_eq!(im.backend(), MemoryBackend::Resident);
        assert_eq!(im.rows(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&im.row_hypervector(i as u32).unwrap(), r);
        }
        // Mismatched dimensions are rejected.
        let mut bad = rows;
        bad.push(Hypervector::random(101, &mut rng));
        assert!(matches!(
            ItemMemory::from_rows("pos", bad),
            Err(HdcError::DimensionMismatch { .. })
        ));
        assert!(ItemMemory::from_rows("pos", Vec::new()).is_err());
    }

    #[test]
    fn threshold_planes_match_uhd_scatter_prefix_or() {
        // The per-row derivation must equal the scatter + prefix-OR
        // construction (monotone masks, top level all ones).
        let im = ItemMemory::new(
            "plane",
            128,
            9 * 16,
            RowRecipe::ThresholdPlanes {
                family: LdFamily::sobol(),
                levels: 16,
            },
            MemoryBackend::Rematerialized,
        )
        .unwrap();
        for pixel in 0..9u32 {
            for level in 1..16u32 {
                let lo = im.row_hypervector(pixel * 16 + level - 1).unwrap();
                let hi = im.row_hypervector(pixel * 16 + level).unwrap();
                for (a, b) in lo.words().iter().zip(hi.words()) {
                    assert_eq!(a & !b, 0, "mask must be monotone in level");
                }
            }
            let top = im.row_hypervector(pixel * 16 + 15).unwrap();
            assert_eq!(top.count_plus_ones(), 128);
        }
    }
}
