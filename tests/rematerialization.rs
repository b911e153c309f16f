//! Rematerialization equivalence: the seed-resident item-memory
//! backend must be bit-identical to the materialized tables for every
//! encoder family, and the seekable lowdisc sources that make O(1) row
//! derivation possible must agree with their own sequential streams.
//!
//! These suites are the safety net for `uhd_core::item_memory`: a
//! `seek_to` that lands one draw off, or a per-row derivation that
//! consumes the stream in a different order than table construction,
//! would corrupt *hypervectors* — which the accuracy experiments would
//! only ever see as a mysterious drop — so the equivalence is pinned
//! here, across the same edge dimensions the kernel suite sweeps.

use proptest::prelude::*;
use uhd::core::encoder::baseline::{BaselineConfig, BaselineEncoder};
use uhd::core::encoder::tabular::{TabularConfig, TabularEncoder};
use uhd::core::encoder::text::{NgramTextConfig, NgramTextEncoder};
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::{Encoder, MemoryBackend};
use uhd::lowdisc::halton::HaltonDimension;
use uhd::lowdisc::lfsr::Lfsr;
use uhd::lowdisc::r2::R2Dimension;
use uhd::lowdisc::rng::SplitMix64;
use uhd::lowdisc::sobol::SobolDimension;
use uhd::lowdisc::vdc::VanDerCorput;
use uhd::lowdisc::{SeekableSource, UniformSource};

/// Dimensions straddling every word/tail boundary the item-memory row
/// derivation has to mask, plus paper-scale 64k ± 1.
fn edge_dims() -> Vec<u32> {
    let mut dims: Vec<u32> = (1..=16).collect();
    dims.extend([
        31, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 65_535, 65_536, 65_537,
    ]);
    dims
}

/// A deterministic test image for a pixel count.
fn image(pixels: usize, salt: u8) -> Vec<u8> {
    (0..pixels)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(salt))
        .collect()
}

/// Arbitrary bytes derived from a sampled seed (the vendored proptest
/// stand-in has no collection strategies).
fn bytes_from_seed(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect()
}

/// Rows past the rematerialized backend's 64-row hot prefix derive into
/// scratch on every lookup, so each encoder below touches more table
/// rows than the prefix holds and exercises both lookup paths.
const REMAT: MemoryBackend = MemoryBackend::Rematerialized;

#[test]
fn uhd_backends_agree_at_edge_dims() {
    for dim in edge_dims() {
        // Keep 64k dims cheap: few pixels (5 × 16 plane rows), one image.
        let pixels = if dim > 4096 { 5 } else { 11 };
        let config = UhdConfig::new(dim, pixels);
        let resident = UhdEncoder::new(config.clone()).unwrap();
        let remat = UhdEncoder::new(UhdConfig {
            backend: REMAT,
            ..config
        })
        .unwrap();
        let img = image(pixels, dim as u8);
        assert_eq!(
            resident.encode(&img).unwrap(),
            remat.encode(&img).unwrap(),
            "uhd dim {dim}"
        );
    }
}

#[test]
fn baseline_backends_agree_at_edge_dims() {
    for dim in edge_dims() {
        let pixels = 66;
        // Few levels keep the 64k rows cheap while still quantizing.
        let config = BaselineConfig::new(dim, pixels, 8);
        let seed = u64::from(dim) ^ 0xbead;
        let resident =
            BaselineEncoder::from_seed(config.clone(), seed, MemoryBackend::Resident).unwrap();
        let remat = BaselineEncoder::from_seed(config, seed, REMAT).unwrap();
        let img = image(pixels, dim as u8);
        assert_eq!(
            resident.encode(&img).unwrap(),
            remat.encode(&img).unwrap(),
            "baseline dim {dim}"
        );
    }
}

#[test]
fn paper_config_heap_shrinks_at_least_fifty_fold() {
    // The acceptance bar: at the paper's MNIST geometry (784 pixels,
    // xi = 16, D = 1024) the rematerialized threshold planes hold at
    // least 50x less resident heap than the materialized ones, while
    // producing the same hypervector for the same image.
    let config = UhdConfig::new(1024, 784);
    let resident = UhdEncoder::new(config.clone()).unwrap();
    let remat = UhdEncoder::new(config.rematerialized()).unwrap();
    let res_bytes = resident.profile().resident_bytes;
    let rem_bytes = remat.profile().resident_bytes;
    // The resident encoder holds the plane table and nothing else:
    // 784 pixels x 16 levels x 1024 bits.
    assert_eq!(res_bytes, 784 * 16 * 1024 / 8);
    assert!(
        rem_bytes > 0 && rem_bytes <= res_bytes / 50,
        "rematerialized heap {rem_bytes} B must be <= 1/50 of resident {res_bytes} B"
    );
    let img = image(784, 3);
    assert_eq!(resident.encode(&img).unwrap(), remat.encode(&img).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// uHD threshold planes: derive-on-demand equals scatter+prefix-OR
    /// for arbitrary small dimensions and images.
    #[test]
    fn prop_uhd_backends_agree(
        dim in 1u32..257,
        img_seed in any::<u64>(),
    ) {
        let img = bytes_from_seed(5, img_seed);
        let config = UhdConfig::new(dim, img.len());
        let resident = UhdEncoder::new(config.clone()).unwrap();
        let remat = UhdEncoder::new(UhdConfig { backend: REMAT, ..config }).unwrap();
        prop_assert_eq!(resident.encode(&img).unwrap(), remat.encode(&img).unwrap());
    }

    /// Baseline P x L tables: seeked i.i.d. rows and level chains equal
    /// their sequentially generated counterparts.
    #[test]
    fn prop_baseline_backends_agree(
        dim in 1u32..257,
        seed in any::<u64>(),
        img_seed in any::<u64>(),
    ) {
        let img = bytes_from_seed(66, img_seed);
        let config = BaselineConfig::new(dim, img.len(), 16);
        let resident = BaselineEncoder::from_seed(
            config.clone(), seed, MemoryBackend::Resident).unwrap();
        let remat = BaselineEncoder::from_seed(config, seed, REMAT).unwrap();
        prop_assert_eq!(resident.encode(&img).unwrap(), remat.encode(&img).unwrap());
    }

    /// Text n-gram encoder: rotated symbol rows derived by seek equal
    /// the resident rotate-then-store table.
    #[test]
    fn prop_text_backends_agree(
        dim in 1u32..257,
        len in 3usize..25,
        text_seed in any::<u64>(),
    ) {
        // Lowercase letters and spaces, the symbol alphabet.
        let text: Vec<u8> = bytes_from_seed(len, text_seed)
            .into_iter()
            .map(|b| if b % 27 == 26 { b' ' } else { b'a' + b % 27 })
            .collect();
        let config = NgramTextConfig::new(dim);
        let resident = NgramTextEncoder::new(config.clone()).unwrap();
        let remat = NgramTextEncoder::new(
            NgramTextConfig { backend: REMAT, ..config }).unwrap();
        prop_assert_eq!(
            resident.encode(&text).unwrap(),
            remat.encode(&text).unwrap()
        );
    }

    /// Tabular key/level tables under distinct sub-seeds of one master.
    #[test]
    fn prop_tabular_backends_agree(
        dim in 1u32..257,
        seed in any::<u64>(),
        row_seed in any::<u64>(),
    ) {
        let row = bytes_from_seed(66, row_seed);
        let config = TabularConfig { seed, ..TabularConfig::new(dim, row.len()) };
        let resident = TabularEncoder::new(config.clone()).unwrap();
        let remat = TabularEncoder::new(
            TabularConfig { backend: REMAT, ..config }).unwrap();
        prop_assert_eq!(resident.encode(&row).unwrap(), remat.encode(&row).unwrap());
    }

    /// SplitMix64: seeking to draw n lands on the same state as n
    /// sequential draws.
    #[test]
    fn prop_splitmix_seek_equals_sequential(seed in any::<u64>(), n in 0u64..4096) {
        let mut sequential = SplitMix64::new(seed);
        for _ in 0..n {
            sequential.next_unit();
        }
        let mut seeked = SplitMix64::new(seed);
        seeked.seek_to(n);
        for _ in 0..4 {
            prop_assert_eq!(sequential.next_unit().to_bits(), seeked.next_unit().to_bits());
        }
    }

    /// Sobol: Gray-code direct indexing equals the incremental stream.
    #[test]
    fn prop_sobol_seek_equals_sequential(d in 0usize..128, n in 0u64..4096) {
        let mut sequential = SobolDimension::new(d).unwrap();
        for _ in 0..n {
            sequential.next_unit();
        }
        let mut seeked = SobolDimension::new(d).unwrap();
        seeked.seek_to(n);
        for _ in 0..4 {
            prop_assert_eq!(sequential.next_unit().to_bits(), seeked.next_unit().to_bits());
        }
    }

    /// Halton, R2, Van der Corput: closed-form index seek equals the
    /// incremental stream.
    #[test]
    fn prop_closed_form_families_seek_equals_sequential(d in 0usize..64, n in 0u64..4096) {
        let mut pairs: Vec<(Box<dyn SeekableSource>, Box<dyn SeekableSource>)> = vec![
            (
                Box::new(HaltonDimension::new(d).unwrap()),
                Box::new(HaltonDimension::new(d).unwrap()),
            ),
            (Box::new(R2Dimension::new(d)), Box::new(R2Dimension::new(d))),
            (
                Box::new(VanDerCorput::new(2 + d as u64)),
                Box::new(VanDerCorput::new(2 + d as u64)),
            ),
        ];
        for (sequential, seeked) in &mut pairs {
            for _ in 0..n {
                sequential.next_unit();
            }
            seeked.seek_to(n);
            for _ in 0..4 {
                prop_assert_eq!(sequential.next_unit().to_bits(), seeked.next_unit().to_bits());
            }
        }
    }

    /// LFSR: the GF(2) jump matrix lands on the same state as stepping.
    #[test]
    fn prop_lfsr_seek_equals_sequential(
        width in 2u32..=20,
        seed in 1u32..1024,
        n in 0u64..2048,
    ) {
        // Bit 0 set keeps the masked state nonzero at every width.
        let seed = seed | 1;
        let mut sequential = Lfsr::new(width, seed).unwrap();
        for _ in 0..n {
            sequential.next_unit();
        }
        let mut seeked = Lfsr::new(width, seed).unwrap();
        seeked.seek_to(n);
        for _ in 0..4 {
            prop_assert_eq!(sequential.next_unit().to_bits(), seeked.next_unit().to_bits());
        }
    }
}
