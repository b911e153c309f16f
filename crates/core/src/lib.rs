//! Hyperdimensional computing core for the uHD reproduction.
//!
//! This crate implements both HDC pipelines evaluated by the paper:
//!
//! * the **baseline**: pseudo-random position (`P`) and level (`L`)
//!   hypervectors, XOR binding, popcount bundling and sign binarization
//!   (paper Fig. 1);
//! * **uHD**: per-pixel Sobol sequences with the Sobol *index* standing in
//!   for the position hypervector — multiplier-less encoding with
//!   quantized, unary-domain comparisons (paper Fig. 2–5).
//!
//! The pipelines are generic over [`Encoder`] feature streams, so the
//! same training/inference/serving code also runs the non-image
//! workload families: n-gram text ([`encoder::text`]) and
//! tabular/sensor rows ([`encoder::tabular`]).
//!
//! # Quick start
//!
//! ```
//! use uhd_core::encoder::uhd::{UhdConfig, UhdEncoder};
//! use uhd_core::model::{HdcModel, LabelledSamples};
//!
//! // 2-class toy problem on 4-pixel "images".
//! let encoder = UhdEncoder::new(UhdConfig::new(256, 4))?;
//! let images = vec![vec![0u8; 4], vec![255u8; 4], vec![10u8; 4], vec![245u8; 4]];
//! let labels = vec![0, 1, 0, 1];
//! let data = LabelledSamples::new(&images, &labels)?;
//! let model = HdcModel::train(&encoder, data, 2)?;
//! let (class, _score) = model.classify(&encoder, &[250u8; 4])?;
//! assert_eq!(class, 1);
//! # Ok::<(), uhd_core::HdcError>(())
//! ```

#![warn(missing_docs)]

pub mod accumulator;
pub mod assoc;
pub mod encoder;
pub mod error;
pub mod hypervector;
pub mod item_memory;
pub mod kernels;
pub mod model;
pub mod online;
pub mod orthogonality;
pub mod retrain;
pub mod similarity;
pub mod snapshot;
pub mod telemetry;

pub use accumulator::{BitSliceAccumulator, DenseAccumulator};
pub use assoc::AssociativeMemory;
pub use encoder::baseline::{BaselineConfig, BaselineEncoder};
pub use encoder::tabular::{TabularConfig, TabularEncoder};
pub use encoder::text::{NgramTextConfig, NgramTextEncoder};
pub use encoder::uhd::{LdFamily, UhdConfig, UhdEncoder, UhdExactEncoder};
pub use encoder::{Encoder, EncoderProfile};
pub use error::HdcError;
pub use hypervector::Hypervector;
pub use item_memory::{derive_seed, ItemMemory, MemoryBackend, RowRecipe};
pub use kernels::Kernel;
pub use model::{HdcModel, InferenceMode, LabelledSamples};
pub use online::OnlineLearner;
pub use snapshot::{AlignedBytes, SnapshotError};
