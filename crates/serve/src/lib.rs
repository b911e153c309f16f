//! Batched, sharded, multi-tenant inference serving for the uHD
//! reproduction.
//!
//! The core crates answer one sample at a time; this crate turns
//! trained [`uhd_core::HdcModel`]s into a **serving registry** shaped
//! for heavy traffic. [`ModelRegistry`] is the one serving core: named
//! tenants, each an [`uhd_core::Encoder`] plus a model, share one
//! worker pool. Image, n-gram text and tabular workloads all flow
//! through the same queue, shards, learners and stats, with no
//! workload-specific branches; a single-model deployment is a registry
//! with one tenant.
//!
//! * **Micro-batching** — clients submit requests into a
//!   lock-protected, condvar-signalled queue; worker shards drain
//!   everything available (up to a batch cap) per wake-up, amortizing
//!   synchronization over the batch. [`ModelRegistry::submit_many`]
//!   enqueues a whole wave under one lock acquisition.
//! * **Sharding** — `N` detached worker threads compete for batches,
//!   scaling with cores; a batch may mix tenants.
//! * **Bit-sliced associative memory** — every query is answered
//!   through [`uhd_core::AssociativeMemory`]: class hypervectors
//!   transposed into contiguous per-plane `u64` words so one streaming
//!   XOR+popcount pass yields the distance to *all* classes, instead
//!   of per-class scans.
//! * **Hot model swap** — the "dynamic" in dynamic HDC: each tenant's
//!   epoch/generation-tagged `Arc<HdcModel>` is replaced atomically by
//!   [`ModelRegistry::update_model`] while queries are in flight. Each
//!   request is answered by one generation, so no request ever
//!   observes a torn model, and every [`Response::generation`] names
//!   the model that produced it.
//! * **Online learning** — [`ModelRegistry::learn`] and
//!   [`ModelRegistry::feedback`] fold labelled samples into the
//!   tenant's [`uhd_core::OnlineLearner`] *synchronously* (bundling new
//!   observations, perceptron-correcting served mispredictions,
//!   admitting new classes at runtime) and hot-publish a rebinarized
//!   snapshot after exactly every `snapshot_every` updates, so accuracy
//!   climbs *while traffic is being served* and the generation count is
//!   predictable: `learns / snapshot_every`.
//! * **Admission control** — past `shed_above` pending requests a
//!   submit returns [`ServeError::Overloaded`] instead of queueing.
//! * **Persistence** — crash-safe per-tenant disk snapshots.
//! * **Observability** — every request is staged-timed (queue-wait vs
//!   batch-compute per shard, submit → completion overall) into
//!   lock-free [`uhd_obs::Histogram`]s; [`ModelRegistry::stats`]
//!   reports the counters, p50/p99 and the queue high-water mark, and
//!   [`ModelRegistry::render_metrics`] exposes the whole metric set
//!   (counters, per-tenant series, gauges, latency summaries, kernel op
//!   counters) in the Prometheus text format. Structured trace events
//!   (batch formed, model swapped, snapshot published, sample
//!   rejected) land in a bounded lock-free ring gated by the `UHD_LOG`
//!   knob.
//! * **HTTP** — [`HttpServer`] puts the registry on a socket.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use uhd_core::encoder::uhd::{UhdConfig, UhdEncoder};
//! use uhd_core::model::{HdcModel, LabelledSamples};
//! use uhd_serve::{ModelRegistry, ServeConfig};
//!
//! let encoder = UhdEncoder::new(UhdConfig::new(256, 4))?;
//! let images = vec![vec![0u8; 4], vec![255u8; 4], vec![10u8; 4], vec![245u8; 4]];
//! let labels = vec![0, 1, 0, 1];
//! let model = HdcModel::train(&encoder, LabelledSamples::new(&images, &labels)?, 2)?;
//!
//! let registry = ModelRegistry::start(ServeConfig::new(2, 8).with_snapshot_every(2))?;
//! registry.register("digits", Arc::new(encoder), model)?;
//! let responses = registry.classify_many("digits", &images)?;
//! assert_eq!(responses[1].class, 1);
//! assert_eq!(responses[1].generation, 0);
//!
//! // The second applied update crosses `snapshot_every`: generation 1.
//! assert_eq!(registry.learn("digits", &images[0], 0)?, 0);
//! assert_eq!(registry.learn("digits", &images[1], 1)?, 1);
//! registry.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod http;
pub(crate) mod obs;
pub mod queue;
pub mod registry;
pub mod request;
pub mod stats;

pub use config::ServeConfig;
pub use error::ServeError;
pub use http::{HttpServer, HttpServerConfig};
pub use registry::ModelRegistry;
pub use request::{Response, Ticket};
pub use stats::StatsSnapshot;
// Re-exported so clients can configure tracing and decode events
// without naming `uhd-obs` directly.
pub use uhd_obs::{TraceEvent, TraceKind, TraceLevel};
