//! [`ServeConfig`]: pool sizing, inference mode, online-learning and
//! admission knobs, and telemetry switches for a [`crate::ModelRegistry`].

use crate::error::ServeError;
use uhd_core::InferenceMode;
use uhd_obs::TraceLevel;

/// Sizing of the worker pool and its micro-batches, the inference mode
/// requests are answered in, and the online-learning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker shards (threads) draining the request queue.
    pub shards: usize,
    /// Maximum requests one shard claims per queue pop.
    pub max_batch: usize,
    /// Inference mode workers answer in.
    /// [`InferenceMode::BinarizedQuery`] (the default) is the
    /// hardware-faithful fast path through the bit-sliced associative
    /// memory; the integer modes trade throughput for the accuracy of
    /// non-quantized similarity (see `DESIGN.md` §4 on why dark, sparse
    /// datasets need them).
    pub mode: InferenceMode,
    /// Publish a rebinarized model snapshot after exactly this many
    /// applied learning updates per tenant. Learning is synchronous, so
    /// this is the whole cadence: `learns / snapshot_every` publishes,
    /// no more. [`crate::ModelRegistry::publish`] flushes a partial
    /// count on demand.
    pub snapshot_every: usize,
    /// Cap on runtime class admission: labels at or beyond this index
    /// are rejected eagerly by [`crate::ModelRegistry::learn`] /
    /// [`crate::ModelRegistry::feedback`], bounding learner memory
    /// against a corrupt label stream.
    pub max_classes: usize,
    /// Load-shedding admission threshold: a submit arriving while the
    /// request queue already holds this many pending requests is
    /// rejected with [`ServeError::Overloaded`] instead of queueing
    /// unboundedly. The default `usize::MAX` disables shedding (must
    /// be nonzero — a zero threshold would reject everything).
    pub shed_above: usize,
    /// Whether the registry exposes its metrics and trace events (on by
    /// default). With telemetry off the counters and histograms still
    /// count (they are plain relaxed atomics either way), but the
    /// expositions render empty and the trace ring stays dark — the
    /// configuration the throughput bench measures instrumentation
    /// overhead against.
    pub telemetry: bool,
    /// Trace-event verbosity. `None` (the default) follows the
    /// `UHD_LOG` environment knob at [`crate::ModelRegistry::start`]
    /// time.
    pub trace_level: Option<TraceLevel>,
}

impl ServeConfig {
    /// A binarized-query (associative-memory) configuration with
    /// explicit shard and batch sizing. Online learning defaults:
    /// snapshot every 64 updates, class admission capped at 4096.
    #[must_use]
    pub fn new(shards: usize, max_batch: usize) -> Self {
        ServeConfig {
            shards,
            max_batch,
            mode: InferenceMode::BinarizedQuery,
            snapshot_every: 64,
            max_classes: uhd_core::online::DEFAULT_MAX_CLASSES,
            shed_above: usize::MAX,
            telemetry: true,
            trace_level: None,
        }
    }

    /// The same sizing under an explicit [`InferenceMode`].
    #[must_use]
    pub fn with_mode(mut self, mode: InferenceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Publish a learner snapshot after `snapshot_every` applied
    /// updates (must be nonzero).
    #[must_use]
    pub fn with_snapshot_every(mut self, snapshot_every: usize) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }

    /// Cap runtime class admission at `max_classes` (must be nonzero
    /// and at least every registered model's class count).
    #[must_use]
    pub fn with_max_classes(mut self, max_classes: usize) -> Self {
        self.max_classes = max_classes;
        self
    }

    /// Shed classify submits once the request queue holds `shed_above`
    /// pending requests (must be nonzero; `usize::MAX` disables).
    #[must_use]
    pub fn with_shed_above(mut self, shed_above: usize) -> Self {
        self.shed_above = shed_above;
        self
    }

    /// Enable or disable the metric expositions and trace events (see
    /// [`ServeConfig::telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Pin the trace-event verbosity instead of reading `UHD_LOG`.
    #[must_use]
    pub fn with_trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = Some(level);
        self
    }

    /// One shard per available hardware thread, batches of 32.
    #[must_use]
    pub fn auto() -> Self {
        let shards = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ServeConfig::new(shards, 32)
    }

    pub(crate) fn validate(self) -> Result<(), ServeError> {
        if self.shards == 0 || self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "shards ({}) and max_batch ({}) must be nonzero",
                    self.shards, self.max_batch
                ),
            });
        }
        if self.snapshot_every == 0 || self.max_classes == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "snapshot_every ({}) and max_classes ({}) must be nonzero",
                    self.snapshot_every, self.max_classes
                ),
            });
        }
        if self.shed_above == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "shed_above must be nonzero (0 would shed every request)".to_string(),
            });
        }
        Ok(())
    }
}
