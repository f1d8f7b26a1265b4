//! Serving-layer configuration.

use safecross::{ConfigError, SafeCrossConfig};
use std::fmt;
use std::time::Duration;

/// Upper bound on the shard count — far above any real core count, it
/// exists to catch a transposed argument (`shards(10_000)` when the
/// caller meant streams) before 10 000 threads are spawned.
pub const MAX_SHARDS: usize = 1024;

/// Upper bound on the per-stream admission queue. Each queued entry
/// holds a full frame, so a larger bound is almost certainly a
/// misconfiguration (use shedding, not buffering, to absorb overload).
pub const MAX_QUEUE_CAPACITY: usize = 1 << 20;

/// How many further frames a stream stays high-priority after the
/// danger verdict or model switch that promoted it.
pub(crate) const PRIORITY_HOLD: u64 = 32;

/// Configuration of a [`FleetServer`](crate::FleetServer).
///
/// Construct via [`ServeConfig::builder`] for build-time validation, or
/// fill the fields directly and let
/// [`FleetServer::new`](crate::FleetServer::new) validate.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Shard threads the fleet is partitioned across. Stream `i` lives
    /// on shard `i % shards`; each shard owns its sessions' admission,
    /// shedding, dispatch, and classification, and steals queue entries
    /// from other shards when its own queue runs dry. Shards beyond the
    /// stream count own no stream and are pure executors: they spend
    /// the run stealing, which is how a lone camera's classification
    /// overlaps its own preprocessing on a second core.
    pub shards: usize,
    /// Clips per queue entry: a shard pushes its open entry onto its
    /// queue once it holds this many clips, or earlier when the queue
    /// has run dry. Every clip of an entry still runs its own forward;
    /// the entry is only the unit of dispatch and stealing. Also sets
    /// the in-flight cap, 4 × `batch_max` clips per shard.
    pub batch_max: usize,
    /// Bound of each stream's admission queue. With shedding enabled,
    /// admitting a frame to a full queue drops that queue's *oldest*
    /// frame (freshest-data-wins for a real-time feed).
    pub queue_capacity: usize,
    /// Maximum age a queued frame may reach before the scheduler sheds
    /// it instead of processing it; must be non-zero, since every frame
    /// would miss a zero deadline. `None` disables age shedding.
    pub frame_deadline: Option<Duration>,
    /// Master switch for load shedding. When `false` the admission
    /// queues grow without bound and no frame is ever dropped — the
    /// lossless mode the equivalence tests run in.
    pub shedding: bool,
    /// Per-stream session template (frame geometry, VP settings,
    /// segment length, confidence gate).
    pub stream: SafeCrossConfig,
    /// Whether the fleet's telemetry registry records anything.
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            batch_max: 4,
            queue_capacity: 32,
            frame_deadline: None,
            shedding: true,
            stream: SafeCrossConfig::default(),
            telemetry: false,
        }
    }
}

impl ServeConfig {
    /// Starts a builder seeded with the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }

    /// Checks every invariant the serving layer relies on.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`ServeError`].
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::NoShards);
        }
        if self.shards > MAX_SHARDS {
            return Err(ServeError::TooManyShards {
                shards: self.shards,
                max: MAX_SHARDS,
            });
        }
        if self.batch_max == 0 {
            return Err(ServeError::EmptyBatch);
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::EmptyQueue);
        }
        if self.queue_capacity > MAX_QUEUE_CAPACITY {
            return Err(ServeError::QueueTooLarge {
                capacity: self.queue_capacity,
                max: MAX_QUEUE_CAPACITY,
            });
        }
        if self.frame_deadline == Some(Duration::ZERO) {
            return Err(ServeError::ZeroDeadline);
        }
        self.stream.validate().map_err(ServeError::Stream)?;
        Ok(())
    }

    /// How many clips one shard may have in flight (staged or queued or
    /// stolen-but-unresolved) before it pauses frame preparation — the
    /// backpressure bound that turns a slow consumer into queue growth
    /// (and, with shedding on, into drops) instead of unbounded
    /// buffering between scheduling and classification.
    pub(crate) fn inflight_limit(&self) -> usize {
        4 * self.batch_max
    }
}

/// Fluent, validating constructor for [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Shard threads the fleet is partitioned across.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Clips per queue entry.
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.config.batch_max = batch_max;
        self
    }

    /// Bound of each stream's admission queue.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Maximum queued age before a frame is shed.
    pub fn frame_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.frame_deadline = deadline;
        self
    }

    /// Enables or disables load shedding.
    pub fn shedding(mut self, shedding: bool) -> Self {
        self.config.shedding = shedding;
        self
    }

    /// Per-stream session template.
    pub fn stream(mut self, stream: SafeCrossConfig) -> Self {
        self.config.stream = stream;
        self
    }

    /// Enables or disables the fleet telemetry registry.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`ServeError`].
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Everything that can go wrong constructing or driving a fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The fleet would have no shards to run on.
    NoShards,
    /// The shard count exceeds [`MAX_SHARDS`].
    TooManyShards {
        /// The requested shard count.
        shards: usize,
        /// The enforced bound.
        max: usize,
    },
    /// Queue entries must hold at least one clip.
    EmptyBatch,
    /// Admission queues must hold at least one frame.
    EmptyQueue,
    /// The admission queue bound exceeds [`MAX_QUEUE_CAPACITY`].
    QueueTooLarge {
        /// The requested capacity.
        capacity: usize,
        /// The enforced bound.
        max: usize,
    },
    /// `frame_deadline` is zero: every frame would miss it, so the
    /// scheduler would shed everything.
    ZeroDeadline,
    /// The per-stream session template failed validation.
    Stream(ConfigError),
    /// A stream id that no
    /// [`open_stream`](crate::FleetServer::open_stream) call returned.
    UnknownStream {
        /// The offending id.
        stream: usize,
        /// How many streams exist.
        streams: usize,
    },
    /// Models must all be registered before the first stream is opened,
    /// so every session sees the same scene set in the same order.
    ModelAfterStream,
    /// A run was started with no registered models.
    NoModels,
    /// A run was started with no streams, or with a feed count that
    /// does not match the stream count.
    FeedMismatch {
        /// Feeds handed to the run call.
        feeds: usize,
        /// Streams the fleet owns.
        streams: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoShards => write!(f, "shard count must be at least 1"),
            ServeError::TooManyShards { shards, max } => {
                write!(
                    f,
                    "shard count {shards} exceeds the bound of {max} shard threads"
                )
            }
            ServeError::EmptyBatch => write!(f, "batch_max must be at least 1"),
            ServeError::EmptyQueue => write!(f, "queue_capacity must be at least 1"),
            ServeError::QueueTooLarge { capacity, max } => {
                write!(
                    f,
                    "queue_capacity {capacity} exceeds the bound of {max} frames"
                )
            }
            ServeError::ZeroDeadline => {
                write!(
                    f,
                    "frame_deadline must be non-zero, or every frame would age out"
                )
            }
            ServeError::Stream(e) => write!(f, "invalid per-stream configuration: {e}"),
            ServeError::UnknownStream { stream, streams } => {
                write!(
                    f,
                    "unknown stream id {stream} (fleet has {streams} streams)"
                )
            }
            ServeError::ModelAfterStream => write!(
                f,
                "register every shared model before opening streams, so all sessions \
                 see the same scene set"
            ),
            ServeError::NoModels => write!(f, "register at least one model before running"),
            ServeError::FeedMismatch { feeds, streams } => {
                write!(f, "got {feeds} feeds for {streams} streams")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(ServeConfig::builder().build().is_ok());
        assert_eq!(
            ServeConfig::builder().shards(0).build().unwrap_err(),
            ServeError::NoShards
        );
        assert_eq!(
            ServeConfig::builder()
                .shards(MAX_SHARDS + 1)
                .build()
                .unwrap_err(),
            ServeError::TooManyShards {
                shards: MAX_SHARDS + 1,
                max: MAX_SHARDS
            }
        );
        assert_eq!(
            ServeConfig::builder().batch_max(0).build().unwrap_err(),
            ServeError::EmptyBatch
        );
        assert_eq!(
            ServeConfig::builder()
                .queue_capacity(0)
                .build()
                .unwrap_err(),
            ServeError::EmptyQueue
        );
        assert_eq!(
            ServeConfig::builder()
                .queue_capacity(MAX_QUEUE_CAPACITY + 1)
                .build()
                .unwrap_err(),
            ServeError::QueueTooLarge {
                capacity: MAX_QUEUE_CAPACITY + 1,
                max: MAX_QUEUE_CAPACITY
            }
        );
        assert_eq!(
            ServeConfig::builder()
                .frame_deadline(Some(Duration::ZERO))
                .build()
                .unwrap_err(),
            ServeError::ZeroDeadline
        );
        for ms in [1, 40] {
            assert!(ServeConfig::builder()
                .frame_deadline(Some(Duration::from_millis(ms)))
                .build()
                .is_ok());
        }
        let bad_stream = SafeCrossConfig {
            segment_frames: 0,
            ..SafeCrossConfig::default()
        };
        assert!(matches!(
            ServeConfig::builder().stream(bad_stream).build(),
            Err(ServeError::Stream(_))
        ));
    }

    #[test]
    fn errors_render() {
        let errors = [
            ServeError::NoShards,
            ServeError::TooManyShards {
                shards: 4096,
                max: MAX_SHARDS,
            },
            ServeError::EmptyBatch,
            ServeError::EmptyQueue,
            ServeError::QueueTooLarge {
                capacity: 1 << 30,
                max: MAX_QUEUE_CAPACITY,
            },
            ServeError::ZeroDeadline,
            ServeError::UnknownStream {
                stream: 9,
                streams: 2,
            },
            ServeError::ModelAfterStream,
            ServeError::NoModels,
            ServeError::FeedMismatch {
                feeds: 1,
                streams: 2,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
