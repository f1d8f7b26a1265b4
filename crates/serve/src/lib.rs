//! safecross-serve: a multi-intersection serving front for SafeCross.
//!
//! A city deploys one SafeCross pipeline per signalized intersection;
//! running each on a dedicated machine wastes most of an accelerator.
//! This crate multiplexes N independent intersection streams over a
//! shard-per-core runtime without giving up the property the rest of
//! the workspace is built around: **per-stream results are
//! bit-identical to a standalone sequential run.**
//!
//! The layer cake, bottom to top:
//!
//! - session layer (internal) — one stream's full SafeCross state
//!   (scene voting, VP background model, segment buffer, model
//!   switcher) plus its admission queue and completion reorder buffer.
//!   A session is an inert state machine: no thread, no lock, no
//!   blocking call — which is what lets one process hold 10k of them.
//! - sources ([`FrameSource`]) — every feed shape (pre-rendered
//!   vectors, paced live stand-ins, replay-timed and stalling feeds)
//!   behind one non-blocking poll contract, polled inline by the
//!   owning shard, so `run`, `run_reference`, and trace replay share a
//!   single ingestion signature.
//! - shards (internal) — streams are partitioned `i % shards` across
//!   [`ServeConfig::shards`] threads. Each shard owns its partition's
//!   admission, shedding and priority scheduling, pushes clip jobs onto
//!   its own queue without waiting for company (an entry of up to
//!   [`ServeConfig::batch_max`] clips goes out when it is full or when
//!   the queue has run dry), classifies each job alone on its replica
//!   of the job's (checkpoint, precision), and steals entries from
//!   other shards' queues when its own runs dry. Completions route back to the owning shard, so
//!   per-stream sequencing stays structural. A shard with no stream of
//!   its own only steals — which is how a single camera, served as a
//!   fleet of one, still keeps two cores busy.
//! - [`FleetServer`] — [`FleetServer::open_stream`] hands out typed
//!   [`StreamHandle`]s; admission control (bounded per-stream queues,
//!   drop-oldest), load shedding (frame-age deadline), and two-level
//!   priority scheduling (danger verdicts and model switches jump the
//!   line) keep one stalled or flooded stream from starving the rest.
//!
//! # Quick start
//!
//! ```
//! use safecross::SafeCrossConfig;
//! use safecross_serve::{paced_feed, FleetServer, ServeConfig, StreamSpec};
//! use safecross_tensor::TensorRng;
//! use safecross_trafficsim::Weather;
//! use safecross_videoclass::SlowFastLite;
//! use safecross_vision::GrayFrame;
//! use std::time::Duration;
//!
//! let config = ServeConfig::builder()
//!     .shards(2)
//!     .shedding(false) // lossless: every frame completes
//!     .stream(SafeCrossConfig {
//!         min_confidence: 0.0,
//!         ..SafeCrossConfig::default()
//!     })
//!     .build()?;
//! let mut fleet = FleetServer::new(config)?;
//! let mut rng = TensorRng::seed_from(7);
//! fleet.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng))?;
//! let cams: Vec<_> = (0..4)
//!     .map(|_| fleet.open_stream(StreamSpec::new()))
//!     .collect::<Result<_, _>>()?;
//!
//! let feeds = (0..4)
//!     .map(|i| {
//!         let frames: Vec<GrayFrame> = (0..40)
//!             .map(|t| GrayFrame::filled(320, 240, ((i * 40 + t) % 251) as u8))
//!             .collect();
//!         paced_feed(frames, Duration::ZERO)
//!     })
//!     .collect();
//! let report = fleet.run(feeds)?;
//! assert_eq!(report.completed, 4 * 40);
//! for cam in &cams {
//!     assert!(cam.stats(&fleet).completed > 0);
//! }
//! println!("{report}");
//! # Ok::<(), safecross_serve::ServeError>(())
//! ```
//!
//! # Continual learning
//!
//! A [`LearnHook`] installed via [`FleetServer::set_learn_hook`] rides
//! the verdict path of every sharded run: each classified clip is
//! offered to the hook for harvesting, and challenger checkpoints the
//! learner promotes are activated by the owning shard between frames
//! (see the `safecross-learn` crate for the concrete
//! harvester/trainer/canary subsystem).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapt;
mod config;
mod executor;
mod fault;
mod metrics;
mod server;
mod session;
mod source;

pub use adapt::{HarvestSample, LearnHook, Promotion, PromotionOutcome};
pub use config::{ServeConfig, ServeConfigBuilder, ServeError, MAX_QUEUE_CAPACITY, MAX_SHARDS};
pub use fault::{FaultHook, WorkerAction};
pub use safecross_tensor::Precision;
pub use server::{AgeProfile, FleetReport, FleetServer, StreamHandle, StreamReport, StreamSpec};
pub use session::{StreamId, StreamStats};
pub use source::{
    paced_feed, BoxedSource, FrameSource, IntoFrameSource, PacedSource, SourcePoll, TimedSource,
};
