//! # safecross-dataset
//!
//! The synthetic replacement for the paper's closed surveillance dataset
//! (Table I: 2855 segments over daytime / rain / snow). Segments are
//! produced by scripting the [`safecross-trafficsim`] simulator into
//! known-label situations, rendering them through the weather camera, and
//! running the VP pipeline to obtain the `[1, 32, H, W]` occupancy clips
//! the classifiers consume.
//!
//! Labels follow the paper exactly:
//!
//! - four behavioural categories = {turn, no-turn} x {blind, no-blind};
//! - two training classes: class 0 *danger* (do not turn), class 1 *safe*.
//!
//! ## Example
//!
//! ```
//! use safecross_dataset::{DatasetSpec, SegmentGenerator};
//! use safecross_trafficsim::Weather;
//!
//! let spec = DatasetSpec::tiny();
//! let mut gen = SegmentGenerator::new(7);
//! let seg = gen.generate(Weather::Daytime, true, true, &spec);
//! assert_eq!(seg.clip.dims(), &[1, spec.frames_per_segment, spec.grid_height, spec.grid_width]);
//! ```
//!
//! [`safecross-trafficsim`]: ../safecross_trafficsim/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod label;
mod set;
mod spec;

pub use generator::SegmentGenerator;
pub use label::{Class, SegmentLabel, TurnAction};
pub use set::{Dataset, DatasetStats, GridSegment, Split};
pub use spec::DatasetSpec;
