//! # safecross
//!
//! The SafeCross framework — a reproduction of *"To Turn or Not To Turn,
//! SafeCross is the Answer"* (Wu et al., ICDCS 2022).
//!
//! SafeCross watches an intersection through a roadside camera and warns
//! left-turning vehicles when the blind area behind an opposing vehicle
//! hides oncoming traffic. The framework wires four modules:
//!
//! 1. **VP** — video pre-processing: dynamic background subtraction,
//!    morphological opening, and 2-D grid remapping
//!    ([`safecross_vision::Preprocessor`]);
//! 2. **VC** — video classification: a SlowFast-style model over
//!    32-frame occupancy clips ([`safecross_videoclass::SlowFastLite`]);
//! 3. **FL** — few-shot learning: rain/snow models adapted from the
//!    daytime model ([`safecross_fewshot`]);
//! 4. **MS** — model switching: PipeSwitch-style pipelined swaps when
//!    the scene changes ([`safecross_modelswitch::ModelSwitcher`]).
//!
//! The [`SafeCross`] orchestrator consumes camera frames and produces
//! turn/no-turn verdicts plus scene-switch telemetry; [`throughput`]
//! reproduces the paper's Sec. V-D left-turn throughput analysis.
//!
//! ## Example
//!
//! ```
//! use safecross::{SafeCross, SafeCrossConfig};
//! use safecross_videoclass::SlowFastLite;
//! use safecross_tensor::TensorRng;
//! use safecross_trafficsim::Weather;
//! use safecross_vision::GrayFrame;
//!
//! let mut rng = TensorRng::seed_from(0);
//! let mut system = SafeCross::try_new(SafeCrossConfig::default()).expect("valid config");
//! system.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng));
//! let outcome = system.process_frame(&GrayFrame::filled(320, 240, 90));
//! assert!(outcome.verdict.is_none()); // needs a full 32-frame buffer
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod errors;
pub mod experiments;
mod framework;
mod scene;
pub mod throughput;

#[cfg(test)]
mod proptests;

pub use errors::{ConfigError, SafeCrossError};
pub use framework::{
    classify_with_model, top_class_from_logits, FrameOutcome, FramePrep, SafeCross,
    SafeCrossConfig, SafeCrossConfigBuilder, Verdict, SCENE_TOTAL_FLOPS,
};
pub use scene::{SceneDetector, SceneFeatures};
pub use throughput::{throughput_study, ThroughputReport};

// Re-exports so downstream code can consume the typed switch log and
// telemetry snapshots without depending on the sub-crates directly.
pub use safecross_modelswitch::{SwitchBreakdown, SwitchError, SwitchRecord};
pub use safecross_telemetry::{Registry, Snapshot};
