//! # safecross-vision
//!
//! Classical computer-vision building blocks for the SafeCross
//! reproduction: grayscale frames, dynamic background subtraction,
//! mathematical morphology, frame differencing, sparse (Lucas–Kanade) and
//! dense (Horn–Schunck) optical flow, connected components, and the
//! paper's Fig. 3 pipeline that maps a raw surveillance frame into the
//! compact 2-D grid representation the video classifier consumes.
//!
//! Everything here operates on CPU-resident [`GrayFrame`]s and is fully
//! deterministic, which is what lets the detection-method comparison
//! (paper Table II / Fig. 8) run as an ordinary seeded program.
//!
//! ## The packed mask and who works on words
//!
//! [`BinaryFrame`] stores 64 pixels per `u64`: rows are padded to
//! `stride = ⌈width / 64⌉` words, pixel `(x, y)` is bit `x % 64` of word
//! `y · stride + x / 64`, and the padding bits of every row's last word
//! are zero at all times. That one invariant is why equality and
//! [`BinaryFrame::count`] need no masking and why "outside the frame is
//! background" costs the morphology nothing.
//!
//! The frame path — [`BackgroundSubtractor::apply`], [`erode`] /
//! [`dilate`] / [`opening`], [`GridMapper::map`], all of it behind
//! [`Preprocessor`] — is written against the words: background
//! subtraction evaluates its per-pixel expressions 64 pixels at a time
//! and stores whole words, a square opening is separable into
//! shift-AND / shift-OR passes along rows and AND / OR of whole rows
//! along columns (zeros flow in at the edges), and grid cells are counted
//! with masked popcounts. The [`Preprocessor`] owns the two masks this
//! needs, so a frame allocates its occupancy grid and nothing else. The
//! per-pixel definitions these replaced survive as test-only
//! references that the proptests hold the word-wide code to, bit for bit.
//!
//! [`frame_difference`], [`median_filter`], the optical-flow routines and
//! [`connected_components`] exist for the Table II shoot-out and its
//! baselines, not for the frame path: they stay per-pixel, reading and
//! writing the packed mask through [`BinaryFrame::get`] /
//! [`BinaryFrame::put`], and are deliberately left that way.
//!
//! ## Example
//!
//! ```
//! use safecross_vision::{BackgroundSubtractor, GrayFrame};
//!
//! let mut bgs = BackgroundSubtractor::new(8, 8, 0.05, 30.0);
//! let empty = GrayFrame::filled(8, 8, 100);
//! for _ in 0..20 { bgs.apply(&empty); }
//! let mut scene = empty.clone();
//! scene.set(3, 3, 250); // a "vehicle" appears
//! let mask = bgs.apply(&scene);
//! assert!(mask.get(3, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bgs;
mod components;
mod flow;
mod frame;
mod framediff;
mod median;
mod morphology;
mod pipeline;

pub use bgs::BackgroundSubtractor;
pub use components::{connected_components, Component};
pub use flow::{
    dense_flow, shi_tomasi_corners, sparse_flow, DenseFlowParams, FlowField, FlowVector,
    SparseFlowParams,
};
pub use frame::{BinaryFrame, GrayFrame};
pub use framediff::frame_difference;
pub use median::median_filter;
pub use morphology::{dilate, erode, opening};
pub use pipeline::{GridMapper, PreprocessConfig, Preprocessor, SegmentBuffer};

#[cfg(test)]
mod proptests;
