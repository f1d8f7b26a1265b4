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
