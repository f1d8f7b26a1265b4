//! # safecross-videoclass
//!
//! Miniature but architecturally faithful implementations of the three
//! video classifiers the paper compares (Table IV):
//!
//! - [`SlowFastLite`] — the paper's chosen model: a two-pathway network
//!   with a low-frame-rate Slow pathway, an `α`× higher-frame-rate Fast
//!   pathway using a `β` fraction of the channels, and lateral
//!   connections fusing Fast features into Slow (Feichtenhofer et al.).
//! - [`C3dLite`] — a single-stream 3-D convolutional network (Tran et
//!   al.), heavier per frame.
//! - [`TsnLite`] — temporal segment network (Wang et al.): sparse
//!   snippet sampling through a shared 2-D backbone with late consensus.
//!
//! All three consume the `[N, 1, T, H, W]` occupancy clips produced by
//! the VP pipeline and emit `[N, 2]` logits (danger / safe). Training
//! runs on the `safecross-nn` substrate; see [`train`] and [`evaluate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod c3d;
mod model;
mod slowfast;
mod train;
mod tsn;

pub use c3d::C3dLite;
pub use model::VideoClassifier;
pub use slowfast::SlowFastLite;
pub use train::{
    evaluate, train, train_batches, EvalReport, TrainConfig, TrainReport,
};
pub use tsn::TsnLite;
