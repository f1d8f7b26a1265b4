//! Frame ingestion: one trait over every feed shape.
//!
//! The shard loop cannot afford blocking: one stalled camera must cost
//! its own stream, never its shard. So every [`FrameSource`] answers
//! without waiting, and its contract has two halves:
//!
//! - [`FrameSource::poll`] is the serving path. The owning shard polls
//!   each of its sources inline; a source with no frame due yet (a
//!   paced camera between frames, a stalled one mid-gap) reports
//!   [`SourcePoll::Pending`] and the shard serves other streams.
//! - [`FrameSource::drain`] is the clock-free total input the
//!   deterministic reference mode consumes.
//!
//! A stall is a frame that is not yet due ([`TimedSource`]), so a run
//! starts only its shard threads. A camera whose reader has to block (a
//! socket, a decoder) keeps that block on its own reader thread and
//! hands frames to a non-blocking `poll`, say through a channel's
//! `try_recv`.
//!
//! [`IntoFrameSource`] lets `run`/`run_reference` accept every shape
//! through one signature: a `Vec<GrayFrame>` (flooded at once) or any
//! source type, including [`BoxedSource`] for heterogeneous fleets.

use safecross_vision::GrayFrame;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A boxed [`FrameSource`] — the element type to use when one fleet
/// mixes source kinds (say, a stalling replay next to flood feeds).
pub type BoxedSource = Box<dyn FrameSource>;

/// One non-blocking poll's outcome.
#[derive(Debug)]
pub enum SourcePoll {
    /// A frame is available now.
    Ready(GrayFrame),
    /// No frame yet, but the source is still live — poll again.
    Pending,
    /// The source is exhausted; it will never yield another frame.
    Done,
}

/// One stream's frame supply.
///
/// Implementations must be `Send`: each source moves to its owning
/// shard's thread.
pub trait FrameSource: Send {
    /// Yields the next frame if one is due at `now`. Must return
    /// without waiting: the owning shard polls it inline.
    fn poll(&mut self, now: Instant) -> SourcePoll;

    /// Consumes the source into its complete frame sequence — the
    /// clock-free total input
    /// [`FleetServer::run_reference`](crate::FleetServer::run_reference)
    /// replays. Pacing is ignored and no clock is read.
    fn drain(&mut self) -> Vec<GrayFrame>;

    /// Boxes this source as a [`BoxedSource`] for heterogeneous fleets.
    fn boxed(self) -> BoxedSource
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

impl FrameSource for BoxedSource {
    fn poll(&mut self, now: Instant) -> SourcePoll {
        (**self).poll(now)
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        (**self).drain()
    }

    fn boxed(self) -> BoxedSource {
        self
    }
}

/// Pre-rendered frames delivered one per `interval` (the first
/// immediately) — a live camera stand-in that never blocks: between due
/// times it reports [`SourcePoll::Pending`] and lets the shard serve
/// other streams.
#[derive(Debug)]
pub struct PacedSource {
    frames: VecDeque<GrayFrame>,
    interval: Duration,
    due: Option<Instant>,
}

impl PacedSource {
    /// Paces `frames` at one per `interval`. `Duration::ZERO` floods
    /// every frame at the first poll.
    pub fn new(frames: Vec<GrayFrame>, interval: Duration) -> Self {
        PacedSource {
            frames: frames.into(),
            interval,
            due: None,
        }
    }
}

impl FrameSource for PacedSource {
    fn poll(&mut self, now: Instant) -> SourcePoll {
        if self.frames.is_empty() {
            return SourcePoll::Done;
        }
        match self.due {
            Some(due) if now < due => SourcePoll::Pending,
            _ => {
                self.due = Some(now + self.interval);
                SourcePoll::Ready(self.frames.pop_front().expect("checked non-empty"))
            }
        }
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        std::mem::take(&mut self.frames).into()
    }
}

/// Frames replayed at recorded arrival offsets from the first poll —
/// the shape a trace-driven run uses to reproduce a recorded feed's
/// timing without ever blocking a shard.
#[derive(Debug)]
pub struct TimedSource {
    /// `(arrival offset, frame)`, in non-decreasing offset order.
    frames: VecDeque<(Duration, GrayFrame)>,
    started: Option<Instant>,
}

impl TimedSource {
    /// Wraps `frames` as `(arrival offset, frame)` pairs, offsets
    /// measured from the first poll. Pairs must be in non-decreasing
    /// offset order.
    pub fn new(frames: Vec<(Duration, GrayFrame)>) -> Self {
        debug_assert!(
            frames.windows(2).all(|w| w[0].0 <= w[1].0),
            "arrival offsets must be non-decreasing"
        );
        TimedSource {
            frames: frames.into(),
            started: None,
        }
    }
}

impl FrameSource for TimedSource {
    fn poll(&mut self, now: Instant) -> SourcePoll {
        let Some(&(offset, _)) = self.frames.front() else {
            return SourcePoll::Done;
        };
        let started = *self.started.get_or_insert(now);
        if now.duration_since(started) >= offset {
            let (_, frame) = self.frames.pop_front().expect("checked non-empty");
            SourcePoll::Ready(frame)
        } else {
            SourcePoll::Pending
        }
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        std::mem::take(&mut self.frames)
            .into_iter()
            .map(|(_, frame)| frame)
            .collect()
    }
}

/// Wraps pre-rendered frames as a paced source delivering one frame
/// every `interval` (the first immediately). `Duration::ZERO` floods
/// the fleet with the whole clip at once.
pub fn paced_feed(frames: Vec<GrayFrame>, interval: Duration) -> PacedSource {
    PacedSource::new(frames, interval)
}

/// Conversion into a [`FrameSource`] — the single ingestion signature
/// `run`/`run_reference` share. Implemented for raw frame vectors
/// (a zero-interval [`PacedSource`]: every frame due at once) and for
/// every source type, which converts into itself.
///
/// A custom source needs no box of its own:
///
/// ```
/// use safecross::SafeCrossConfig;
/// use safecross_serve::{FleetServer, FrameSource, ServeConfig, SourcePoll, StreamSpec};
/// use safecross_tensor::TensorRng;
/// use safecross_trafficsim::Weather;
/// use safecross_videoclass::SlowFastLite;
/// use safecross_vision::GrayFrame;
/// use std::time::Instant;
///
/// /// `left` flat frames of one shade, all due at once.
/// struct Flat {
///     shade: u8,
///     left: usize,
/// }
///
/// impl FrameSource for Flat {
///     fn poll(&mut self, _now: Instant) -> SourcePoll {
///         if self.left == 0 {
///             return SourcePoll::Done;
///         }
///         self.left -= 1;
///         SourcePoll::Ready(GrayFrame::filled(320, 240, self.shade))
///     }
///
///     fn drain(&mut self) -> Vec<GrayFrame> {
///         let frames = vec![GrayFrame::filled(320, 240, self.shade); self.left];
///         self.left = 0;
///         frames
///     }
/// }
///
/// let config = ServeConfig::builder()
///     .stream(SafeCrossConfig {
///         min_confidence: 0.0,
///         ..SafeCrossConfig::default()
///     })
///     .build()?;
/// let mut fleet = FleetServer::new(config)?;
/// let mut rng = TensorRng::seed_from(7);
/// fleet.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng))?;
/// fleet.open_stream(StreamSpec::new())?;
/// let report = fleet.run_reference(vec![Flat { shade: 90, left: 20 }])?;
/// assert_eq!(report.completed, 20);
/// # Ok::<(), safecross_serve::ServeError>(())
/// ```
pub trait IntoFrameSource {
    /// The source this value converts into.
    type Source: FrameSource + 'static;

    /// Performs the conversion.
    fn into_source(self) -> Self::Source;
}

impl IntoFrameSource for Vec<GrayFrame> {
    type Source = PacedSource;

    fn into_source(self) -> PacedSource {
        PacedSource::new(self, Duration::ZERO)
    }
}

impl<S: FrameSource + 'static> IntoFrameSource for S {
    type Source = S;

    fn into_source(self) -> S {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(v: u8) -> GrayFrame {
        GrayFrame::filled(4, 4, v)
    }

    #[test]
    fn frame_vectors_flood_in_order() {
        let mut src = vec![frame(1), frame(2)].into_source();
        let now = Instant::now();
        assert!(matches!(src.poll(now), SourcePoll::Ready(f) if f.at(0, 0) == 1));
        assert!(matches!(src.poll(now), SourcePoll::Ready(f) if f.at(0, 0) == 2));
        assert!(matches!(src.poll(now), SourcePoll::Done));
    }

    #[test]
    fn paced_source_pends_between_frames() {
        let mut src = PacedSource::new(vec![frame(1), frame(2)], Duration::from_secs(60));
        let now = Instant::now();
        assert!(matches!(src.poll(now), SourcePoll::Ready(_)));
        assert!(matches!(src.poll(now), SourcePoll::Pending));
        // A poll from far enough in the future releases the next frame.
        let later = now + Duration::from_secs(61);
        assert!(matches!(src.poll(later), SourcePoll::Ready(_)));
        assert!(matches!(src.poll(later), SourcePoll::Done));
    }

    #[test]
    fn timed_source_follows_recorded_offsets() {
        let mut src = TimedSource::new(vec![
            (Duration::ZERO, frame(1)),
            (Duration::from_secs(60), frame(2)),
        ]);
        let now = Instant::now();
        assert!(matches!(src.poll(now), SourcePoll::Ready(_)));
        assert!(matches!(src.poll(now), SourcePoll::Pending));
        assert!(matches!(
            src.poll(now + Duration::from_secs(60)),
            SourcePoll::Ready(_)
        ));
        assert!(matches!(src.poll(now), SourcePoll::Done));
    }

    #[test]
    fn drain_ignores_pacing() {
        let mut paced = PacedSource::new(vec![frame(1), frame(2)], Duration::from_secs(60));
        assert_eq!(paced.drain().len(), 2);
        let mut timed = TimedSource::new(vec![
            (Duration::ZERO, frame(3)),
            (Duration::from_secs(3600), frame(4)),
        ]);
        assert_eq!(timed.drain().len(), 2);
    }
}
