//! Frame ingestion: one trait over every feed shape.
//!
//! Earlier revisions special-cased three kinds of input — pre-rendered
//! `Vec<GrayFrame>` clips, paced live-camera stand-ins, and
//! replay-driven feeds — behind `Vec<FrameFeed>` boxes whose `next`
//! could block. The shard loop cannot afford blocking: one stalled
//! camera must cost its own stream, never its shard. [`FrameSource`]
//! splits the contract in two:
//!
//! - [`FrameSource::poll`] is the non-blocking serving path. Sources
//!   that can answer without waiting ([`VecSource`], [`PacedSource`],
//!   [`TimedSource`]) are polled inline by the owning shard.
//! - [`FrameSource::is_blocking`] marks sources whose `poll` may wait
//!   (arbitrary iterators wrapped in [`IterSource`], e.g. chaos feeds
//!   that sleep mid-stream). The fleet runs each of those on a
//!   dedicated feeder thread so the block lands on nobody's shard.
//! - [`FrameSource::drain`] is the clock-free total input the
//!   deterministic reference mode consumes.
//!
//! [`IntoFrameSource`] lets `run`/`run_reference` accept every shape
//! through one signature: a `Vec<GrayFrame>`, a legacy [`FrameFeed`],
//! or any source type, including [`BoxedSource`] for heterogeneous
//! fleets.

use safecross_vision::GrayFrame;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A stream's legacy frame feed: any sendable iterator. Its `next` may
/// block to pace (or stall) its feed, so the fleet runs it through
/// [`IterSource`] on a dedicated feeder thread.
pub type FrameFeed = Box<dyn Iterator<Item = GrayFrame> + Send>;

/// A boxed [`FrameSource`] — the element type to use when one fleet
/// mixes source kinds (say, a stalled iterator next to flood feeds).
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
/// Implementations must be `Send`: inline sources move to their owning
/// shard's thread, blocking ones to a feeder thread.
pub trait FrameSource: Send {
    /// Yields the next frame if one is due at `now`.
    ///
    /// For non-blocking sources ([`FrameSource::is_blocking`] is
    /// `false`) this must return without waiting. Blocking sources are
    /// only ever polled from a dedicated feeder thread and may sleep.
    fn poll(&mut self, now: Instant) -> SourcePoll;

    /// Whether [`FrameSource::poll`] may block. Defaults to `false`;
    /// the fleet gives each `true` source its own feeder thread.
    fn is_blocking(&self) -> bool {
        false
    }

    /// Consumes the source into its complete frame sequence — the
    /// clock-free total input
    /// [`FleetServer::run_reference`](crate::FleetServer::run_reference)
    /// replays. Pacing is ignored; a blocking source may take real time
    /// to drain.
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

    fn is_blocking(&self) -> bool {
        (**self).is_blocking()
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        (**self).drain()
    }

    fn boxed(self) -> BoxedSource {
        self
    }
}

/// Pre-rendered frames delivered as fast as the shard will take them —
/// the flood shape `e2e-bench` and the lossless equivalence runs use.
#[derive(Debug)]
pub struct VecSource {
    frames: VecDeque<GrayFrame>,
}

impl VecSource {
    /// Wraps `frames` for immediate delivery in order.
    pub fn new(frames: Vec<GrayFrame>) -> Self {
        VecSource {
            frames: frames.into(),
        }
    }
}

impl FrameSource for VecSource {
    fn poll(&mut self, _now: Instant) -> SourcePoll {
        match self.frames.pop_front() {
            Some(frame) => SourcePoll::Ready(frame),
            None => SourcePoll::Done,
        }
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        std::mem::take(&mut self.frames).into()
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

/// An arbitrary iterator as a source. The iterator's `next` may block
/// (pacing sleeps, chaos stalls), so this source reports
/// [`FrameSource::is_blocking`] and runs on a feeder thread.
pub struct IterSource {
    iter: FrameFeed,
}

impl IterSource {
    /// Wraps any sendable frame iterator.
    pub fn new(iter: impl Iterator<Item = GrayFrame> + Send + 'static) -> Self {
        IterSource {
            iter: Box::new(iter),
        }
    }
}

impl std::fmt::Debug for IterSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("IterSource(..)")
    }
}

impl FrameSource for IterSource {
    fn poll(&mut self, _now: Instant) -> SourcePoll {
        match self.iter.next() {
            Some(frame) => SourcePoll::Ready(frame),
            None => SourcePoll::Done,
        }
    }

    fn is_blocking(&self) -> bool {
        true
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        self.iter.by_ref().collect()
    }
}

/// Wraps pre-rendered frames as a paced source delivering one frame
/// every `interval` (the first immediately). `Duration::ZERO` floods
/// the fleet with the whole clip at once.
pub fn paced_feed(frames: Vec<GrayFrame>, interval: Duration) -> PacedSource {
    PacedSource::new(frames, interval)
}

/// Conversion into a [`FrameSource`] — the single ingestion signature
/// `run`/`run_reference` share. Implemented for raw frame vectors,
/// legacy [`FrameFeed`] iterators, and every source type (identity).
pub trait IntoFrameSource {
    /// The source this value converts into.
    type Source: FrameSource + 'static;

    /// Performs the conversion.
    fn into_source(self) -> Self::Source;
}

impl IntoFrameSource for Vec<GrayFrame> {
    type Source = VecSource;

    fn into_source(self) -> VecSource {
        VecSource::new(self)
    }
}

impl IntoFrameSource for FrameFeed {
    type Source = IterSource;

    fn into_source(self) -> IterSource {
        IterSource { iter: self }
    }
}

macro_rules! identity_into_source {
    ($($ty:ty),* $(,)?) => {$(
        impl IntoFrameSource for $ty {
            type Source = $ty;

            fn into_source(self) -> $ty {
                self
            }
        }
    )*};
}

identity_into_source!(VecSource, PacedSource, TimedSource, IterSource, BoxedSource);

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(v: u8) -> GrayFrame {
        GrayFrame::filled(4, 4, v)
    }

    #[test]
    fn vec_source_floods_in_order() {
        let mut src = VecSource::new(vec![frame(1), frame(2)]);
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
        let feed: FrameFeed = Box::new(vec![frame(3)].into_iter());
        let mut iter = feed.into_source();
        assert!(iter.is_blocking());
        assert_eq!(iter.drain().len(), 1);
    }
}
