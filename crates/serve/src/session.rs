//! Per-stream serving state.
//!
//! A [`StreamSession`] owns one intersection's complete SafeCross state
//! — scene detector, VP background model, segment buffer, and model
//! switcher — plus the serving bookkeeping wrapped around it: the
//! bounded admission queue, the completion reorder buffer, and the
//! priority/shedding counters. A session is an inert state machine: it
//! owns no thread and never blocks. All mutation of one session happens
//! on its owning shard's thread, so per-stream frame order (and
//! therefore verdict and switch-log bit-identity with a standalone run)
//! is structural, not locked.

use crate::config::PRIORITY_HOLD;
use crate::metrics::FleetMetrics;
use safecross::{FramePrep, SafeCross, Verdict};
use safecross_tensor::Precision;
use safecross_trafficsim::Weather;
use safecross_vision::GrayFrame;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one stream within its fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// The stream's index in fleet order (the order of
    /// [`open_stream`](crate::FleetServer::open_stream) calls).
    pub fn index(&self) -> usize {
        self.0
    }

    /// The id of the `index`-th stream opened on a fleet. Fleet
    /// accessors reject indices no `open_stream` call ever returned.
    pub fn from_index(index: usize) -> Self {
        StreamId(index)
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// Serving counters of one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames the feed offered.
    pub fed: u64,
    /// Frames accepted into the admission queue.
    pub admitted: u64,
    /// Frames dropped on admission because the queue was full
    /// (drop-oldest: the *evicted* frames are counted here).
    pub shed_overflow: u64,
    /// Frames shed at scheduling time for exceeding the age deadline.
    pub shed_stale: u64,
    /// Frames whose outcome was delivered.
    pub completed: u64,
    /// Verdicts that survived the confidence gate.
    pub verdicts: u64,
    /// Of those, verdicts that warned against turning.
    pub danger_verdicts: u64,
    /// High-water mark of the admission queue.
    pub queue_peak: u64,
}

impl StreamStats {
    /// Total frames this stream lost to load shedding.
    pub fn shed(&self) -> u64 {
        self.shed_overflow + self.shed_stale
    }

    /// Counter-wise difference against an earlier snapshot (peaks are
    /// carried over, not subtracted).
    pub(crate) fn delta(&self, earlier: &StreamStats) -> StreamStats {
        StreamStats {
            fed: self.fed - earlier.fed,
            admitted: self.admitted - earlier.admitted,
            shed_overflow: self.shed_overflow - earlier.shed_overflow,
            shed_stale: self.shed_stale - earlier.shed_stale,
            completed: self.completed - earlier.completed,
            verdicts: self.verdicts - earlier.verdicts,
            danger_verdicts: self.danger_verdicts - earlier.danger_verdicts,
            queue_peak: self.queue_peak,
        }
    }
}

/// One frame waiting in the admission queue.
pub(crate) struct PendingFrame {
    pub frame: GrayFrame,
    pub admitted: Instant,
}

/// A prepared frame parked until its classification arrives.
struct ParkedFrame {
    prep: FramePrep,
    admitted: Instant,
}

pub(crate) struct StreamSession {
    pub inner: SafeCross,
    queue: VecDeque<PendingFrame>,
    /// Sequence number the next prepared frame will get.
    prepared: u64,
    /// Sequence number of the next frame to complete, in order.
    next_complete: u64,
    /// Prepared frames awaiting completion, keyed by sequence.
    parked: BTreeMap<u64, ParkedFrame>,
    /// Raw classification results awaiting in-order delivery.
    resolved: BTreeMap<u64, Option<Verdict>>,
    /// Clips dispatched to the executor and not yet resolved.
    pub inflight: usize,
    /// The stream is high-priority until its prepared-frame counter
    /// reaches this value.
    hot_until: u64,
    /// The precision this stream's clips classify at (fixed at open
    /// time via [`crate::StreamSpec::with_precision`]). Rides on every
    /// dispatched [`crate::executor::ClipJob`] and so picks the
    /// replica it runs on: int8 and f32 streams never share one.
    pub precision: Precision,
    pub stats: StreamStats,
}

impl StreamSession {
    pub(crate) fn new(inner: SafeCross, precision: Precision) -> Self {
        StreamSession {
            inner,
            queue: VecDeque::new(),
            prepared: 0,
            next_complete: 0,
            parked: BTreeMap::new(),
            resolved: BTreeMap::new(),
            inflight: 0,
            hot_until: 0,
            precision,
            stats: StreamStats::default(),
        }
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The checkpoint this session's frames for `weather` classify
    /// under: the weather label until a continual-learning promotion
    /// rebinds the scene to an adapted challenger. Picks the replica
    /// each of the stream's clip jobs runs on.
    pub(crate) fn model_for(&self, weather: Weather) -> Arc<str> {
        self.inner
            .scene_model_name(weather)
            .unwrap_or_else(|| Arc::from(weather.label()))
    }

    /// Whether this stream is currently scheduled at high priority: a
    /// danger verdict or model switch promoted it for the next
    /// [`PRIORITY_HOLD`] frames.
    pub(crate) fn is_hot(&self) -> bool {
        self.prepared < self.hot_until
    }

    /// Accepts one frame from the feed. With shedding enabled and the
    /// queue full, the *oldest* queued frame is evicted first — a
    /// real-time feed is always better served by its freshest data.
    pub(crate) fn admit(
        &mut self,
        frame: GrayFrame,
        shedding: bool,
        capacity: usize,
        fleet: &FleetMetrics,
    ) {
        self.stats.fed += 1;
        if shedding && self.queue.len() >= capacity {
            self.queue.pop_front();
            self.stats.shed_overflow += 1;
            fleet.shed_overflow.inc();
        }
        self.queue.push_back(PendingFrame {
            frame,
            admitted: Instant::now(),
        });
        self.stats.admitted += 1;
        fleet.admitted.inc();
        self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len() as u64);
    }

    /// Pops the next frame to process, shedding any that outlived the
    /// age deadline — a stale frame is counted and dropped, never
    /// processed.
    pub(crate) fn pop_fresh(
        &mut self,
        deadline: Option<Duration>,
        shedding: bool,
        fleet: &FleetMetrics,
    ) -> Option<PendingFrame> {
        while let Some(pending) = self.queue.pop_front() {
            if shedding {
                if let Some(deadline) = deadline {
                    if pending.admitted.elapsed() > deadline {
                        self.stats.shed_stale += 1;
                        fleet.shed_stale.inc();
                        continue;
                    }
                }
            }
            return Some(pending);
        }
        None
    }

    /// Runs the pre-classification half of the frame path and assigns
    /// the frame its completion sequence number. A scene switch
    /// promotes the stream to high priority for the next
    /// [`PRIORITY_HOLD`] frames.
    pub(crate) fn prepare(&mut self, frame: &GrayFrame) -> (u64, FramePrep) {
        let seq = self.prepared;
        self.prepared += 1;
        let prep = self.inner.prepare_frame(frame);
        if prep.scene_switch.is_some() {
            self.hot_until = self.hot_until.max(seq + 1 + PRIORITY_HOLD);
        }
        (seq, prep)
    }

    /// Parks a prepared frame until its raw verdict arrives.
    pub(crate) fn park(&mut self, seq: u64, prep: FramePrep, admitted: Instant) {
        self.parked.insert(seq, ParkedFrame { prep, admitted });
    }

    /// Records the raw classification result for sequence `seq`.
    pub(crate) fn resolve(&mut self, seq: u64, raw: Option<Verdict>) {
        self.resolved.insert(seq, raw);
    }

    /// Delivers every contiguously-completed frame, in sequence order,
    /// through the session's own `complete_frame` — so verdict
    /// recording order is identical to a standalone sequential run no
    /// matter how the executor interleaved the batches. Danger verdicts
    /// promote the stream for [`PRIORITY_HOLD`] further frames. Observed
    /// admission-to-completion ages (ms) are appended to `ages`.
    pub(crate) fn deliver_ready(&mut self, fleet: &FleetMetrics, ages: &mut Vec<f64>) {
        while let Some(raw) = self.resolved.remove(&self.next_complete) {
            let parked = self
                .parked
                .remove(&self.next_complete)
                .expect("resolved frame was never parked");
            let outcome = self.inner.complete_frame(parked.prep, raw);
            if let Some(v) = outcome.verdict {
                self.stats.verdicts += 1;
                if v.is_warning() {
                    self.stats.danger_verdicts += 1;
                    self.hot_until = self.hot_until.max(self.prepared + PRIORITY_HOLD);
                }
            }
            let age_ms = parked.admitted.elapsed().as_secs_f64() * 1e3;
            ages.push(age_ms);
            fleet.frame_age_ms.observe_ms(age_ms);
            fleet.completed.inc();
            self.stats.completed += 1;
            self.next_complete += 1;
        }
    }

    /// True when no prepared frame is awaiting delivery.
    pub(crate) fn is_settled(&self) -> bool {
        self.parked.is_empty() && self.resolved.is_empty() && self.inflight == 0
    }
}
