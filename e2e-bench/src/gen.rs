//! The load generator: everything the program receives is made here,
//! from the seed, before or outside the timed region.
//!
//! Camera footage is rendered by `trafficsim` into a shared pool of
//! [`POOL_CLIPS`] clips × [`CLIP_FRAMES`] frames; each clip is
//! [`WEATHER_RUN`] daytime frames followed by as many rain (even clips)
//! or snow (odd clips) frames, so a stream looping its clip crosses a
//! weather boundary every [`WEATHER_RUN`] frames and forces scene votes
//! and model switches. Stream `i` plays clip `i mod 4` from offset
//! `37·i mod 256`, so no two of the first 16 streams are in phase.
//!
//! Frames reach the program through [`PoolSource`] / [`SynthSource`],
//! the benchmark's own non-blocking [`FrameSource`]s: the shard threads
//! poll them inline, so the generator costs no thread of its own and
//! cannot lag behind for lack of a core. Paced sources record how late
//! each frame was polled after it fell due ([`LagSink`]) — the wait
//! that `FleetReport::frame_age`, which starts at admission, omits.

use safecross_serve::{FrameSource, SourcePoll};
use safecross_tensor::ContentHasher;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_vision::GrayFrame;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Clips in the shared frame pool.
pub const POOL_CLIPS: usize = 4;
/// Frames per pool clip.
pub const CLIP_FRAMES: usize = 256;
/// Frames of one weather before the clip changes scene.
pub const WEATHER_RUN: usize = 128;

/// The golden ratio's fractional part: successive multiples spread
/// phases evenly over `[0, 1)` whatever the stream count.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// SplitMix64 — derives independent sub-seeds from the workload seed.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The pre-rendered camera footage every 320×240 workload draws from.
pub struct FramePool {
    clips: Vec<Vec<GrayFrame>>,
}

impl FramePool {
    /// Renders the pool for `seed`, two clips per thread (the
    /// generator's cost, reported outside every metric).
    pub fn render(seed: u64) -> Self {
        let mut clips: Vec<Vec<GrayFrame>> = Vec::with_capacity(POOL_CLIPS);
        std::thread::scope(|s| {
            let halves: Vec<_> = (0..2)
                .map(|half| {
                    s.spawn(move || {
                        (0..POOL_CLIPS / 2)
                            .map(|j| render_clip(seed, half * (POOL_CLIPS / 2) + j))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for half in halves {
                clips.extend(half.join().expect("render thread panicked"));
            }
        });
        FramePool { clips }
    }

    /// No footage, for the workload that synthesises its frames.
    pub fn empty() -> Self {
        FramePool { clips: Vec::new() }
    }

    /// Frame `k` of stream `stream`'s endless loop over its clip.
    pub fn frame(&self, stream: usize, k: usize) -> &GrayFrame {
        let clip = &self.clips[stream % POOL_CLIPS];
        &clip[(37 * stream + k) % CLIP_FRAMES]
    }

    /// FNV-1a over every pixel of every clip, in order.
    pub fn hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        for frame in self.clips.iter().flatten() {
            h.update(frame.pixels());
        }
        h.finish()
    }
}

fn render_clip(seed: u64, clip: usize) -> Vec<GrayFrame> {
    let second = if clip.is_multiple_of(2) {
        Weather::Rain
    } else {
        Weather::Snow
    };
    let mut frames = Vec::with_capacity(CLIP_FRAMES);
    for (part, weather) in [Weather::Daytime, second].into_iter().enumerate() {
        let sub = splitmix(seed ^ splitmix((clip * 2 + part) as u64));
        let mut sim = Simulator::new(Scenario::new(weather, true, 0.2), sub);
        let mut renderer = Renderer::new(RenderConfig::default(), weather, sub);
        for _ in 0..WEATHER_RUN {
            sim.step(1.0 / 30.0);
            frames.push(renderer.render(&sim));
        }
    }
    frames
}

/// Where paced sources deposit their per-frame ingest lag (poll time
/// minus due time, ms) when they run dry.
pub type LagSink = Arc<Mutex<Vec<f32>>>;

/// When a source's frames fall due. Frame `j` of the run is due at
/// `start + phase + j·period`; a zero period means every frame is due
/// at once (a flood).
#[derive(Clone)]
pub struct Pacing {
    /// The run's common time origin.
    pub start: Instant,
    /// This stream's stagger.
    pub phase: Duration,
    /// Gap between frames.
    pub period: Duration,
    /// Where to report ingest lag; floods have none.
    pub lag: Option<LagSink>,
}

impl Pacing {
    /// Every frame due immediately.
    pub fn flood() -> Self {
        Pacing {
            start: Instant::now(),
            phase: Duration::ZERO,
            period: Duration::ZERO,
            lag: None,
        }
    }
}

/// A schedule's answer to one poll.
enum Next {
    /// Frame number `.0` of the run is due.
    Frame(usize),
    Pending,
    Done,
}

/// The pacing state shared by both source kinds.
struct Schedule {
    pacing: Pacing,
    sent: usize,
    count: usize,
    lags: Vec<f32>,
}

impl Schedule {
    fn new(pacing: Pacing, count: usize) -> Self {
        let lags = if pacing.lag.is_some() {
            Vec::with_capacity(count)
        } else {
            Vec::new()
        };
        Schedule {
            pacing,
            sent: 0,
            count,
            lags,
        }
    }

    /// What the source should answer a poll at `now` with.
    fn next(&mut self, now: Instant) -> Next {
        if self.sent == self.count {
            if let Some(sink) = self.pacing.lag.take() {
                sink.lock()
                    .expect("lag sink poisoned")
                    .extend_from_slice(&self.lags);
            }
            return Next::Done;
        }
        if !self.pacing.period.is_zero() {
            let due = self.pacing.start + self.pacing.phase + self.pacing.period * self.sent as u32;
            if now < due {
                return Next::Pending;
            }
            if self.pacing.lag.is_some() {
                self.lags.push((now - due).as_secs_f32() * 1e3);
            }
        }
        self.sent += 1;
        Next::Frame(self.sent - 1)
    }
}

/// Plays frames `first .. first + count` of one stream's pool loop.
pub struct PoolSource {
    pool: Arc<FramePool>,
    stream: usize,
    first: usize,
    schedule: Schedule,
}

impl PoolSource {
    /// A source for `stream` starting at loop position `first`.
    pub fn new(
        pool: Arc<FramePool>,
        stream: usize,
        first: usize,
        count: usize,
        pacing: Pacing,
    ) -> Self {
        PoolSource {
            pool,
            stream,
            first,
            schedule: Schedule::new(pacing, count),
        }
    }
}

impl FrameSource for PoolSource {
    fn poll(&mut self, now: Instant) -> SourcePoll {
        match self.schedule.next(now) {
            Next::Frame(j) => {
                SourcePoll::Ready(self.pool.frame(self.stream, self.first + j).clone())
            }
            Next::Pending => SourcePoll::Pending,
            Next::Done => SourcePoll::Done,
        }
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        let rest = self.schedule.sent..self.schedule.count;
        self.schedule.sent = self.schedule.count;
        rest.map(|j| self.pool.frame(self.stream, self.first + j).clone())
            .collect()
    }
}

/// Synthesises small flat frames on the fly, for the 2 000-stream
/// workload where pre-rendered footage would not fit in memory.
/// Brightness stays in the daytime band and wobbles so consecutive
/// frames differ.
pub struct SynthSource {
    width: usize,
    height: usize,
    tick: u8,
    schedule: Schedule,
}

impl SynthSource {
    /// A source of `count` frames whose brightness cycle starts at `tick`.
    pub fn new(width: usize, height: usize, tick: u8, count: usize, pacing: Pacing) -> Self {
        SynthSource {
            width,
            height,
            tick,
            schedule: Schedule::new(pacing, count),
        }
    }

    fn make(&mut self) -> GrayFrame {
        self.tick = self.tick.wrapping_add(1);
        GrayFrame::filled(self.width, self.height, 96 + self.tick % 16)
    }
}

impl FrameSource for SynthSource {
    fn poll(&mut self, now: Instant) -> SourcePoll {
        match self.schedule.next(now) {
            Next::Frame(_) => SourcePoll::Ready(self.make()),
            Next::Pending => SourcePoll::Pending,
            Next::Done => SourcePoll::Done,
        }
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        let rest = self.schedule.count - self.schedule.sent;
        self.schedule.sent = self.schedule.count;
        (0..rest).map(|_| self.make()).collect()
    }
}

/// Stream `i`'s phase as a fraction of its period: a golden-ratio
/// stagger rotated by the seed.
pub fn phase_fraction(seed: u64, stream: usize) -> f64 {
    let base = (splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64;
    (base + GOLDEN * stream as f64).fract()
}

/// Per-stream offered rates (frames/s) of the zipf workload: stream `i`
/// is offered `max(floor, c/(i+1))` with `c` chosen so the rates sum to
/// `total`.
pub fn zipf_rates(streams: usize, total: f64, floor: f64) -> Vec<f64> {
    assert!(
        floor * streams as f64 <= total,
        "the floor alone exceeds the offered total"
    );
    let sum = |c: f64| -> f64 { (0..streams).map(|i| (c / (i + 1) as f64).max(floor)).sum() };
    let (mut lo, mut hi) = (0.0, total);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if sum(mid) < total {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0..streams)
        .map(|i| (hi / (i + 1) as f64).max(floor))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let a = FramePool::render(7);
        let b = FramePool::render(7);
        let c = FramePool::render(8);
        assert_eq!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
        assert_eq!(a.clips.len(), POOL_CLIPS);
        assert!(a.clips.iter().all(|clip| clip.len() == CLIP_FRAMES));
    }

    #[test]
    fn streams_loop_their_clip_from_their_offset() {
        let pool = FramePool::render(3);
        assert_eq!(pool.frame(5, 0), &pool.clips[1][185]);
        assert_eq!(pool.frame(5, CLIP_FRAMES), pool.frame(5, 0));
        assert_eq!(pool.frame(0, 300), &pool.clips[0][44]);
    }

    #[test]
    fn phases_repeat_per_seed_and_spread() {
        let a: Vec<f64> = (0..16).map(|i| phase_fraction(11, i)).collect();
        let b: Vec<f64> = (0..16).map(|i| phase_fraction(11, i)).collect();
        assert_eq!(a, b);
        assert_ne!(phase_fraction(11, 0), phase_fraction(12, 0));
        let mut sorted = a.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(sorted.iter().all(|p| (0.0..1.0).contains(p)));
        // Golden-ratio stagger: no two of 16 phases closer than 1/48.
        assert!(sorted.windows(2).all(|w| w[1] - w[0] > 1.0 / 48.0));
    }

    #[test]
    fn zipf_rates_sum_to_the_offered_total() {
        let rates = zipf_rates(2000, 16_000.0, 0.5);
        let sum: f64 = rates.iter().sum();
        assert!((sum - 16_000.0).abs() < 1e-6, "sum {sum}");
        assert!(rates.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(rates, zipf_rates(2000, 16_000.0, 0.5));
        // A binding floor still sums to the total.
        let floored = zipf_rates(100, 200.0, 1.5);
        assert!((floored.iter().sum::<f64>() - 200.0).abs() < 1e-6);
        assert!(floored.iter().all(|&r| r >= 1.5));
        assert!(floored.iter().filter(|&&r| r == 1.5).count() > 10);
    }

    #[test]
    fn paced_source_releases_on_schedule_and_reports_lag() {
        let pool = Arc::new(FramePool {
            clips: vec![vec![GrayFrame::filled(4, 4, 1); CLIP_FRAMES]; POOL_CLIPS],
        });
        let sink: LagSink = Arc::default();
        let start = Instant::now();
        let pacing = Pacing {
            start,
            phase: Duration::from_millis(5),
            period: Duration::from_millis(10),
            lag: Some(Arc::clone(&sink)),
        };
        let mut src = PoolSource::new(pool, 0, 0, 2, pacing);
        assert!(matches!(src.poll(start), SourcePoll::Pending));
        assert!(matches!(
            src.poll(start + Duration::from_millis(7)),
            SourcePoll::Ready(_)
        ));
        assert!(matches!(
            src.poll(start + Duration::from_millis(7)),
            SourcePoll::Pending
        ));
        assert!(matches!(
            src.poll(start + Duration::from_millis(15)),
            SourcePoll::Ready(_)
        ));
        assert!(matches!(
            src.poll(start + Duration::from_millis(15)),
            SourcePoll::Done
        ));
        let lags = sink.lock().unwrap().clone();
        assert_eq!(lags.len(), 2);
        assert!((lags[0] - 2.0).abs() < 1e-3 && lags[1].abs() < 1e-3);
    }

    #[test]
    fn drain_yields_exactly_the_unsent_frames() {
        let pool = Arc::new(FramePool::render(1));
        let mut src = PoolSource::new(Arc::clone(&pool), 2, 10, 5, Pacing::flood());
        assert!(
            matches!(src.poll(Instant::now()), SourcePoll::Ready(f) if &f == pool.frame(2, 10))
        );
        let rest = src.drain();
        assert_eq!(rest.len(), 4);
        assert_eq!(&rest[3], pool.frame(2, 14));
        let mut synth = SynthSource::new(8, 6, 250, 3, Pacing::flood());
        assert_eq!(synth.drain().len(), 3);
        assert!(matches!(synth.poll(Instant::now()), SourcePoll::Done));
    }
}
