//! The shard-per-core serving contract at scale, pinned three ways:
//!
//! 1. **Shard-count bit-identity**: the shard count (1, 2, 4, 7 —
//!    including counts that don't divide the stream count and a count
//!    above it) changes executor interleaving and steal traffic, never
//!    one bit of any stream's verdict or switch sequence versus the
//!    deterministic reference executor.
//! 2. **Shed fairness under zipf load**: when a few hot streams flood
//!    the fleet, the shedding pain stays on the offenders — no healthy
//!    stream (one whose feed fits its own admission queue) sheds at
//!    all, and fleet accounting balances exactly.
//! 3. **The 10k-stream lossless soak**: ten thousand zipf-skewed
//!    synthetic streams served losslessly on a handful of shards, under
//!    a counting global allocator with the same 256 MB live-memory
//!    ceiling the chaos soak enforces. Sessions are inert state
//!    machines; 10k streams must cost 10k small structs, not 10k
//!    threads. The file holds the allocator-dependent test plus the
//!    cheap ones: the allocator counters are process-global, and the
//!    lighter tests' allocations are noise against the 256 MB bar.
//!
//! Set `SAFECROSS_SCALE_STREAMS` to shrink the soak (CI smoke uses
//! 1000; the default is the full 10 000).

use safecross::SafeCrossConfig;
use safecross_serve::{
    BoxedSource, FleetServer, FrameSource, ServeConfig, SourcePoll, StreamSpec,
};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::SlowFastLite;
use safecross_vision::GrayFrame;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    HIGH_WATER.fetch_max(live, Ordering::Relaxed);
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::dealloc`; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `System::realloc`; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Same ceiling as `tests/chaos_soak.rs`: live heap bytes for the whole
/// run, sessions and queues and models included.
const MEMORY_CEILING: usize = 256 * 1024 * 1024;

const W: usize = 64;
const H: usize = 48;

fn shared_models(seed: u64) -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(seed);
    Weather::ALL
        .iter()
        .map(|&w| (w, SlowFastLite::new(2, &mut rng)))
        .collect()
}

fn small_stream_config() -> SafeCrossConfig {
    SafeCrossConfig {
        frame_width: W,
        frame_height: H,
        segment_frames: 8,
        scene_window: 4,
        min_confidence: 0.0,
        ..SafeCrossConfig::default()
    }
}

/// 10k-soak geometry: a surveillance thumbnail stream. Per-session
/// state (the background model) and queued-frame bytes both scale with
/// frame area, and the ceiling prices the whole fleet.
const TW: usize = 32;
const TH: usize = 24;

fn tiny_stream_config() -> SafeCrossConfig {
    SafeCrossConfig {
        frame_width: TW,
        frame_height: TH,
        ..small_stream_config()
    }
}

fn fleet(config: ServeConfig, models: &[(Weather, SlowFastLite)], streams: usize) -> FleetServer {
    let mut fleet = FleetServer::new(config).expect("valid config");
    for (w, m) in models {
        fleet.register_model(*w, m.clone()).expect("models first");
    }
    for _ in 0..streams {
        fleet.open_stream(StreamSpec::new()).expect("models registered");
    }
    fleet
}

fn rendered(weather: Weather, frames: usize, seed: u64) -> Vec<GrayFrame> {
    let mut sim = Simulator::new(Scenario::new(weather, true, 0.15), seed);
    let rc = RenderConfig {
        width: W,
        height: H,
        ..RenderConfig::default()
    };
    let mut renderer = Renderer::new(rc, weather, seed);
    (0..frames)
        .map(|_| {
            sim.step(DT);
            renderer.render(&sim)
        })
        .collect()
}

/// Eight streams in mixed regimes so batches interleave weathers and
/// switch logs are non-trivial.
fn sweep_feeds() -> Vec<Vec<GrayFrame>> {
    (0..8)
        .map(|i| {
            let seed = i as u64 + 1;
            match i % 4 {
                0 => rendered(Weather::Daytime, 40, seed),
                1 => {
                    let mut f = rendered(Weather::Daytime, 20, seed);
                    f.extend(rendered(Weather::Rain, 20, 100 + seed));
                    f
                }
                2 => {
                    let mut f = rendered(Weather::Snow, 20, seed);
                    f.extend(rendered(Weather::Daytime, 20, 100 + seed));
                    f
                }
                _ => rendered(Weather::Rain, 40, seed),
            }
        })
        .collect()
}

#[test]
fn every_shard_count_is_bit_identical_to_the_reference_executor() {
    let models = shared_models(3);
    let feeds = sweep_feeds();
    let total: u64 = feeds.iter().map(|f| f.len() as u64).sum();

    let config = |shards: usize| {
        ServeConfig::builder()
            .shards(shards)
            .shedding(false)
            .batch_max(3)
            .stream(small_stream_config())
            .build()
            .expect("valid config")
    };

    let mut reference = fleet(config(1), &models, feeds.len());
    let ref_report = reference
        .run_reference(feeds.clone())
        .expect("reference runs");
    assert_eq!(ref_report.completed, total);
    let ref_handles = reference.handles();

    // 7 does not divide 8 and exceeds half of it; the mix catches both
    // uneven partitions and shards that mostly steal.
    for shards in [1, 2, 4, 7] {
        let mut sharded = fleet(config(shards), &models, feeds.len());
        let report = sharded
            .run(feeds.clone())
            .expect("sharded run succeeds");
        assert_eq!(
            report.completed, total,
            "{shards} shards: lossless mode completed every frame"
        );
        assert_eq!(report.shed, 0);
        let handles = sharded.handles();
        for (i, (r, s)) in ref_handles.iter().zip(&handles).enumerate() {
            assert_eq!(
                r.verdicts(&reference),
                s.verdicts(&sharded),
                "stream {i} verdicts diverged at {shards} shards"
            );
            assert_eq!(
                r.session(&reference).frames_seen(),
                s.session(&sharded).frames_seen(),
                "stream {i} frame count diverged at {shards} shards"
            );
            r.session(&reference).with_switch_log(|want| {
                s.session(&sharded).with_switch_log(|got| {
                    assert_eq!(want, got, "stream {i} switch log diverged at {shards} shards");
                });
            });
        }
    }
}

// ---------------------------------------------------------------------
// Synthetic sources for the scale runs: frames are generated on poll,
// never materialised up front — 10k pre-rendered feeds would hold
// hundreds of MB of pixels before the run started.
// ---------------------------------------------------------------------

struct SynthSource {
    width: usize,
    height: usize,
    remaining: usize,
    tick: u8,
}

impl SynthSource {
    fn new(width: usize, height: usize, frames: usize, phase: u8) -> Self {
        SynthSource {
            width,
            height,
            remaining: frames,
            tick: phase,
        }
    }

    fn next_frame(&mut self) -> GrayFrame {
        self.remaining -= 1;
        self.tick = self.tick.wrapping_add(1);
        // Brightness wobbles inside the daytime band so frames are not
        // byte-identical but never trip a scene switch.
        GrayFrame::filled(self.width, self.height, 96 + (self.tick % 16))
    }
}

impl FrameSource for SynthSource {
    fn poll(&mut self, _now: Instant) -> SourcePoll {
        if self.remaining == 0 {
            return SourcePoll::Done;
        }
        SourcePoll::Ready(self.next_frame())
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        let mut frames = Vec::with_capacity(self.remaining);
        while self.remaining > 0 {
            frames.push(self.next_frame());
        }
        frames
    }
}

/// Zipf-skewed per-stream frame counts: stream `i` gets `base` frames
/// plus a `1/(i+1)`-weighted share of `extra`.
fn zipf_frames(streams: usize, base: usize, extra: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=streams).map(|r| 1.0 / r as f64).sum();
    (0..streams)
        .map(|i| base + ((extra as f64 / harmonic) / (i + 1) as f64).round() as usize)
        .collect()
}

#[test]
fn shedding_pain_stays_on_the_offending_streams_under_zipf_load() {
    const STREAMS: usize = 48;
    const OFFENDERS: usize = 2;
    const QUEUE: usize = 8;
    const FLOOD: usize = 400;

    let models = shared_models(7);
    let config = ServeConfig::builder()
        .shards(2)
        .queue_capacity(QUEUE)
        .stream(small_stream_config())
        .build()
        .expect("valid config");
    assert!(config.shedding, "shedding is on by default");
    let mut fleet = fleet(config, &models, STREAMS);

    // The head of the zipf curve floods; the tail's feeds fit their own
    // admission queues, so any shed they suffered would be another
    // stream's overload landing on them.
    let feeds: Vec<BoxedSource> = (0..STREAMS)
        .map(|i| {
            let frames = if i < OFFENDERS { FLOOD } else { 2 + i % (QUEUE - 1) };
            SynthSource::new(W, H, frames, (i * 13 % 251) as u8).boxed()
        })
        .collect();
    let fed_total: u64 = (0..STREAMS)
        .map(|i| if i < OFFENDERS { FLOOD as u64 } else { (2 + i % (QUEUE - 1)) as u64 })
        .sum();
    let report = fleet.run(feeds).expect("zipf run succeeds");

    let handles = fleet.handles();
    let mean_shed_rate = report.shed as f64 / fed_total as f64;
    assert!(report.shed > 0, "the offenders must actually overflow");
    for (i, handle) in handles.iter().enumerate() {
        let stats = handle.stats(&fleet);
        if i < OFFENDERS {
            assert!(
                stats.shed_overflow > 0,
                "offender {i} flooded {FLOOD} frames into a {QUEUE}-slot queue"
            );
        } else {
            assert_eq!(stats.shed(), 0, "healthy stream {i} paid for the offenders");
            assert_eq!(
                stats.completed, stats.fed,
                "healthy stream {i} must complete everything it fed"
            );
            // The fairness bound as stated: no healthy stream's shed
            // rate may exceed the fleet mean (itself inflated by the
            // offenders) — here it is structurally zero.
            let rate = stats.shed() as f64 / stats.fed.max(1) as f64;
            assert!(
                rate <= 1.5 * mean_shed_rate,
                "healthy stream {i} shed rate {rate} vs fleet mean {mean_shed_rate}"
            );
        }
        assert_eq!(
            stats.completed + stats.shed(),
            stats.fed,
            "stream {i} accounting must balance"
        );
    }
    assert_eq!(
        report.completed + report.shed,
        fed_total,
        "fleet accounting must balance"
    );
}

fn soak_streams() -> usize {
    std::env::var("SAFECROSS_SCALE_STREAMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

#[test]
fn ten_thousand_stream_soak_is_lossless_under_the_memory_ceiling() {
    let streams = soak_streams();
    let models = shared_models(23);
    let config = ServeConfig::builder()
        .shards(4)
        .batch_max(8)
        .shedding(false)
        .stream(tiny_stream_config())
        .build()
        .expect("valid config");
    let mut fleet = fleet(config, &models, streams);

    // Zipf skew: a handful of hot cameras, a very long near-idle tail.
    let counts = zipf_frames(streams, 2, 2 * streams);
    let total: u64 = counts.iter().map(|&n| n as u64).sum();
    let feeds: Vec<BoxedSource> = counts
        .iter()
        .enumerate()
        .map(|(i, &n)| SynthSource::new(TW, TH, n, (i % 251) as u8).boxed())
        .collect();

    let report = fleet.run(feeds).expect("soak run succeeds");
    assert_eq!(
        report.completed, total,
        "lossless mode completed every one of {total} frames across {streams} streams"
    );
    assert_eq!(report.shed, 0);
    assert!(report.batches > 0, "the hot head produced real batches");

    let high_water = HIGH_WATER.load(Ordering::Relaxed);
    assert!(
        high_water < MEMORY_CEILING,
        "{streams}-stream soak high-water {high_water} bytes breached the \
         {MEMORY_CEILING}-byte ceiling"
    );

    // Spot-check per-stream accounting at the head, middle, and tail.
    let handles = fleet.handles();
    for &i in &[0, streams / 2, streams - 1] {
        let stats = handles[i].stats(&fleet);
        assert_eq!(stats.fed, counts[i] as u64, "stream {i} fed count");
        assert_eq!(stats.completed, stats.fed, "stream {i} completed everything");
        assert_eq!(stats.shed(), 0, "stream {i} shed in lossless mode");
    }
}
