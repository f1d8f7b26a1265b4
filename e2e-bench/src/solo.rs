//! `solo_closed`: one camera, one client, `process_frame` back to back.
//!
//! The untraced pass calls [`SafeCross::process_frame`] and times the
//! call from outside. The traced pass drives the same frames through
//! the split path — `prepare_frame` → `classify_with_model` →
//! `complete_frame`, against replicas loaded through the session's
//! store exactly as `register_model` loads its own — with telemetry on,
//! timing each call, so the three parts can be held against the wall
//! clock. Both paths must produce bit-identical verdicts.

use crate::gen::{FramePool, CLIP_FRAMES};
use crate::stats;
use crate::trace::{GemmTotals, Span, SpanLog, NONE};
use crate::Ctx;
use safecross::{classify_with_model, SafeCross, SafeCrossConfig, Snapshot, Verdict};
use safecross_tensor::KernelScratch;
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames processed before timing starts: fills the 32-frame segment
/// buffer and warms the scratch arena.
pub const WARMUP_FRAMES: usize = 64;
/// Frames per slice: one whole loop of the clip, so every slice does
/// the same work and they differ only by what the host did meanwhile.
/// Each slice yields a throughput and a mean latency; the run reports
/// the quiet quartile of each.
const SLICE_FRAMES: usize = CLIP_FRAMES;
/// Frames the untraced run re-drives through the split path to check
/// its verdicts.
const CHECK_FRAMES: usize = 512;

/// What one pass over the camera produced.
pub struct SoloPass {
    /// Measured frames.
    pub frames: u64,
    /// Wall time of the measured loop, s.
    pub wall_s: f64,
    /// Per slice: frames/s, and the mean per-frame latency, ms.
    pub slice_fps: Vec<f64>,
    pub slice_mean_ms: Vec<f64>,
    /// Per-frame latency over the whole loop, ms, ascending.
    pub latency_ms: Vec<f64>,
    /// Every verdict since frame 0 (warm-up included).
    pub verdicts: Vec<Verdict>,
    /// Only the traced pass fills this.
    pub parts: Option<Parts>,
}

/// The traced pass's per-call timings and the session's own telemetry.
pub struct Parts {
    /// `prepare_frame` per frame, ms, ascending.
    pub prepare_ms: Vec<f64>,
    /// `classify_with_model` per classified frame, ms, ascending.
    pub classify_ms: Vec<f64>,
    /// Total ms inside `complete_frame`.
    pub complete_ms_sum: f64,
    /// Model swaps during the measured loop, and the bytes they moved.
    pub switches: u64,
    pub activate_bytes: u64,
    /// `(calls, flops, busy ms)` of the f32 GEMMs in the measured loop.
    pub gemm: (u64, u64, f64),
    /// The session's registry at the end of the loop.
    pub snapshot: Snapshot,
    pub spans: SpanLog,
}

fn config(telemetry: bool) -> SafeCrossConfig {
    SafeCrossConfig {
        telemetry,
        ..SafeCrossConfig::default()
    }
}

/// A session that classifies locally, as a standalone deployment does.
fn local_session(ctx: &Ctx) -> SafeCross {
    let mut session = SafeCross::try_new(config(false)).expect("default configuration is valid");
    for (weather, model) in &ctx.models {
        session.register_model(*weather, model.clone());
    }
    session
}

/// Median time to bring a standalone session up, s.
pub fn setup_s(ctx: &Ctx) -> f64 {
    stats::median_of_repeats(|| {
        let start = Instant::now();
        black_box(local_session(ctx));
        start.elapsed().as_secs_f64()
    })
}

/// Cuts a closed loop into [`SLICE_FRAMES`]-frame slices as it runs.
struct Slices {
    start: Instant,
    /// Seconds each finished slice took.
    seconds: Vec<f64>,
}

impl Slices {
    fn new(now: Instant) -> Self {
        Slices {
            start: now,
            seconds: Vec::new(),
        }
    }

    /// Call when the loop has completed `frames` frames.
    fn frame_done(&mut self, now: Instant, frames: usize) {
        if frames.is_multiple_of(SLICE_FRAMES) {
            self.seconds.push((now - self.start).as_secs_f64());
            self.start = now;
        }
    }
}

fn finish(
    wall_s: f64,
    slices: Slices,
    mut latency_ms: Vec<f64>,
    verdicts: Vec<Verdict>,
    parts: Option<Parts>,
) -> SoloPass {
    // Frames past the last whole slice count as delivered but set no
    // figure; a run too short for one whole slice is one slice.
    let (slice_fps, slice_mean_ms) = if slices.seconds.is_empty() {
        (
            vec![latency_ms.len() as f64 / wall_s],
            vec![stats::mean(&latency_ms)],
        )
    } else {
        (
            slices
                .seconds
                .iter()
                .map(|s| SLICE_FRAMES as f64 / s)
                .collect(),
            latency_ms
                .chunks_exact(SLICE_FRAMES)
                .map(stats::mean)
                .collect(),
        )
    };
    let frames = latency_ms.len() as u64;
    stats::sort(&mut latency_ms);
    SoloPass {
        frames,
        wall_s,
        slice_fps,
        slice_mean_ms,
        latency_ms,
        verdicts,
        parts,
    }
}

impl SoloPass {
    /// Throughput of the quiet-quartile slice, frames/s.
    pub fn frames_per_s(&self) -> f64 {
        stats::quiet_quartile(&self.slice_fps, true)
    }
}

/// The untraced closed loop: `process_frame` for `seconds`.
pub fn run_untraced(ctx: &Ctx, seconds: f64) -> SoloPass {
    let mut session = local_session(ctx);
    for k in 0..WARMUP_FRAMES {
        session.process_frame(ctx.pool.frame(0, k));
    }
    let budget = Duration::from_secs_f64(seconds);
    let mut latency_ms = Vec::with_capacity((seconds * 4000.0) as usize);
    let start = Instant::now();
    let mut slices = Slices::new(start);
    let mut k = WARMUP_FRAMES;
    loop {
        let t0 = Instant::now();
        if t0 - start >= budget {
            break;
        }
        black_box(session.process_frame(black_box(ctx.pool.frame(0, k))));
        let t1 = Instant::now();
        latency_ms.push((t1 - t0).as_secs_f64() * 1e3);
        slices.frame_done(t1, latency_ms.len());
        k += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    finish(
        wall_s,
        slices,
        latency_ms,
        session.verdicts().to_vec(),
        None,
    )
}

/// The split path's state: a session that only registers scenes, and
/// the replicas the benchmark classifies with on its behalf.
struct SplitSession {
    session: SafeCross,
    replicas: HashMap<Weather, SlowFastLite>,
    scratch: KernelScratch,
}

impl SplitSession {
    fn new(ctx: &Ctx, telemetry: bool) -> Self {
        let mut session =
            SafeCross::try_new(config(telemetry)).expect("default configuration is valid");
        let mut replicas = HashMap::new();
        for (weather, model) in &ctx.models {
            session.register_scene(*weather, model);
            let state = session
                .model_store()
                .state_dict(weather.label())
                .expect("register_scene stored the checkpoint");
            let mut replica = model.clone();
            replica.load_state_dict(&state);
            replica.instrument(session.telemetry());
            replicas.insert(*weather, replica);
        }
        SplitSession {
            session,
            replicas,
            scratch: KernelScratch::new(),
        }
    }

    /// One frame through the three calls, returning the instants
    /// between them and whether a clip was classified.
    fn frame(&mut self, pool: &FramePool, k: usize) -> ([Instant; 4], bool) {
        let t0 = Instant::now();
        let prep = self.session.prepare_frame(black_box(pool.frame(0, k)));
        let t1 = Instant::now();
        let raw = match (&prep.clip, prep.effective) {
            (Some(clip), Some(weather)) => {
                let model = self
                    .replicas
                    .get_mut(&weather)
                    .expect("every scene has a replica");
                Some(classify_with_model(model, clip, weather, &mut self.scratch))
            }
            _ => None,
        };
        let t2 = Instant::now();
        black_box(self.session.complete_frame(prep, raw));
        let t3 = Instant::now();
        ([t0, t1, t2, t3], raw.is_some())
    }
}

/// Verdicts of the split path over frames `0..frames`, untimed.
pub fn split_verdicts(ctx: &Ctx, frames: usize) -> Vec<Verdict> {
    let mut split = SplitSession::new(ctx, false);
    for k in 0..frames {
        split.frame(&ctx.pool, k);
    }
    split.session.verdicts().to_vec()
}

/// How many frames [`split_verdicts`] should re-drive to check a run
/// that measured `measured` frames.
pub fn check_frames(measured: u64) -> usize {
    CHECK_FRAMES.min(WARMUP_FRAMES + measured as usize)
}

/// The traced closed loop: the split path, telemetry on, every call
/// timed and recorded as a span.
pub fn run_traced(ctx: &Ctx, seconds: f64) -> SoloPass {
    let mut split = SplitSession::new(ctx, true);
    for k in 0..WARMUP_FRAMES {
        split.frame(&ctx.pool, k);
    }
    let capacity = (seconds * 4000.0) as usize;
    let mut latency_ms = Vec::with_capacity(capacity);
    let mut prepare_ms = Vec::with_capacity(capacity);
    let mut classify_ms = Vec::with_capacity(capacity);
    let mut complete_ms_sum = 0.0;
    let mut spans = SpanLog::with_capacity(4 * capacity);
    let switches_before = split.session.switch_count();
    let activated = split.session.telemetry().counter("switch.activate.bytes");
    let activated_before = activated.get();
    let gemm = Arc::new(GemmTotals::default());
    let _observer = GemmTotals::observe(&gemm);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut slices = Slices::new(start);
    let mut k = WARMUP_FRAMES;
    while start.elapsed() < budget {
        let ([t0, t1, t2, t3], classified) = split.frame(&ctx.pool, k);
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        latency_ms.push(ms(t0, t3));
        prepare_ms.push(ms(t0, t1));
        if classified {
            classify_ms.push(ms(t1, t2));
        }
        complete_ms_sum += ms(t2, t3);
        let ns = |t: Instant| (t - start).as_nanos() as u64;
        let request = (0, k as u64);
        let span = |name, a, b, parent| Span {
            name,
            start_ns: ns(a),
            end_ns: ns(b),
            parent,
            request,
        };
        let frame = spans.push(span("safecross.frame", t0, t3, NONE));
        spans.push(span("safecross.prepare", t0, t1, frame));
        if classified {
            spans.push(span("videoclass.classify", t1, t2, frame));
        }
        spans.push(span("safecross.complete", t2, t3, frame));
        slices.frame_done(t3, latency_ms.len());
        k += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    stats::sort(&mut prepare_ms);
    stats::sort(&mut classify_ms);
    let parts = Parts {
        prepare_ms,
        classify_ms,
        complete_ms_sum,
        switches: (split.session.switch_count() - switches_before) as u64,
        activate_bytes: activated.get() - activated_before,
        gemm: gemm.read(),
        snapshot: split.session.telemetry().snapshot(),
        spans,
    };
    finish(
        wall_s,
        slices,
        latency_ms,
        split.session.verdicts().to_vec(),
        Some(parts),
    )
}

/// Compares two verdict sequences bit for bit over their common
/// prefix, which must be non-empty.
pub fn same_verdicts(what: &str, a: &[Verdict], b: &[Verdict]) -> Result<(), String> {
    let n = a.len().min(b.len());
    if n == 0 {
        return Err(format!(
            "{what}: no verdicts to compare ({} vs {})",
            a.len(),
            b.len()
        ));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let same = x.class == y.class
            && x.weather == y.weather
            && x.confidence.to_bits() == y.confidence.to_bits();
        if !same {
            return Err(format!("{what}: verdict {i} differs: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}
