//! The four fleet workloads: one `FleetServer` (2 shards, batches of up
//! to 8, queues of 32), fed by the benchmark's own sources in slices —
//! one `run()` per slice — so every timed metric is the quiet quartile
//! of many like slices rather than one long sample.

use crate::gen::{phase_fraction, splitmix, zipf_rates, LagSink, Pacing, PoolSource, SynthSource};
use crate::solo::same_verdicts;
use crate::stats;
use crate::trace::{FleetTracer, GemmTotals, SpanLog};
use crate::Ctx;
use safecross::{SafeCrossConfig, Verdict};
use safecross_serve::{
    BoxedSource, FleetReport, FleetServer, FrameSource, Precision, ServeConfig, StreamHandle,
    StreamSpec,
};
use safecross_vision::GrayFrame;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard threads; with the waiting main thread this fills the 2-core
/// host the bounds were measured on.
pub const SHARDS: usize = 2;
const BATCH_MAX: usize = 8;
const QUEUE_CAPACITY: usize = 32;
/// Length of one open-loop slice, s. On `zipf_overload` every slice
/// starts with empty queues and ends by draining its backlog, so its
/// delivered share sits a constant step above the steady state's.
const PACED_SLICE_S: f64 = 1.0;
const ZIPF_SLICE_S: f64 = 2.0;
/// Age past which a shedding fleet drops a queued frame instead of
/// processing it.
const FRAME_DEADLINE: Duration = Duration::from_millis(500);
/// Streams offered at most this are "healthy": a 30 Hz camera that
/// never overruns its own queue.
const HEALTHY_HZ: f64 = 30.0;
/// Frames per stream replayed through `run_reference` to check
/// verdicts: the first 160 cross a weather boundary on every stream.
const REFERENCE_FRAMES: usize = 160;
/// Sessions whose own telemetry the traced pass turns on. Every
/// telemetry session registers a GEMM observer that every GEMM then
/// calls, so 2 000 of them would measure the observers.
const TRACED_SESSIONS: usize = 16;

/// How frames are offered.
#[derive(Clone, Copy)]
pub enum Load {
    /// Back-to-back lossless floods of `chunk` pool frames per stream,
    /// all due at once, until the time is up.
    Flood { chunk: usize },
    /// Pool footage at `hz` per stream, golden-ratio staggered.
    Paced { hz: f64 },
    /// Synthetic frames, stream `i` offered ∝ 1/(i+1) above a floor,
    /// `total` frames/s over the fleet.
    Zipf { total: f64, floor: f64 },
}

/// One fleet workload.
#[derive(Clone, Copy)]
pub struct Shape {
    pub streams: usize,
    pub stream: SafeCrossConfig,
    pub precision: Precision,
    pub shedding: bool,
    pub load: Load,
}

impl Shape {
    pub fn named(workload: &str) -> Option<Shape> {
        let camera = SafeCrossConfig::default();
        let flood = Shape {
            streams: 16,
            stream: camera,
            precision: Precision::F32,
            shedding: false,
            load: Load::Flood { chunk: 64 },
        };
        Some(match workload {
            "fleet_paced" => Shape {
                streams: 8,
                shedding: true,
                load: Load::Paced { hz: 30.0 },
                ..flood
            },
            "fleet_flood" => flood,
            "fleet_flood_int8" => Shape {
                precision: Precision::Int8,
                ..flood
            },
            "zipf_overload" => Shape {
                streams: 2000,
                stream: SafeCrossConfig {
                    frame_width: 64,
                    frame_height: 48,
                    segment_frames: 8,
                    scene_window: 4,
                    ..camera
                },
                precision: Precision::F32,
                shedding: true,
                load: Load::Zipf {
                    total: 16_000.0,
                    floor: 0.5,
                },
            },
            _ => return None,
        })
    }

    /// Whether every frame must be delivered (no shedding expected).
    fn lossless(&self) -> bool {
        !matches!(self.load, Load::Zipf { .. })
    }

    /// Per-stream offered rate, frames/s (floods: as fast as taken).
    fn rates(&self) -> Vec<f64> {
        match self.load {
            Load::Flood { .. } => vec![0.0; self.streams],
            Load::Paced { hz } => vec![hz; self.streams],
            Load::Zipf { total, floor } => zipf_rates(self.streams, total, floor),
        }
    }

    fn serve_config(&self, traced: bool) -> ServeConfig {
        ServeConfig::builder()
            .shards(SHARDS)
            .batch_max(BATCH_MAX)
            .queue_capacity(QUEUE_CAPACITY)
            .shedding(self.shedding)
            .frame_deadline(self.shedding.then_some(FRAME_DEADLINE))
            .stream(self.stream)
            .telemetry(traced)
            .build()
            .expect("benchmark serve configuration is valid")
    }

    /// Every `n`-th stream runs its own telemetry in the traced pass.
    fn traced_every(&self) -> usize {
        (self.streams / TRACED_SESSIONS).max(1)
    }
}

/// A fleet with its streams open, and what opening them cost.
struct Built {
    fleet: FleetServer,
    handles: Vec<StreamHandle>,
    setup_s: f64,
    open_stream_us: f64,
}

fn build(ctx: &Ctx, shape: &Shape, streams: std::ops::Range<usize>, traced: bool) -> Built {
    let start = Instant::now();
    let mut fleet = FleetServer::new(shape.serve_config(traced)).expect("validated configuration");
    for (weather, model) in &ctx.models {
        fleet
            .register_model(*weather, model.clone())
            .expect("models are registered before streams");
    }
    let opening = Instant::now();
    let handles: Vec<StreamHandle> = streams
        .clone()
        .map(|i| {
            let spec = if traced && i % shape.traced_every() == 0 {
                StreamSpec::with_config(SafeCrossConfig {
                    telemetry: true,
                    ..shape.stream
                })
            } else {
                StreamSpec::new()
            };
            fleet
                .open_stream(spec.with_precision(shape.precision))
                .expect("models are registered")
        })
        .collect();
    Built {
        open_stream_us: opening.elapsed().as_secs_f64() * 1e6 / streams.len().max(1) as f64,
        setup_s: start.elapsed().as_secs_f64(),
        fleet,
        handles,
    }
}

/// Median time to bring the fleet up, s.
pub fn setup_s(ctx: &Ctx, shape: &Shape) -> f64 {
    stats::median_of_repeats(|| build(ctx, shape, 0..shape.streams, false).setup_s)
}

/// What one `run()` is fed.
#[derive(Clone, Copy)]
enum Slice {
    /// This many frames per stream, all due at once.
    Flood(usize),
    /// `seconds` of every stream's schedule at `speed`× its offered rate.
    Paced { seconds: f64, speed: f64 },
}

/// Hands out each slice's sources, remembering where every stream's
/// footage left off so the fleet sees one continuous feed per stream.
struct Feeder<'a> {
    ctx: &'a Ctx,
    shape: &'a Shape,
    rates: Vec<f64>,
    next: Vec<usize>,
    lag: LagSink,
}

impl<'a> Feeder<'a> {
    fn new(ctx: &'a Ctx, shape: &'a Shape) -> Self {
        Feeder {
            ctx,
            shape,
            rates: shape.rates(),
            next: vec![0; shape.streams],
            lag: LagSink::default(),
        }
    }

    /// Sources for one slice, continuing every stream's feed.
    fn slice(&mut self, slice: Slice) -> Vec<BoxedSource> {
        // Sources are built first; the common origin sits a little
        // ahead so building 2 000 of them makes none of them late.
        let origin = Instant::now() + Duration::from_millis(5);
        (0..self.shape.streams)
            .map(|i| {
                let (count, pacing) = match slice {
                    Slice::Flood(frames) => (frames, Pacing::flood()),
                    Slice::Paced { seconds, speed } => {
                        let rate = self.rates[i] * speed;
                        let period = Duration::from_secs_f64(1.0 / rate);
                        let pacing = Pacing {
                            start: origin,
                            phase: period.mul_f64(phase_fraction(self.ctx.seed, i)),
                            period,
                            lag: Some(Arc::clone(&self.lag)),
                        };
                        ((seconds * rate).round() as usize, pacing)
                    }
                };
                let first = self.next[i];
                self.next[i] += count;
                match self.shape.load {
                    Load::Zipf { .. } => {
                        let tick = ((splitmix(self.ctx.seed) % 251) as usize + i + first) % 251;
                        SynthSource::new(
                            self.shape.stream.frame_width,
                            self.shape.stream.frame_height,
                            tick as u8,
                            count,
                            pacing,
                        )
                        .boxed()
                    }
                    _ => {
                        PoolSource::new(Arc::clone(&self.ctx.pool), i, first, count, pacing).boxed()
                    }
                }
            })
            .collect()
    }

    /// One short unmeasured run's worth: fills segment buffers and
    /// scratch arenas without shedding anything on a lossless shape.
    fn warmup(&mut self) -> Vec<BoxedSource> {
        match self.shape.load {
            Load::Flood { chunk } => self.slice(Slice::Flood(chunk)),
            // 40 frames per stream at twice the camera rate: enough to
            // fill the 32-frame segment buffer, still under capacity.
            Load::Paced { hz } => self.slice(Slice::Paced {
                seconds: 40.0 / (2.0 * hz),
                speed: 2.0,
            }),
            Load::Zipf { .. } => self.slice(Slice::Paced {
                seconds: 1.0,
                speed: 1.0,
            }),
        }
    }

    fn take_lags(&self) -> Vec<f64> {
        let mut lags: Vec<f64> = std::mem::take(&mut *self.lag.lock().expect("lag sink poisoned"))
            .into_iter()
            .map(f64::from)
            .collect();
        stats::sort(&mut lags);
        lags
    }
}

/// Totals the traced sessions' own registries hold, read before and
/// after the measured slices.
#[derive(Clone, Copy, Default)]
pub struct SessionTotals {
    pub frames: u64,
    pub bgs_ms: f64,
    pub morph_ms: f64,
    pub remap_ms: f64,
    pub scene_ms: f64,
    pub activate_bytes: u64,
    /// Model swaps over *every* session, traced or not.
    pub switches: u64,
}

impl SessionTotals {
    fn read(built: &Built) -> Self {
        let mut t = SessionTotals::default();
        for handle in &built.handles {
            let session = handle.session(&built.fleet);
            t.switches += session.switch_count() as u64;
            if !session.telemetry().is_enabled() {
                continue;
            }
            let snap = session.telemetry().snapshot();
            let sum = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum_ms);
            t.frames += snap.counter("vp.frames").unwrap_or(0);
            t.bgs_ms += sum("vp.bgs_ms");
            t.morph_ms += sum("vp.morph_ms");
            t.remap_ms += sum("vp.remap_ms");
            t.scene_ms += sum("stage.scene.step_ms");
            t.activate_bytes += snap.counter("switch.activate.bytes").unwrap_or(0);
        }
        t
    }

    fn since(&self, before: &SessionTotals) -> Self {
        SessionTotals {
            frames: self.frames - before.frames,
            bgs_ms: self.bgs_ms - before.bgs_ms,
            morph_ms: self.morph_ms - before.morph_ms,
            remap_ms: self.remap_ms - before.remap_ms,
            scene_ms: self.scene_ms - before.scene_ms,
            activate_bytes: self.activate_bytes - before.activate_bytes,
            switches: self.switches - before.switches,
        }
    }
}

/// What the traced pass adds to a [`FleetPass`].
pub struct FleetTrace {
    /// `(execution ms, clips)` per executed batch.
    pub batches: Vec<(f64, u32)>,
    pub logs: Vec<SpanLog>,
    /// `(calls, flops, busy ms)` of the f32 GEMMs in the measured slices.
    pub gemm: (u64, u64, f64),
    pub sessions: SessionTotals,
}

/// Everything one pass over a fleet workload produced.
pub struct FleetPass {
    /// One report per measured slice.
    pub slices: Vec<FleetReport>,
    pub open_stream_us: f64,
    /// Ingest lag of every paced frame, ms, ascending.
    pub ingest_lag_ms: Vec<f64>,
    /// Peak resident set (`VmHWM`) within each measured slice, MB.
    pub slice_rss_mb: Vec<f64>,
    /// Per stream: offered at most 30 Hz.
    pub healthy: Vec<bool>,
    /// Output-check failures (empty when all passed).
    pub problems: Vec<String>,
    /// Frames unaccounted for, or shed where nothing may be.
    pub lost: u64,
    pub trace: Option<FleetTrace>,
}

impl FleetPass {
    pub fn fed(&self) -> u64 {
        self.slices
            .iter()
            .flat_map(|r| &r.streams)
            .map(|s| s.stats.fed)
            .sum()
    }

    pub fn completed(&self) -> u64 {
        self.slices.iter().map(|r| r.completed).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|r| r.wall.as_secs_f64()).sum()
    }

    /// One figure of the slice reports, at the quiet quartile.
    pub fn quiet(&self, higher_is_better: bool, f: impl Fn(&FleetReport) -> f64) -> f64 {
        stats::quiet_quartile(
            &self.slices.iter().map(f).collect::<Vec<_>>(),
            higher_is_better,
        )
    }

    /// Delivered / fed of the quiet-quartile slice, over the streams
    /// `keep` selects by index.
    pub fn delivered_share(&self, keep: impl Fn(usize) -> bool) -> f64 {
        self.quiet(true, |r| {
            let kept = || r.streams.iter().enumerate().filter(|(i, _)| keep(*i));
            let fed: u64 = kept().map(|(_, s)| s.stats.fed).sum();
            let done: u64 = kept().map(|(_, s)| s.stats.completed).sum();
            done as f64 / fed.max(1) as f64
        })
    }
}

/// Mean age of one slice's frames, ms, with every shed frame counted
/// at the deadline: a frame the fleet refused has missed any latency
/// limit, so shedding must not make the mean look better. Equal to
/// `frame_age.mean_ms` wherever nothing is shed.
pub fn mean_age_ms(report: &FleetReport) -> f64 {
    let delivered = report.frame_age.mean_ms * report.completed as f64;
    let shed = FRAME_DEADLINE.as_secs_f64() * 1e3 * report.shed as f64;
    (delivered + shed) / (report.completed + report.shed).max(1) as f64
}

/// Runs the workload for `seconds`, untraced or traced.
pub fn run(ctx: &Ctx, shape: &Shape, seconds: f64, traced: bool) -> FleetPass {
    let mut built = build(ctx, shape, 0..shape.streams, traced);
    let mut feeder = Feeder::new(ctx, shape);
    let warmup = feeder.warmup();
    built.fleet.run(warmup).expect("warm-up run");
    feeder.take_lags();

    // Hooks and observers go in after the warm-up so they see exactly
    // the measured slices.
    let tracer = traced.then(|| {
        let spans = (seconds * 20_000.0) as usize;
        let tracer = FleetTracer::new(Instant::now(), SHARDS, spans);
        built.fleet.set_fault_hook(tracer.clone());
        built.fleet.set_learn_hook(tracer.clone());
        tracer
    });
    let gemm = Arc::new(GemmTotals::default());
    let _observer = traced.then(|| GemmTotals::observe(&gemm));
    let sessions_before = traced.then(|| SessionTotals::read(&built));

    let mut slices = Vec::new();
    let mut slice_rss_mb = Vec::new();
    let mut measure = |feeds: Vec<BoxedSource>| {
        crate::report::reset_peak_rss();
        slices.push(built.fleet.run(feeds).expect("measured slice"));
        slice_rss_mb.push(crate::report::peak_rss_mb());
    };
    let open_loop = |target_s: f64| {
        let count = (seconds / target_s).round().max(1.0);
        (count as usize, seconds / count)
    };
    match shape.load {
        Load::Flood { chunk } => {
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < seconds {
                measure(feeder.slice(Slice::Flood(chunk)));
            }
        }
        Load::Paced { .. } | Load::Zipf { .. } => {
            let (count, seconds) = open_loop(if matches!(shape.load, Load::Paced { .. }) {
                PACED_SLICE_S
            } else {
                ZIPF_SLICE_S
            });
            for _ in 0..count {
                measure(feeder.slice(Slice::Paced {
                    seconds,
                    speed: 1.0,
                }));
            }
        }
    }

    let trace = tracer.map(|tracer| {
        built.fleet.clear_fault_hook();
        built.fleet.clear_learn_hook();
        let (batches, logs) = tracer.finish();
        FleetTrace {
            batches,
            logs,
            gemm: gemm.read(),
            sessions: SessionTotals::read(&built)
                .since(&sessions_before.expect("read when traced")),
        }
    });

    let mut pass = FleetPass {
        slices,
        open_stream_us: built.open_stream_us,
        ingest_lag_ms: feeder.take_lags(),
        slice_rss_mb,
        healthy: feeder
            .rates
            .iter()
            .map(|&rate| rate <= HEALTHY_HZ)
            .collect(),
        problems: Vec::new(),
        lost: 0,
        trace,
    };
    check(ctx, shape, &built, &feeder, &mut pass);
    pass
}

/// The output checks: per-stream accounting, one verdict per frame once
/// a stream's segment buffer is full, and — where nothing was shed —
/// verdict sequences bit-identical to `run_reference` over the same
/// frames at the same precision.
fn check(ctx: &Ctx, shape: &Shape, built: &Built, feeder: &Feeder, pass: &mut FleetPass) {
    let segment = shape.stream.segment_frames as u64;
    let mut shed_total = 0;
    for (i, handle) in built.handles.iter().enumerate() {
        let s = handle.stats(&built.fleet);
        shed_total += s.shed();
        if s.fed != feeder.next[i] as u64 || s.fed != s.completed + s.shed() {
            pass.lost += s.fed.abs_diff(s.completed + s.shed()).max(1);
            pass.problems.push(format!(
                "stream {i}: offered {} fed {} != completed {} + shed {}",
                feeder.next[i],
                s.fed,
                s.completed,
                s.shed()
            ));
        }
        // min_confidence is 0 and every scene has a model, so each
        // frame completed on a full segment buffer yields a verdict.
        let expected = (s.completed + 1).saturating_sub(segment);
        if s.verdicts != expected {
            pass.problems.push(format!(
                "stream {i}: {} verdicts for {} completed frames, expected {expected}",
                s.verdicts, s.completed
            ));
        }
    }
    if !shape.lossless() {
        return;
    }
    if shed_total > 0 {
        // Not an output error on a shedding shape, but frames this
        // workload is sized never to lose: they count as failed, and
        // the reference comparison no longer applies.
        pass.lost += shed_total;
        if !shape.shedding {
            pass.problems
                .push(format!("{shed_total} frames shed with shedding off"));
        }
        return;
    }
    let measured: Vec<&[Verdict]> = built
        .handles
        .iter()
        .map(|h| h.verdicts(&built.fleet))
        .collect();
    let half = shape.streams / 2;
    let reference = |streams: std::ops::Range<usize>| {
        let mut built = build(ctx, shape, streams.clone(), false);
        let feeds: Vec<Vec<GrayFrame>> = streams
            .map(|i| {
                (0..REFERENCE_FRAMES.min(feeder.next[i]))
                    .map(|k| ctx.pool.frame(i, k).clone())
                    .collect()
            })
            .collect();
        built.fleet.run_reference(feeds).expect("reference run");
        built
            .handles
            .iter()
            .map(|h| h.verdicts(&built.fleet).to_vec())
            .collect::<Vec<_>>()
    };
    let expected: Vec<Vec<Verdict>> = std::thread::scope(|s| {
        let upper = s.spawn(|| reference(half..shape.streams));
        let mut lower = reference(0..half);
        lower.extend(upper.join().expect("reference thread panicked"));
        lower
    });
    for (i, (got, want)) in measured.iter().zip(&expected).enumerate() {
        let result = if got.len() < want.len() {
            Err(format!(
                "only {} verdicts, reference has {}",
                got.len(),
                want.len()
            ))
        } else {
            same_verdicts("vs run_reference", got, want)
        };
        if let Err(problem) = result {
            pass.problems.push(format!("stream {i}: {problem}"));
        }
    }
}
