//! Serving-layer scaling: aggregate fleet throughput as streams and
//! shards sweep, plus one deliberate overload run to price load
//! shedding, plus the headline 10 000-stream zipf-skewed soak the
//! shard-per-core refactor exists for.
//!
//! Besides the printed table, the sweep is written to
//! `BENCH_serve.json` at the workspace root — one record per
//! configuration with streams, shards, aggregate fps, shed rate, p99
//! frame age, and (for the soak rows) shed fairness — so the serving
//! perf trajectory is machine-trackable across commits. Shard scaling
//! is only visible when the host actually has cores to scale onto; the
//! JSON leads with `host_parallelism` and `thread_scaling_tested`, and
//! the shard-scaling sanity assertion is skipped outright on a
//! single-core host, where every shard count measures the same serial
//! machine and a "regression" would be pure scheduler noise.
//!
//! Set `SAFECROSS_BENCH_QUICK=1` to run a reduced sweep (CI smoke:
//! 1 000-stream soak instead of 10 000).

use criterion::{criterion_group, criterion_main, Criterion};
use safecross::SafeCrossConfig;
use safecross_serve::{
    paced_feed, BoxedSource, FleetReport, FleetServer, FrameSource, ServeConfig, SourcePoll,
    StreamSpec,
};
use safecross_tensor::TensorRng;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::SlowFastLite;
use safecross_vision::GrayFrame;
use std::time::{Duration, Instant};

const MAX_STREAMS: usize = 8;

fn quick() -> bool {
    std::env::var("SAFECROSS_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn frames_per_stream() -> usize {
    if quick() {
        24
    } else {
        64
    }
}

/// Shard counts worth sweeping: past the host's core count extra
/// shards only re-measure contention on the same cores.
fn shard_counts() -> Vec<usize> {
    if host_parallelism() > 1 {
        vec![1, 2, 4]
    } else {
        // Single core: shards=2 still exercises the threaded shard
        // path; higher counts add nothing but scheduler noise.
        vec![1, 2]
    }
}

fn shared_models() -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(0);
    Weather::ALL
        .iter()
        .map(|&w| (w, SlowFastLite::new(2, &mut rng)))
        .collect()
}

/// One daytime clip per stream, rendered once and reused across every
/// configuration so all sweeps classify identical footage.
fn stream_clips() -> Vec<Vec<GrayFrame>> {
    (0..MAX_STREAMS)
        .map(|i| {
            let seed = i as u64 + 1;
            let mut sim = Simulator::new(Scenario::new(Weather::Daytime, true, 0.2), seed);
            let mut renderer = Renderer::new(RenderConfig::default(), Weather::Daytime, seed);
            (0..frames_per_stream())
                .map(|_| {
                    sim.step(1.0 / 30.0);
                    renderer.render(&sim)
                })
                .collect()
        })
        .collect()
}

fn build_fleet(config: ServeConfig, models: &[(Weather, SlowFastLite)], streams: usize) -> FleetServer {
    let mut fleet = FleetServer::new(config).expect("bench serve config is valid");
    for (w, m) in models {
        fleet
            .register_model(*w, m.clone())
            .expect("models registered before streams");
    }
    for _ in 0..streams {
        fleet.open_stream(StreamSpec::new()).expect("models are registered");
    }
    fleet
}

/// Runs one configuration to completion, flooding each stream's whole
/// clip at once, and returns the fleet report.
fn run_once(
    config: ServeConfig,
    models: &[(Weather, SlowFastLite)],
    clips: &[Vec<GrayFrame>],
    streams: usize,
) -> FleetReport {
    let mut fleet = build_fleet(config, models, streams);
    fleet
        .run(
            clips[..streams]
                .iter()
                .map(|frames| paced_feed(frames.clone(), Duration::ZERO))
                .collect(),
        )
        .expect("bench run succeeds")
}

/// Runs of each lossless sweep configuration; the row records the run
/// with the median fps. One such run lasts ~0.1 s, which a shared host
/// that slows by half for seconds at a time turns into a coin flip.
const LOSSLESS_REPEATS: usize = 5;

fn run_median(
    config: ServeConfig,
    models: &[(Weather, SlowFastLite)],
    clips: &[Vec<GrayFrame>],
    streams: usize,
) -> FleetReport {
    let mut reports: Vec<FleetReport> = (0..LOSSLESS_REPEATS)
        .map(|_| run_once(config, models, clips, streams))
        .collect();
    reports.sort_by(|a, b| a.aggregate_fps.total_cmp(&b.aggregate_fps));
    reports.swap_remove(LOSSLESS_REPEATS / 2)
}

// ---------------------------------------------------------------------
// The 10k-stream zipf soak.
// ---------------------------------------------------------------------

/// Synthesises frames on the fly instead of materialising them: a 10k
/// stream fleet at even 150 pre-rendered frames each would hold
/// hundreds of MB of pixels before the run started. Brightness sits in
/// the daytime band and wobbles a little so frames are not all
/// byte-identical.
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
/// plus a `1/(i+1)`-weighted share of `extra` — a handful of cameras
/// dominate the load while the long tail stays nearly idle, the
/// canonical fleet skew.
fn zipf_frames(streams: usize, base: usize, extra: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=streams).map(|r| 1.0 / r as f64).sum();
    (0..streams)
        .map(|i| base + ((extra as f64 / harmonic) / (i + 1) as f64).round() as usize)
        .collect()
}

/// Max healthy-stream shed rate over the fleet's mean shed rate.
/// "Healthy" streams fed no more than their admission queue holds, so
/// they can never overflow themselves — any shed they suffer is age
/// shedding caused by *other* streams' load, which is exactly the
/// unfairness this number watches. 0.0 means no healthy stream shed at
/// all (or nobody shed).
fn healthy_shed_excess(report: &FleetReport, queue_capacity: usize) -> f64 {
    let rate = |fed: u64, shed: u64| if fed == 0 { 0.0 } else { shed as f64 / fed as f64 };
    let fed: u64 = report.streams.iter().map(|s| s.stats.fed).sum();
    let mean = rate(fed, report.shed);
    if mean <= 0.0 {
        return 0.0;
    }
    report
        .streams
        .iter()
        .filter(|s| s.stats.fed <= queue_capacity as u64)
        .map(|s| rate(s.stats.fed, s.stats.shed()))
        .fold(0.0, f64::max)
        / mean
}

fn soak_streams() -> usize {
    if quick() {
        1_000
    } else {
        10_000
    }
}

fn soak_once(shards: usize, streams: usize) -> (FleetReport, f64) {
    const QUEUE: usize = 32;
    let config = ServeConfig::builder()
        .shards(shards)
        .batch_max(8)
        .queue_capacity(QUEUE)
        .frame_deadline(Some(Duration::from_millis(500)))
        .stream(SafeCrossConfig {
            frame_width: 64,
            frame_height: 48,
            segment_frames: 8,
            scene_window: 4,
            min_confidence: 0.0,
            ..SafeCrossConfig::default()
        })
        .build()
        .expect("valid soak config");
    let models = shared_models();
    let mut fleet = build_fleet(config, &models, streams);
    let counts = zipf_frames(streams, 2, 4 * streams);
    let feeds: Vec<BoxedSource> = counts
        .iter()
        .enumerate()
        .map(|(i, &n)| SynthSource::new(64, 48, n, (i % 251) as u8).boxed())
        .collect();
    let report = fleet.run(feeds).expect("soak run succeeds");
    let fairness = healthy_shed_excess(&report, QUEUE);
    (report, fairness)
}

struct SweepRecord {
    mode: &'static str,
    streams: usize,
    shards: usize,
    report: FleetReport,
    fairness: Option<f64>,
}

impl SweepRecord {
    fn shed_rate(&self) -> f64 {
        let fed: u64 = self.report.streams.iter().map(|s| s.stats.fed).sum();
        if fed == 0 {
            0.0
        } else {
            self.report.shed as f64 / fed as f64
        }
    }

    fn json(&self) -> String {
        let fairness = self
            .fairness
            .map(|f| format!(", \"healthy_shed_excess\": {f:.4}"))
            .unwrap_or_default();
        format!(
            "  {{\"mode\": \"{}\", \"streams\": {}, \"shards\": {}, \
             \"aggregate_fps\": {:.2}, \"shed_rate\": {:.4}, \
             \"p99_frame_age_ms\": {:.3}, \"mean_batch\": {:.2}, \
             \"completed\": {}, \"shed\": {}, \"steals\": {}{}}}",
            self.mode,
            self.streams,
            self.shards,
            self.report.aggregate_fps,
            self.shed_rate(),
            self.report.frame_age.p99_ms,
            self.report.mean_batch,
            self.report.completed,
            self.report.shed,
            self.report.steals,
            fairness,
        )
    }
}

fn write_bench_json(records: &[SweepRecord]) {
    let cores = host_parallelism();
    let rows: Vec<String> = records.iter().map(SweepRecord::json).collect();
    let json = format!(
        "{{\n\"bench\": \"serve_scaling\",\n\"host_parallelism\": {},\n\
         \"thread_scaling_tested\": {},\n\"quick\": {},\n\
         \"note\": \"shard scaling requires host_parallelism > 1; on a single-core \
         host every shards=N row measures the same serial machine and differences \
         are scheduler noise; lossless rows are the median-fps run of lossless_repeats; \
         zipf_soak rows use synthetic frames with shedding on\",\n\
         \"frames_per_stream\": {},\n\"lossless_repeats\": {},\n\"runs\": [\n{}\n]\n}}\n",
        cores,
        cores > 1,
        quick(),
        frames_per_stream(),
        LOSSLESS_REPEATS,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\n[serve_scaling] wrote {path}"),
        Err(e) => println!("\n[serve_scaling] could not write {path}: {e}"),
    }
}

fn serve_scaling(c: &mut Criterion) {
    let models = shared_models();
    let clips = stream_clips();

    let lossless = |shards: usize| {
        ServeConfig::builder()
            .shards(shards)
            .shedding(false)
            .stream(SafeCrossConfig::default())
            .build()
            .expect("valid serve config")
    };

    // The sweep: fixed work per stream, shedding off, so aggregate fps
    // is directly comparable across rows.
    let mut records = Vec::new();
    println!(
        "\n=== serve_scaling sweep (lossless, {} frames/stream, median of {LOSSLESS_REPEATS}, host_parallelism={}) ===",
        frames_per_stream(),
        host_parallelism()
    );
    println!("{:>8} {:>8} {:>14} {:>10} {:>14}", "streams", "shards", "aggregate fps", "shed rate", "p99 age ms");
    // streams = 1 is the one-camera record: its shards-1 vs shards-2
    // rows show what the idle shard buys a lone stream (DESIGN §6).
    let stream_counts: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 8] };
    for &streams in stream_counts {
        for &shards in &shard_counts() {
            let report = run_median(lossless(shards), &models, &clips, streams);
            let rec = SweepRecord {
                mode: "lossless",
                streams,
                shards,
                report,
                fairness: None,
            };
            println!(
                "{:>8} {:>8} {:>14.1} {:>10.4} {:>14.3}",
                streams,
                shards,
                rec.report.aggregate_fps,
                rec.shed_rate(),
                rec.report.frame_age.p99_ms
            );
            records.push(rec);
        }
    }

    // One overload row: tight queues and a frame-age deadline, so the
    // shed-rate and frame-age fields exercise the admission layer.
    let overload = ServeConfig::builder()
        .shards(2)
        .queue_capacity(8)
        .frame_deadline(Some(Duration::from_millis(250)))
        .build()
        .expect("valid serve config");
    let report = run_once(overload, &models, &clips, MAX_STREAMS);
    let rec = SweepRecord {
        mode: "overload",
        streams: MAX_STREAMS,
        shards: 2,
        report,
        fairness: None,
    };
    println!(
        "{:>8} {:>8} {:>14.1} {:>10.4} {:>14.3}   (overload: capacity 8, deadline 250ms)",
        rec.streams,
        rec.shards,
        rec.report.aggregate_fps,
        rec.shed_rate(),
        rec.report.frame_age.p99_ms
    );
    println!("\n{}", rec.report);
    records.push(rec);

    // The zipf soak: the stream count the shard refactor targets, with
    // a handful of hot cameras and a very long idle tail. Shedding is
    // on (a real fleet at this scale sheds); the row records whether
    // the pain stayed on the offenders.
    let streams = soak_streams();
    // On hosts with <= 2 cores the second entry is 2 again; record the
    // configuration once.
    let mut soak_shards = vec![2, host_parallelism().clamp(2, 4)];
    soak_shards.dedup();
    for shards in soak_shards {
        let wall = Instant::now();
        let (report, fairness) = soak_once(shards, streams);
        println!(
            "{:>8} {:>8} {:>14.1} {:>10.4} {:>14.3}   (zipf soak, {} stolen, \
             healthy shed excess {:.3}, {:.1}s wall)",
            streams,
            shards,
            report.aggregate_fps,
            report.shed as f64 / report.streams.iter().map(|s| s.stats.fed).sum::<u64>() as f64,
            report.frame_age.p99_ms,
            report.steals,
            fairness,
            wall.elapsed().as_secs_f64(),
        );
        records.push(SweepRecord {
            mode: "zipf_soak",
            streams,
            shards,
            report,
            fairness: Some(fairness),
        });
    }

    write_bench_json(&records);

    // Shard-scaling sanity check — ONLY meaningful with real cores.
    // On a single-core host every shard count runs the same serial
    // machine, so an "assertion" there would flake on scheduler noise;
    // it is skipped, and the JSON's thread_scaling_tested=false tells
    // downstream tooling the same thing.
    if host_parallelism() > 1 {
        let fps = |shards: usize| {
            records
                .iter()
                .find(|r| r.mode == "lossless" && r.streams == 2 && r.shards == shards)
                .map(|r| r.report.aggregate_fps)
                .expect("sweep covered this configuration")
        };
        let single = fps(1);
        let multi = shard_counts()
            .iter()
            .map(|&s| fps(s))
            .fold(f64::MIN, f64::max);
        assert!(
            multi >= single * 0.8,
            "adding shards on a {}-core host regressed throughput: best {multi:.1} fps \
             vs {single:.1} fps with one shard",
            host_parallelism()
        );
    } else {
        println!("[serve_scaling] single-core host: shard-scaling assertion skipped");
    }

    // Criterion samples of the headline configuration, one per shard
    // count, so regressions show in the regular bench output too.
    let mut group = c.benchmark_group("serve_8streams");
    group.sample_size(3);
    for shards in shard_counts() {
        group.bench_function(format!("shards_{shards}"), |b| {
            b.iter(|| run_once(lossless(shards), &models, &clips, MAX_STREAMS).completed)
        });
    }
    group.finish();
}

criterion_group!(benches, serve_scaling);
criterion_main!(benches);
