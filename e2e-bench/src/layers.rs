//! The traced run: per-layer metrics assembled from the benchmark's own
//! timings, its hooks, and the program's telemetry snapshots.

use crate::report::Outcome;
use crate::{fleet, micro, solo, spec, stats, trace, Ctx};
use std::collections::HashMap;
use std::path::PathBuf;

/// Share of a traced run's time spent on its untraced baseline pass.
const BASELINE_SHARE: f64 = 0.4;
/// Seconds of `solo_closed` a traced `fleet_flood` run measures for
/// `serve.flood_efficiency`.
const EFFICIENCY_SOLO_SECONDS: f64 = 1.5;
/// Parts of a traced `solo_closed` frame must sum to within this share
/// of the wall clock.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Per-layer values by name; whatever a workload does not define
/// stays 0 (`solo_closed` has no serve layer, a fleet no per-call
/// prepare times).
struct Layers(HashMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The single-layer measurements every traced run repeats.
    fn with_micro(ctx: &Ctx) -> Self {
        let mut layers = Layers(HashMap::new());
        for (name, value) in micro::forward_rates(&ctx.models[0].1)
            .into_iter()
            .chain(micro::switch_costs(&ctx.models))
        {
            layers.set(name, value);
        }
        layers
    }

    /// `vision.*`: the VP stage's own histograms, per frame.
    fn set_vision(&mut self, frames: u64, bgs_ms: f64, morph_ms: f64, remap_ms: f64) {
        let per = |ms: f64| ms / frames.max(1) as f64;
        self.set("vision.bgs_ms_mean", per(bgs_ms));
        self.set("vision.morph_ms_mean", per(morph_ms));
        self.set("vision.remap_ms_mean", per(remap_ms));
        self.set("vision.process_ms_mean", per(bgs_ms + morph_ms + remap_ms));
    }

    /// `tensor.*` and `nn.nongemm_ms_per_clip`: splits the classify
    /// time per clip into f32 GEMM and everything else.
    fn set_gemm(&mut self, (calls, flops, gemm_ms): (u64, u64, f64), clips: u64, classify_ms: f64) {
        let per = |v: f64| v / clips.max(1) as f64;
        self.set("tensor.gemm_calls_per_clip", per(calls as f64));
        self.set("tensor.gemm_flops_per_clip", per(flops as f64));
        self.set("tensor.gemm_ms_per_clip", per(gemm_ms));
        self.set(
            "tensor.gemm_gflops",
            if gemm_ms > 0.0 {
                flops as f64 / gemm_ms / 1e6
            } else {
                0.0
            },
        );
        self.set("nn.nongemm_ms_per_clip", per(classify_ms - gemm_ms));
    }

    fn set_overhead(&mut self, untraced_fps: f64, traced_fps: f64, spans_dropped: u64) {
        self.set("telemetry.untraced_frames_per_s", untraced_fps);
        self.set("telemetry.traced_frames_per_s", traced_fps);
        self.set("telemetry.overhead_share", 1.0 - traced_fps / untraced_fps);
        self.set("telemetry.spans_dropped", spans_dropped as f64);
    }

    fn into_outcome(self, attempted: u64, failed: u64, problems: Vec<String>) -> Outcome {
        Outcome {
            correct: problems.is_empty(),
            attempted,
            failed,
            metrics: spec::PER_LAYER
                .iter()
                .map(|m| (m.name, self.get(m.name)))
                .collect(),
            problems,
        }
    }
}

pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("e2e-bench/out/trace-{workload}.jsonl"))
}

/// The traced run of `solo_closed`: an untraced baseline, then the
/// split path with every call timed.
pub fn solo_per_layer(ctx: &Ctx, seconds: f64) -> Outcome {
    let untraced = solo::run_untraced(ctx, seconds * BASELINE_SHARE);
    let traced = solo::run_traced(ctx, seconds * (1.0 - BASELINE_SHARE));
    let parts = traced.parts.as_ref().expect("traced pass records parts");
    let mut problems = Vec::new();
    if let Err(problem) = solo::same_verdicts(
        "process_frame vs split path",
        &untraced.verdicts,
        &traced.verdicts,
    ) {
        problems.push(problem);
    }

    let mut layers = Layers::with_micro(ctx);
    let wall_ms = traced.wall_s * 1e3;
    let hist_sum = |name: &str| parts.snapshot.histogram(name).map_or(0.0, |h| h.sum_ms);
    let vp_frames = parts.snapshot.counter("vp.frames").unwrap_or(0);
    layers.set_vision(
        vp_frames,
        hist_sum("vp.bgs_ms"),
        hist_sum("vp.morph_ms"),
        hist_sum("vp.remap_ms"),
    );
    // The registry has counted since frame 0; per-frame means are the
    // same with or without the warm-up, shares use measured frames.
    let vision_ms = layers.get("vision.process_ms_mean") * traced.frames as f64;
    layers.set("vision.busy_share", vision_ms / wall_ms);

    let prepare_sum: f64 = parts.prepare_ms.iter().sum();
    let classify_sum: f64 = parts.classify_ms.iter().sum();
    layers.set(
        "safecross.prepare_ms_p50",
        stats::percentile(&parts.prepare_ms, 0.50),
    );
    layers.set(
        "safecross.prepare_ms_p99",
        stats::percentile(&parts.prepare_ms, 0.99),
    );
    layers.set(
        "safecross.complete_ms_mean",
        parts.complete_ms_sum / traced.frames.max(1) as f64,
    );
    layers.set(
        "safecross.scene_ms_mean",
        stats::mean(&parts.prepare_ms) - layers.get("vision.process_ms_mean"),
    );
    layers.set(
        "safecross.frame_p50_ms",
        stats::percentile(&traced.latency_ms, 0.50),
    );
    layers.set(
        "safecross.frame_p95_ms",
        stats::percentile(&traced.latency_ms, 0.95),
    );
    layers.set(
        "safecross.frame_p99_ms",
        stats::percentile(&traced.latency_ms, 0.99),
    );
    let unattributed = 1.0 - (prepare_sum + classify_sum + parts.complete_ms_sum) / wall_ms;
    layers.set("safecross.unattributed_share", unattributed);
    if unattributed > MAX_UNATTRIBUTED {
        problems.push(format!(
            "prepare + classify + complete cover only {:.1}% of the wall clock",
            (1.0 - unattributed) * 100.0
        ));
    }

    let clips = parts.classify_ms.len() as u64;
    layers.set(
        "videoclass.classify_ms_p50",
        stats::percentile(&parts.classify_ms, 0.50),
    );
    layers.set(
        "videoclass.classify_ms_p99",
        stats::percentile(&parts.classify_ms, 0.99),
    );
    layers.set("videoclass.forwards", clips as f64);
    layers.set("videoclass.busy_share", classify_sum / wall_ms);
    layers.set_gemm(parts.gemm, clips, classify_sum);
    layers.set("modelswitch.switches", parts.switches as f64);
    layers.set("modelswitch.activate_bytes", parts.activate_bytes as f64);
    layers.set_overhead(
        untraced.frames_per_s(),
        traced.frames_per_s(),
        parts.spans.dropped,
    );

    if let Err(e) = trace::write_jsonl(&trace_path("solo_closed"), &[&parts.spans]) {
        problems.push(format!("writing the span file: {e}"));
    }
    layers.into_outcome(untraced.frames + traced.frames, 0, problems)
}

/// The traced run of a fleet workload: an untraced baseline for the
/// `FleetReport` figures, then the same load with telemetry, hooks and
/// the GEMM observer on.
pub fn fleet_per_layer(ctx: &Ctx, workload: &str, shape: &fleet::Shape, seconds: f64) -> Outcome {
    let untraced = fleet::run(ctx, shape, seconds * BASELINE_SHARE, false);
    let traced = fleet::run(ctx, shape, seconds * (1.0 - BASELINE_SHARE), true);
    let trace = traced.trace.as_ref().expect("traced pass records a trace");
    let mut problems: Vec<String> = untraced
        .problems
        .iter()
        .chain(&traced.problems)
        .cloned()
        .collect();

    let mut layers = Layers::with_micro(ctx);
    let shard_ms = fleet::SHARDS as f64 * traced.wall_s() * 1e3;
    let prepared = traced.completed() as f64;
    let sessions = &trace.sessions;
    layers.set_vision(
        sessions.frames,
        sessions.bgs_ms,
        sessions.morph_ms,
        sessions.remap_ms,
    );
    layers.set(
        "vision.busy_share",
        layers.get("vision.process_ms_mean") * prepared / shard_ms,
    );
    layers.set(
        "safecross.scene_ms_mean",
        sessions.scene_ms / sessions.frames.max(1) as f64,
    );
    let scene_share = layers.get("safecross.scene_ms_mean") * prepared / shard_ms;

    let exec_sum: f64 = trace.batches.iter().map(|b| b.0).sum();
    let clips: u64 = trace.batches.iter().map(|b| u64::from(b.1)).sum();
    let mut exec_ms: Vec<f64> = trace.batches.iter().map(|b| b.0).collect();
    let mut per_clip_ms: Vec<f64> = trace.batches.iter().map(|b| b.0 / f64::from(b.1)).collect();
    stats::sort(&mut exec_ms);
    stats::sort(&mut per_clip_ms);
    layers.set(
        "videoclass.classify_ms_p50",
        stats::percentile(&per_clip_ms, 0.50),
    );
    layers.set(
        "videoclass.classify_ms_p99",
        stats::percentile(&per_clip_ms, 0.99),
    );
    layers.set("videoclass.forwards", trace.batches.len() as f64);
    layers.set("videoclass.busy_share", exec_sum / shard_ms);
    layers.set_gemm(trace.gemm, clips, exec_sum);
    layers.set("modelswitch.switches", sessions.switches as f64);
    layers.set("modelswitch.activate_bytes", sessions.activate_bytes as f64);

    let reports = &untraced.slices;
    let batches: u64 = reports.iter().map(|r| r.batches).sum();
    let batched_clips: f64 = reports
        .iter()
        .map(|r| r.mean_batch * r.batches as f64)
        .sum();
    let streams = || reports.iter().flat_map(|r| &r.streams).map(|s| s.stats);
    layers.set("serve.mean_batch", batched_clips / batches.max(1) as f64);
    layers.set(
        "serve.max_batch",
        reports.iter().map(|r| r.max_batch).max().unwrap_or(0) as f64,
    );
    layers.set("serve.batches", batches as f64);
    layers.set(
        "serve.steals",
        reports.iter().map(|r| r.steals).sum::<u64>() as f64,
    );
    layers.set(
        "serve.queue_peak_max",
        streams().map(|s| s.queue_peak).max().unwrap_or(0) as f64,
    );
    layers.set(
        "serve.shed_overflow",
        streams().map(|s| s.shed_overflow).sum::<u64>() as f64,
    );
    layers.set(
        "serve.shed_stale",
        streams().map(|s| s.shed_stale).sum::<u64>() as f64,
    );
    layers.set(
        "serve.frame_age_p50_ms",
        untraced.quiet(false, |r| r.frame_age.p50_ms),
    );
    layers.set(
        "serve.frame_age_p95_ms",
        untraced.quiet(false, |r| r.frame_age.p95_ms),
    );
    layers.set(
        "serve.frame_age_p99_ms",
        untraced.quiet(false, |r| r.frame_age.p99_ms),
    );
    layers.set(
        "serve.frame_age_max_ms",
        reports
            .iter()
            .map(|r| r.frame_age.max_ms)
            .fold(0.0, f64::max),
    );
    layers.set(
        "serve.ingest_lag_p50_ms",
        stats::percentile(&untraced.ingest_lag_ms, 0.50),
    );
    layers.set(
        "serve.ingest_lag_p99_ms",
        stats::percentile(&untraced.ingest_lag_ms, 0.99),
    );
    layers.set("serve.batch_exec_ms_p50", stats::percentile(&exec_ms, 0.50));
    layers.set("serve.batch_exec_ms_p99", stats::percentile(&exec_ms, 0.99));
    layers.set(
        "serve.other_share",
        1.0 - layers.get("vision.busy_share") - scene_share - layers.get("videoclass.busy_share"),
    );
    layers.set("serve.open_stream_us_mean", untraced.open_stream_us);
    let untraced_fps = untraced.quiet(true, |r| r.aggregate_fps);
    if workload == "fleet_flood" {
        let solo = solo::run_untraced(ctx, EFFICIENCY_SOLO_SECONDS);
        layers.set(
            "serve.flood_efficiency",
            untraced_fps / (fleet::SHARDS as f64 * solo.frames_per_s()),
        );
    }
    let dropped = trace.logs.iter().map(|l| l.dropped).sum();
    layers.set_overhead(
        untraced_fps,
        traced.quiet(true, |r| r.aggregate_fps),
        dropped,
    );

    let logs: Vec<&trace::SpanLog> = trace.logs.iter().collect();
    if let Err(e) = trace::write_jsonl(&trace_path(workload), &logs) {
        problems.push(format!("writing the span file: {e}"));
    }
    layers.into_outcome(
        untraced.fed() + traced.fed(),
        untraced.lost + traced.lost,
        problems,
    )
}
