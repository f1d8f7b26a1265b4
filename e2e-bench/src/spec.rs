//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`e2e --manifest`)
//! and a unit test keeps the checked-in file equal to them.

/// How long one run measures, seconds (`run_seconds` in the manifest).
pub const RUN_SECONDS: u32 = 16;

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "solo_closed",
        why: "One camera, closed loop, process_frame back to back: vision+safecross+videoclass do all the work and serve none, so compute-layer gains show undiluted and serve changes must show nothing.",
    },
    Workload {
        name: "fleet_paced",
        why: "Open loop, 8 streams x 30 Hz (20-35% of 2-shard capacity), shedding on: the deployed shape; frame age is set by linger, batching and scheduling in serve, barely by kernels.",
    },
    Workload {
        name: "fleet_flood",
        why: "Lossless batch job, 16 streams, back-to-back floods of 64 frames per stream all due at once: saturates both shards, so capacity, shard scaling and serve overhead per frame show.",
    },
    Workload {
        name: "fleet_flood_int8",
        why: "fleet_flood with every stream opened at int8: same layers, other arithmetic path, so an nn/tensor change that helps one precision and costs the other shows as opposite moves.",
    },
    Workload {
        name: "zipf_overload",
        why: "Open loop, 2000 streams of 64x48 frames, zipf rates summing to 16000/s (1.7-2.5x capacity): admission, shedding, fairness and per-stream bookkeeping dominate; compute per frame is ~8x smaller.",
    },
];

/// One end-to-end metric. `bound` is the share of the parent's median
/// by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "frames_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "frame_age_mean_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "delivered_share", unit: "ratio", better: "higher", bound: 0.25 },
    EndToEnd { name: "healthy_delivered_share", unit: "ratio", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// One per-layer metric (no bound: attribution, not a gate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 53] = [
    layer("vision.process_ms_mean", "ms", "lower"),
    layer("vision.bgs_ms_mean", "ms", "lower"),
    layer("vision.morph_ms_mean", "ms", "lower"),
    layer("vision.remap_ms_mean", "ms", "lower"),
    layer("vision.busy_share", "ratio", "lower"),
    layer("safecross.prepare_ms_p50", "ms", "lower"),
    layer("safecross.prepare_ms_p99", "ms", "lower"),
    layer("safecross.complete_ms_mean", "ms", "lower"),
    layer("safecross.scene_ms_mean", "ms", "lower"),
    layer("safecross.frame_p50_ms", "ms", "lower"),
    layer("safecross.frame_p95_ms", "ms", "lower"),
    layer("safecross.frame_p99_ms", "ms", "lower"),
    layer("safecross.unattributed_share", "ratio", "lower"),
    layer("videoclass.classify_ms_p50", "ms", "lower"),
    layer("videoclass.classify_ms_p99", "ms", "lower"),
    layer("videoclass.forwards", "count", "lower"),
    layer("videoclass.busy_share", "ratio", "lower"),
    layer("videoclass.clips_per_s_b1_f32", "1/s", "higher"),
    layer("videoclass.clips_per_s_b8_f32", "1/s", "higher"),
    layer("videoclass.clips_per_s_b1_int8", "1/s", "higher"),
    layer("videoclass.clips_per_s_b8_int8", "1/s", "higher"),
    layer("tensor.gemm_calls_per_clip", "count", "lower"),
    layer("tensor.gemm_flops_per_clip", "count", "lower"),
    layer("tensor.gemm_ms_per_clip", "ms", "lower"),
    layer("tensor.gemm_gflops", "GFLOP/s", "higher"),
    layer("nn.nongemm_ms_per_clip", "ms", "lower"),
    layer("modelswitch.switches", "count", "lower"),
    layer("modelswitch.activate_bytes", "count", "lower"),
    layer("modelswitch.switch_to_us_p50", "us", "lower"),
    layer("modelswitch.store_unique_groups", "count", "lower"),
    layer("modelswitch.store_stored_bytes", "count", "lower"),
    layer("serve.mean_batch", "count", "higher"),
    layer("serve.max_batch", "count", "higher"),
    layer("serve.batches", "count", "lower"),
    layer("serve.steals", "count", "lower"),
    layer("serve.queue_peak_max", "count", "lower"),
    layer("serve.shed_overflow", "count", "lower"),
    layer("serve.shed_stale", "count", "lower"),
    layer("serve.frame_age_p50_ms", "ms", "lower"),
    layer("serve.frame_age_p95_ms", "ms", "lower"),
    layer("serve.frame_age_p99_ms", "ms", "lower"),
    layer("serve.frame_age_max_ms", "ms", "lower"),
    layer("serve.ingest_lag_p50_ms", "ms", "lower"),
    layer("serve.ingest_lag_p99_ms", "ms", "lower"),
    layer("serve.batch_exec_ms_p50", "ms", "lower"),
    layer("serve.batch_exec_ms_p99", "ms", "lower"),
    layer("serve.other_share", "ratio", "lower"),
    layer("serve.flood_efficiency", "ratio", "higher"),
    layer("serve.open_stream_us_mean", "us", "lower"),
    layer("telemetry.overhead_share", "ratio", "lower"),
    layer("telemetry.untraced_frames_per_s", "1/s", "higher"),
    layer("telemetry.traced_frames_per_s", "1/s", "higher"),
    layer("telemetry.spans_dropped", "count", "lower"),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"e2e-bench/Cargo.toml\", \"--bin\", \"e2e\", \"--\"],\n  \"paths\": [\"e2e-bench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `cargo run --release --manifest-path e2e-bench/Cargo.toml -- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_respect_the_manifest_limits() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(
                ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.better == "higher" || m.better == "lower");
        }
        for m in &PER_LAYER {
            assert!(
                ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.better == "higher" || m.better == "lower");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == "lower");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() < 64 * 1024);
    }
}
