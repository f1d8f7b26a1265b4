//! Direct single-layer measurements the traced pass reports beside the
//! attribution: what one SlowFast forward and one model switch cost
//! when nothing else is running.

use crate::stats;
use safecross::SCENE_TOTAL_FLOPS;
use safecross_modelswitch::{GpuSpec, ModelRegistry, ModelSwitcher, SwitchStrategy};
use safecross_nn::Mode;
use safecross_tensor::{KernelScratch, Precision, TensorRng};
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use std::hint::black_box;
use std::time::Instant;

/// Clips per second of `forward_scratch` on a `[batch, 1, 32, 20, 20]`
/// input: `batch` over the median call time.
fn clips_per_s(model: &SlowFastLite, precision: Precision, batch: usize) -> f64 {
    let mut model = model.clone();
    model.set_precision(precision);
    let mut rng = TensorRng::seed_from(1);
    let clips = rng.uniform(&[batch, 1, 32, 20, 20], 0.0, 1.0);
    let mut scratch = KernelScratch::new();
    let mut forward = || {
        let logits = model.forward_scratch(black_box(&clips), Mode::Eval, &mut scratch);
        black_box(&logits);
        scratch.recycle_tensor(logits);
    };
    for _ in 0..3 {
        forward();
    }
    let calls = if batch == 1 { 48 } else { 12 };
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let start = Instant::now();
            forward();
            start.elapsed().as_secs_f64()
        })
        .collect();
    batch as f64 / stats::median(&times)
}

/// The forward-pass rows: batch 1 and 8, f32 and int8.
pub fn forward_rates(model: &SlowFastLite) -> Vec<(&'static str, f64)> {
    vec![
        (
            "videoclass.clips_per_s_b1_f32",
            clips_per_s(model, Precision::F32, 1),
        ),
        (
            "videoclass.clips_per_s_b8_f32",
            clips_per_s(model, Precision::F32, 8),
        ),
        (
            "videoclass.clips_per_s_b1_int8",
            clips_per_s(model, Precision::Int8, 1),
        ),
        (
            "videoclass.clips_per_s_b8_int8",
            clips_per_s(model, Precision::Int8, 8),
        ),
    ]
}

/// 300 `switch_to` calls cycling the three scene checkpoints out of one
/// store, plus what that store holds.
pub fn switch_costs(models: &[(Weather, SlowFastLite)]) -> Vec<(&'static str, f64)> {
    let store = ModelRegistry::new();
    let switcher = ModelSwitcher::new(
        GpuSpec::rtx_2080_ti(),
        11_000_000_000,
        SwitchStrategy::PipelinedOptimal,
    );
    switcher.attach_store(&store);
    for (weather, model) in models {
        store.register_model(weather.label(), &model.state_groups());
        switcher
            .register_from_store(weather.label(), SCENE_TOTAL_FLOPS)
            .expect("checkpoint was just stored");
    }
    let mut micros: Vec<f64> = (0..300)
        .map(|i| {
            let name = models[i % models.len()].0.label();
            let start = Instant::now();
            black_box(
                switcher
                    .switch_to(name)
                    .expect("registered model fits the pool"),
            );
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::sort(&mut micros);
    vec![
        (
            "modelswitch.switch_to_us_p50",
            stats::percentile(&micros, 0.5),
        ),
        (
            "modelswitch.store_unique_groups",
            store.unique_groups() as f64,
        ),
        (
            "modelswitch.store_stored_bytes",
            store.stored_bytes() as f64,
        ),
    ]
}
