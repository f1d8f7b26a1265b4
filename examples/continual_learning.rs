//! Continual learning: background per-intersection adaptation with
//! shadow canary promotion.
//!
//! A three-stream fleet serves daytime/rain/snow checkpoints, but the
//! rain checkpoint has been degraded (weights scaled toward zero) — an
//! injected distribution shift. The `ContinualLearner` harvests the
//! low-confidence rain clips from the verdict path, few-shot-adapts a
//! challenger in the background, grades it against the incumbent on
//! held-out canary clips, and promotes it through the switcher's
//! pipelined-swap path on the stream's owning shard. Streams the
//! learner never touches keep serving their base checkpoints
//! unchanged.
//!
//! Run with: `cargo run --release --example continual_learning`

use safecross::SafeCrossConfig;
use safecross_learn::{ContinualLearner, LearnConfig};
use safecross_serve::{FleetServer, ServeConfig, StreamSpec};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use safecross_vision::GrayFrame;
use std::collections::HashMap;

const W: usize = 64;
const H: usize = 48;
const FRAMES: usize = 48;

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

/// Stream 1 drifts into rain — the scene served by the degraded
/// checkpoint. Streams 0 and 2 stay on healthy checkpoints.
fn feeds() -> Vec<Vec<GrayFrame>> {
    let mut rain = rendered(Weather::Daytime, 16, 21);
    rain.extend(rendered(Weather::Rain, FRAMES - 16, 22));
    let mut snow = rendered(Weather::Daytime, 24, 31);
    snow.extend(rendered(Weather::Snow, FRAMES - 24, 32));
    vec![rendered(Weather::Daytime, FRAMES, 11), rain, snow]
}

/// Base checkpoints with the shift baked in: Rain degraded toward zero
/// weights (~0.5 confidence on everything), Daytime/Snow given a large
/// head bias so they serve well above the harvest margin.
fn models() -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(3);
    Weather::ALL
        .iter()
        .map(|&w| {
            let mut model = SlowFastLite::new(2, &mut rng);
            let mut state = model.state_dict();
            if w == Weather::Rain {
                for (_, tensor) in state.iter_mut() {
                    for v in tensor.data_mut() {
                        *v *= 0.05;
                    }
                }
            } else {
                for (name, tensor) in state.iter_mut() {
                    if name.ends_with("bias") && tensor.len() == 2 {
                        tensor.data_mut().copy_from_slice(&[8.0, 0.0]);
                    }
                }
            }
            model.load_state_dict(&state);
            (w, model)
        })
        .collect()
}

fn main() {
    println!("=== SafeCross continual learning (harvest -> adapt -> canary -> promote) ===\n");

    let config = ServeConfig::builder()
        .shards(2)
        .shedding(false)
        .stream(SafeCrossConfig {
            frame_width: W,
            frame_height: H,
            segment_frames: 8,
            scene_window: 4,
            min_confidence: 0.0,
            ..SafeCrossConfig::default()
        })
        .build()
        .expect("config is valid");
    let mut fleet = FleetServer::new(config).expect("valid config");
    let mut templates: HashMap<Weather, SlowFastLite> = HashMap::new();
    for (w, m) in models() {
        templates.insert(w, m.clone());
        fleet.register_model(w, m).expect("no streams yet");
    }
    for _ in 0..3 {
        fleet.open_stream(StreamSpec::new()).expect("models registered");
    }
    println!("fleet: 3 streams on 2 shards; rain checkpoint degraded (injected shift)\n");

    let learner = ContinualLearner::new(
        LearnConfig {
            seed: 42,
            harvest_below: 0.9,
            min_support: 4,
            canary_k: 4,
            adapt_steps: 5,
            adapt_lr: 0.1,
            min_win: 0.0,
            max_generations: 8,
            ..LearnConfig::default()
        },
        fleet.model_store().clone(),
        templates,
        fleet.telemetry(),
    );
    fleet.set_learn_hook(learner.clone());

    // Round 1 harvests the shifted stream's rain clips and adapts at
    // run end; round 2 applies the promotion on the owning shard.
    for round in 1..=2 {
        let report = fleet.run(feeds()).expect("fleet runs");
        let stats = learner.stats();
        println!(
            "round {round}: {} frames served; harvested {} clips, {} adaptations, \
             {} canary rejects, {} promotions activated",
            report.completed,
            stats.harvested,
            stats.adaptations,
            stats.canary_rejects,
            stats.activated,
        );
    }

    println!("\npromotion journal:");
    for r in learner.records() {
        println!(
            "  stream {} [{}] gen {}: {} (parent {}) canary {:.4} vs {:.4} on {} clips -> {:?}",
            r.stream,
            r.weather.label(),
            r.generation,
            r.challenger,
            r.parent,
            r.challenger_margin,
            r.incumbent_margin,
            r.canary_clips,
            r.outcome,
        );
    }

    let binding = learner.binding(1, Weather::Rain);
    let store = fleet.model_store();
    println!(
        "\nstream 1 rain binding: {binding} (store: {} checkpoints, {:.1} KiB stored, \
         dedup ratio {:.2})",
        store.model_count(),
        store.stored_bytes() as f64 / 1024.0,
        store.logical_bytes() as f64 / store.stored_bytes().max(1) as f64,
    );
    let handles = fleet.handles();
    let promoted = handles[1]
        .session(&fleet)
        .with_switch_log(|log| log.iter().any(|r| r.model.contains('#')));
    println!(
        "challenger activated through the switcher on stream 1: {}",
        if promoted { "yes" } else { "no (still queued)" }
    );
}
