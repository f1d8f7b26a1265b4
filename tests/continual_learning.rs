//! End-to-end continual learning: a fleet serving a stream whose scene
//! drifts onto a *degraded* checkpoint must harvest the low-margin
//! clips, few-shot-adapt a challenger in the background, grade it on
//! held-out canary clips, and promote it through the switcher — while
//! every stream the learner never touched stays bit-identical to the
//! deterministic reference executor.
//!
//! The distribution shift is injected at the model: the Rain base
//! checkpoint's weights are scaled toward zero (near-uniform logits,
//! ~0.5 confidence), while Daytime and Snow are sharpened (saturated
//! softmax, ~1.0 confidence). Only the shifted stream's rain clips
//! fall under the harvest margin, so adaptation pressure lands exactly
//! where the paper's per-intersection adaptation loop would put it.

use safecross::SafeCrossConfig;
use safecross_learn::{ContinualLearner, LearnConfig};
use safecross_modelswitch::SwitchRecord;
use safecross_serve::{FleetServer, PromotionOutcome, ServeConfig, StreamSpec};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use safecross_vision::GrayFrame;
use std::collections::HashMap;

const W: usize = 64;
const H: usize = 48;
const FRAMES: usize = 48;
const ROUNDS: usize = 2;

fn config(shards: usize) -> ServeConfig {
    ServeConfig::builder()
        .shards(shards)
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
        .expect("config is valid")
}

/// One base model per weather, with the distribution shift baked in:
/// Rain is degraded toward zero weights (near-uniform logits, ~0.5
/// confidence on every rain clip), while Daytime and Snow get a large
/// class bias stamped into their heads so nothing they serve ever
/// falls under the harvest margin (~0.9997 confidence).
fn shifted_models() -> Vec<(Weather, SlowFastLite)> {
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

fn fleet(shards: usize, streams: usize) -> FleetServer {
    let mut fleet = FleetServer::new(config(shards)).expect("valid config");
    for (w, m) in shifted_models() {
        fleet.register_model(w, m).expect("no streams yet");
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

/// Stream 1 carries the injected shift: it drifts into rain — the
/// scene served by the degraded checkpoint — and stays there. Streams
/// 0 and 2 never leave scenes served by sharpened checkpoints.
fn shifted_feeds() -> Vec<Vec<GrayFrame>> {
    let mut rain = rendered(Weather::Daytime, 16, 21);
    rain.extend(rendered(Weather::Rain, FRAMES - 16, 22));
    let mut snow = rendered(Weather::Daytime, 24, 31);
    snow.extend(rendered(Weather::Snow, FRAMES - 24, 32));
    vec![rendered(Weather::Daytime, FRAMES, 11), rain, snow]
}

fn learn_config() -> LearnConfig {
    LearnConfig {
        seed: 42,
        // Sharpened checkpoints serve well above this; the degraded
        // Rain checkpoint's near-uniform logits land far below it.
        harvest_below: 0.9,
        min_support: 4,
        canary_k: 4,
        adapt_steps: 5,
        adapt_lr: 0.1,
        min_win: 0.0,
        max_generations: 8,
        ..LearnConfig::default()
    }
}

fn switch_key(log: &[SwitchRecord]) -> Vec<(String, u64)> {
    log.iter().map(|r| (r.model.clone(), r.frame)).collect()
}

#[test]
fn distribution_shift_is_harvested_adapted_and_promoted() {
    let streams = shifted_feeds().len();

    // Ground truth: the reference executor, no learner installed.
    let mut reference = fleet(1, streams);
    for _ in 0..ROUNDS {
        reference
            .run_reference(shifted_feeds())
            .expect("reference runs");
    }

    // The learning fleet: sharded, with the continual learner wired to
    // the shared store and telemetry.
    let mut learning = fleet(2, streams);
    let templates: HashMap<Weather, SlowFastLite> = shifted_models().into_iter().collect();
    let learner = ContinualLearner::new(
        learn_config(),
        learning.model_store().clone(),
        templates,
        learning.telemetry(),
    );
    learning.set_learn_hook(learner.clone());
    for round in 0..ROUNDS {
        let report = learning.run(shifted_feeds()).expect("learning fleet runs");
        assert_eq!(
            report.completed,
            (FRAMES * streams) as u64,
            "round {round} lost frames while learning"
        );
    }

    // The pipeline fired end to end: harvest → adapt → canary →
    // promote, on the shifted stream's rain lane.
    let stats = learner.stats();
    assert!(stats.harvested > 0, "the degraded checkpoint harvested nothing");
    assert!(stats.adaptations > 0, "no adaptation ever ran");
    assert!(stats.activated >= 1, "no challenger was promoted: {stats:?}");
    let records = learner.records();
    let promoted = records
        .iter()
        .find(|r| {
            r.stream == 1
                && r.weather == Weather::Rain
                && r.outcome == Some(PromotionOutcome::Activated)
        })
        .unwrap_or_else(|| panic!("no activated rain promotion on stream 1: {records:?}"));
    assert!(
        promoted.challenger_margin > promoted.incumbent_margin,
        "journaled canary margins do not show a strict win: {promoted:?}"
    );
    assert!(promoted.canary_clips >= 1, "canary graded zero held-out clips");
    assert_eq!(promoted.parent, Weather::Rain.label(), "first promotion's parent");

    // The learner's binding moved off the base checkpoint, the
    // challenger is live in the store, and the stream's switch log
    // shows it activated through the switcher's pipelined-swap path.
    let binding = learner.binding(1, Weather::Rain);
    assert_ne!(binding, Weather::Rain.label(), "binding never moved");
    let store = learning.model_store();
    assert!(store.contains(&binding), "bound challenger missing from store");
    let handles = learning.handles();
    assert!(
        handles[1]
            .session(&learning)
            .with_switch_log(|log| log.iter().any(|r| r.model.contains('#'))),
        "no challenger activation in the promoted stream's switch log"
    );

    // Streams the learner never promoted are bit-identical to the
    // reference executor — verdicts and switch sequences alike.
    let ref_handles = reference.handles();
    for s in [0usize, 2] {
        assert_eq!(
            ref_handles[s].verdicts(&reference),
            handles[s].verdicts(&learning),
            "stream {s} verdicts diverged under a learner that never touched it"
        );
        assert_eq!(
            ref_handles[s].session(&reference).with_switch_log(switch_key),
            handles[s].session(&learning).with_switch_log(switch_key),
            "stream {s} switch log diverged under a learner that never touched it"
        );
    }

    // Store accounting stays exact with challengers registered.
    assert_eq!(
        store.logical_bytes(),
        store.stored_bytes() + store.dedup_bytes(),
        "store accounting drifted across adaptation and promotion"
    );
}

/// A fleet with no learner must behave exactly as before the learn
/// hook existed: no `learn.*` telemetry, no promotions, sharded output
/// bit-identical to the reference executor (the hook seam is free when
/// unused).
#[test]
fn fleet_without_a_learner_is_unchanged_by_the_hook_seam() {
    let streams = shifted_feeds().len();
    let mut reference = fleet(1, streams);
    reference
        .run_reference(shifted_feeds())
        .expect("reference runs");
    let mut sharded = fleet(2, streams);
    let report = sharded.run(shifted_feeds()).expect("sharded run completes");
    assert_eq!(report.completed, (FRAMES * streams) as u64);
    let ref_handles = reference.handles();
    let got_handles = sharded.handles();
    for s in 0..streams {
        assert_eq!(
            ref_handles[s].verdicts(&reference),
            got_handles[s].verdicts(&sharded),
            "stream {s} verdicts diverged with no learner installed"
        );
    }
}
