//! Chaos faults must be semantically invisible. Two regressions are
//! pinned here:
//!
//! 1. **Worker death mid-batch**: killing a worker's warm state (model
//!    clone cache, kernel scratch) before every single batch of a
//!    threaded lossless run must not change one bit of any stream's
//!    verdict or switch sequence versus the deterministic reference
//!    executor.
//! 2. **OOM-failing `switch_to` under load**: forcing switch attempts
//!    to fail with OOM mid-run must leave the content-addressed store
//!    accounting and the layer-group refcounts bit-identical and every
//!    session's bound checkpoints stored — the rollback path restores
//!    the previous model completely (extends the invariants of
//!    `tests/model_registry.rs`).
//! 3. **Trainer death mid-adaptation**: killing the continual-learning
//!    trainer after every challenger checkpoint registration must lose
//!    only that attempt's work — no orphan checkpoints, no promotion,
//!    incumbent still active, fleet still lossless.
//! 4. **Canary promotion OOM**: when every challenger activation fails
//!    with a synthetic OOM, the switcher rolls back to the incumbent,
//!    the learner retires the challenger's blobs, and the store
//!    accounting balances exactly.

use safecross::SafeCrossConfig;
use safecross_learn::{ContinualLearner, LearnConfig};
use safecross_replay::{chaos_feeds, ChaosConfig, FaultPlan, FeedChaos};
use safecross_serve::{FleetServer, ServeConfig, StreamSpec};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::SlowFastLite;
use safecross_vision::GrayFrame;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const W: usize = 64;
const H: usize = 48;

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

fn shared_models() -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(3);
    Weather::ALL
        .iter()
        .map(|&w| (w, SlowFastLite::new(2, &mut rng)))
        .collect()
}

fn fleet(shards: usize, streams: usize) -> FleetServer {
    let mut fleet = FleetServer::new(config(shards)).expect("valid config");
    for (w, m) in shared_models() {
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

/// Streams with weather transitions, so switches happen mid-run.
fn transition_feeds() -> Vec<Vec<GrayFrame>> {
    let mut rain = rendered(Weather::Daytime, 24, 2);
    rain.extend(rendered(Weather::Rain, 24, 21));
    let mut snow = rendered(Weather::Daytime, 24, 3);
    snow.extend(rendered(Weather::Snow, 24, 31));
    vec![rendered(Weather::Daytime, 48, 1), rain, snow]
}

#[test]
fn worker_death_before_every_batch_changes_no_output_bit() {
    let feeds = transition_feeds();
    let streams = feeds.len();

    // Ground truth: the deterministic reference executor.
    let mut reference = fleet(1, streams);
    reference.run_reference(feeds.clone()).expect("reference runs");

    // Chaotic threaded run: every shard loses its warm compute state
    // before every batch it dequeues (death period 1 = fire always).
    let mut chaotic = fleet(2, streams);
    let plan = FaultPlan::new(ChaosConfig {
        seed: 7,
        worker_death_period: 1,
        ..ChaosConfig::default()
    });
    chaotic.set_fault_hook(plan.clone());
    let report = chaotic
        .run(chaos_feeds(feeds, Duration::ZERO, &FeedChaos::default()))
        .expect("chaotic run completes");
    assert_eq!(report.completed, (48 * 3) as u64, "lossless despite deaths");
    assert!(plan.deaths() > 0, "the fault actually fired");

    let ref_handles = reference.handles();
    let chaos_handles = chaotic.handles();
    for s in 0..streams {
        assert_eq!(
            ref_handles[s].verdicts(&reference),
            chaos_handles[s].verdicts(&chaotic),
            "stream {s} verdicts diverged under worker death"
        );
        ref_handles[s].session(&reference).with_switch_log(|expected| {
            chaos_handles[s].session(&chaotic).with_switch_log(|got| {
                assert_eq!(expected, got, "stream {s} switch log diverged under worker death");
            });
        });
    }
}

#[test]
fn forced_oom_switches_leave_store_and_resident_weights_intact() {
    let feeds = transition_feeds();
    let streams = feeds.len();
    let mut fleet = fleet(2, streams);

    // Baseline invariants before chaos: store accounting and refcounts.
    let (refs_before, logical_before): (Vec<(String, u64, usize)>, usize) = {
        let store = fleet.model_store();
        let mut refs = Vec::new();
        for name in store.models() {
            for g in store.manifest(&name).expect("registered").groups {
                refs.push((g.name.clone(), g.hash, store.group_refs(g.hash)));
            }
        }
        (refs, store.logical_bytes())
    };

    // Force every other switch attempt to fail with OOM, fleet-wide.
    let plan = FaultPlan::new(ChaosConfig {
        seed: 11,
        oom_period: 2,
        ..ChaosConfig::default()
    });
    fleet.set_switch_fault_hook(plan.clone());

    let report = fleet
        .run(chaos_feeds(feeds, Duration::ZERO, &FeedChaos::default()))
        .expect("run completes despite forced OOM");
    assert_eq!(report.completed, (48 * 3) as u64, "no frame lost to failed switches");
    assert!(plan.ooms() > 0, "the fault actually fired");

    let store = fleet.model_store();
    assert_eq!(
        store.logical_bytes(),
        store.stored_bytes() + store.dedup_bytes(),
        "store accounting drifted after OOM rollbacks"
    );
    assert_eq!(store.logical_bytes(), logical_before, "checkpoints mutated");
    for (name, hash, before) in refs_before {
        assert_eq!(
            store.group_refs(hash),
            before,
            "group {name} refcount changed: rollback leaked or dropped a reference"
        );
    }

    // Whatever model each session ended up binding, its checkpoint is
    // still stored: neither a rolled-back swap nor eviction lost one.
    assert_bound_checkpoints_stored(&fleet, streams);
}

/// Every session's registered scenes are bound to checkpoints the
/// store still holds: whichever scene a stream switches to, a shard
/// building its replica loads exactly that checkpoint.
fn assert_bound_checkpoints_stored(fleet: &FleetServer, streams: usize) {
    let store = fleet.model_store();
    let handles = fleet.handles();
    assert_eq!(handles.len(), streams);
    for (s, handle) in handles.iter().enumerate() {
        let session = handle.session(fleet);
        let scenes = session.registered_scenes();
        assert!(!scenes.is_empty(), "stream {s}: no scene registered");
        for weather in scenes {
            let name = session.scene_model_name(weather).expect("registered scene");
            assert!(
                store.state_dict(&name).is_some(),
                "stream {s}: {} checkpoint {name:?} missing from the store",
                weather.label()
            );
        }
    }
}

/// A continual learner wired to the fleet's store and telemetry, with
/// the architecture templates cloned from the shared weather models.
fn learner_for(fleet: &FleetServer, config: LearnConfig) -> Arc<ContinualLearner> {
    let templates: HashMap<Weather, SlowFastLite> = shared_models().into_iter().collect();
    ContinualLearner::new(
        config,
        fleet.model_store().clone(),
        templates,
        fleet.telemetry(),
    )
}

/// Learner knobs that make chaos bite fast: harvest every clip, adapt
/// from tiny support sets, and let any canary margin win.
fn eager_learn_config() -> LearnConfig {
    LearnConfig {
        seed: 99,
        harvest_below: 1.1, // every verdict confidence is below this
        min_support: 2,
        min_win: -1.0, // any challenger wins its canary
        max_generations: 8,
        ..LearnConfig::default()
    }
}

#[test]
fn trainer_death_mid_adaptation_leaves_no_orphans_and_no_promotions() {
    let feeds = transition_feeds();
    let streams = feeds.len();
    let mut fleet = fleet(2, streams);

    // Every single adaptation attempt dies right after the challenger
    // checkpoint lands in the store — the worst-case orphan window.
    let plan = FaultPlan::new(ChaosConfig {
        seed: 13,
        trainer_death_period: 1,
        ..ChaosConfig::default()
    });
    let learner = learner_for(&fleet, eager_learn_config());
    learner.set_fault_hook(plan.clone());
    fleet.set_learn_hook(learner.clone());

    let report = fleet
        .run(chaos_feeds(feeds, Duration::ZERO, &FeedChaos::default()))
        .expect("run completes despite trainer deaths");
    assert_eq!(report.completed, (48 * 3) as u64, "fleet stays lossless");
    assert!(plan.trainer_deaths() > 0, "the fault actually fired");

    let stats = learner.stats();
    assert!(stats.harvested > 0, "chaos run harvested nothing");
    assert!(stats.adaptations > 0, "no adaptation ever started");
    assert_eq!(stats.trainer_deaths, stats.adaptations, "every attempt died");
    assert_eq!(stats.promotions_queued, 0, "a dead trainer promoted a model");

    // Recovery removed every orphan challenger: only the three pinned
    // base checkpoints remain, and the accounting balances.
    let store = fleet.model_store();
    assert_eq!(store.model_count(), 3, "orphan challenger left in the store");
    assert_eq!(
        store.logical_bytes(),
        store.stored_bytes() + store.dedup_bytes(),
        "store accounting drifted after trainer deaths"
    );
    assert_bound_checkpoints_stored(&fleet, streams);
}

#[test]
fn challenger_activation_oom_rolls_back_to_the_incumbent() {
    let streams = transition_feeds().len();
    let mut fleet = fleet(2, streams);

    // Base-model switches succeed (oom_period 0); every *challenger*
    // activation fails with a synthetic OOM (period 1), so each canary
    // winner exercises the rollback path on its owning shard.
    let plan = FaultPlan::new(ChaosConfig {
        seed: 17,
        challenger_oom_period: 1,
        ..ChaosConfig::default()
    });
    fleet.set_switch_fault_hook(plan.clone());
    let learner = learner_for(&fleet, eager_learn_config());
    fleet.set_learn_hook(learner.clone());

    // Two rounds: the first harvests and (at run end) adapts + queues
    // promotions deterministically; the second applies them at the top
    // of its serve loop, where each activation OOMs and rolls back.
    for round in 0..2 {
        let report = fleet
            .run(chaos_feeds(
                transition_feeds(),
                Duration::ZERO,
                &FeedChaos::default(),
            ))
            .expect("run completes despite challenger OOMs");
        assert_eq!(
            report.completed,
            (48 * 3) as u64,
            "round {round} lost frames to failed promotions"
        );
    }

    assert!(plan.challenger_ooms() > 0, "the fault actually fired");
    let stats = learner.stats();
    assert!(stats.promotions_queued > 0, "no canary winner was ever queued");
    assert!(stats.rolled_back > 0, "no activation hit the OOM rollback path");
    assert_eq!(stats.activated, 0, "an activation survived a forced OOM");

    // Rolled-back and deferred challengers were retired; only winners
    // still queued (earned by the final run's end-of-run training pass
    // and never applied) keep their checkpoints.
    let outstanding = stats.promotions_queued - stats.rolled_back - stats.deferred;
    let store = fleet.model_store();
    assert_eq!(
        store.model_count() as u64,
        3 + outstanding,
        "retired challengers must leave the store"
    );
    assert_eq!(
        store.logical_bytes(),
        store.stored_bytes() + store.dedup_bytes(),
        "store accounting drifted after promotion rollbacks"
    );
    assert_bound_checkpoints_stored(&fleet, streams);
}
