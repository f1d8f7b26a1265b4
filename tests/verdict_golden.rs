//! Cross-build pin of the whole frame path, verdict by verdict.
//!
//! `vp_golden.rs` stops at the scene vote; this suite pins what comes
//! out of the classifier. The constants below were printed by the build
//! whose SlowFast eval forward still lowered every position of every
//! layer densely, and any rewrite of the lowering, the GEMMs, the eval
//! forward's data flow or the verdict path has to reproduce them bit for
//! bit — at both precisions, in `process_frame` loops and in a fleet,
//! and across a mid-stream promotion through `bind_scene_model`, which
//! also catches any per-model cache (a transposed or quantized weight)
//! that a rebind leaves stale.
//!
//! The models are the benchmark's untrained SlowFast-lite with every
//! bias, BN γ/β and running statistic replaced by deterministic non-zero
//! values. With the untrained models' zero biases and identity BN, an
//! empty region of the clip stays exactly `0.0` through every layer and
//! a change that mishandles empty regions would hide behind the zeros.
//!
//! If a change moves one of them **on purpose**, say so in DESIGN.md and
//! replace the constant with what the failing assertion prints, in a
//! diff of its own.

use safecross::{SafeCross, SafeCrossConfig, SwitchRecord, Verdict};
use safecross_serve::{paced_feed, FleetServer, Precision, ServeConfig, StreamSpec};
use safecross_tensor::{ContentHasher, Tensor, TensorRng};
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use safecross_vision::GrayFrame;
use std::time::Duration;

/// An untrained SlowFast-lite drawn from `rng`, with every bias, BN γ/β
/// and running statistic replaced by non-zero values from the same
/// stream.
fn model(rng: &mut TensorRng) -> SlowFastLite {
    let mut model = SlowFastLite::new(2, rng);
    let state: Vec<(String, Tensor)> = model
        .state_dict()
        .into_iter()
        .map(|(name, t)| {
            let value = if name.ends_with(".running_var") || name.ends_with(".gamma") {
                rng.uniform(t.dims(), 0.5, 1.5)
            } else if name.ends_with(".bias")
                || name.ends_with(".beta")
                || name.ends_with(".running_mean")
            {
                rng.uniform(t.dims(), -0.3, 0.3)
            } else {
                t
            };
            (name, value)
        })
        .collect();
    model.load_state_dict(&state);
    model
}

/// The three scene models, drawn by [`model`] from a fixed seed.
fn models() -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(0);
    Weather::ALL.iter().map(|&w| (w, model(&mut rng))).collect()
}

/// `(weather, frames)` phases rendered back to back, one seed per phase.
fn footage(phases: &[(Weather, usize)], seed: u64) -> Vec<GrayFrame> {
    let mut frames = Vec::new();
    for (i, &(weather, n)) in phases.iter().enumerate() {
        let phase_seed = seed * 100 + i as u64;
        let mut sim = Simulator::new(Scenario::new(weather, true, 0.3), phase_seed);
        let mut renderer = Renderer::new(RenderConfig::default(), weather, phase_seed);
        for _ in 0..n {
            sim.step(DT);
            frames.push(renderer.render(&sim));
        }
    }
    frames
}

/// Folds verdict class, confidence bits and scene, then the switch log,
/// into one hash.
fn fold(verdicts: &[Verdict], log: &[SwitchRecord]) -> u64 {
    let code = |w: Weather| Weather::ALL.iter().position(|&a| a == w).expect("in ALL") as u64;
    let mut h = ContentHasher::new();
    h.update_u64(verdicts.len() as u64);
    for v in verdicts {
        h.update_u64(v.class.index() as u64);
        h.update_u64(u64::from(v.confidence.to_bits()));
        h.update_u64(code(v.weather));
    }
    h.update_u64(log.len() as u64);
    for r in log {
        h.update(r.model.as_bytes());
        h.update_u64(r.frame);
        h.update_u64(r.latency_ms.to_bits());
    }
    h.finish()
}

/// A standalone session with the three scene models registered.
fn session() -> SafeCross {
    let mut sc = SafeCross::try_new(SafeCrossConfig::default()).expect("valid config");
    for (w, m) in models() {
        sc.register_model(w, m);
    }
    sc
}

/// The verdict count and folded hash of a session that has switched
/// scenes at least once.
fn summary(sc: &SafeCross) -> (usize, u64) {
    assert!(
        sc.switch_count() > 0,
        "no scene switch: the pin would miss the switch path"
    );
    let hash = sc.with_switch_log(|log| fold(sc.verdicts(), log));
    (sc.verdicts().len(), hash)
}

/// A `process_frame` loop over `frames`, returning the verdict count and
/// the folded hash.
fn process(frames: &[GrayFrame]) -> (usize, u64) {
    let mut sc = session();
    for f in frames {
        sc.process_frame(f);
    }
    summary(&sc)
}

#[test]
fn day_to_rain_verdicts_match_the_parent_build() {
    let frames = footage(&[(Weather::Daytime, 56), (Weather::Rain, 56)], 21);
    let (n, hash) = process(&frames);
    assert_eq!(
        n,
        frames.len() - 31,
        "one verdict per frame once the segment is full"
    );
    assert_eq!(hash, DAY_TO_RAIN, "day->rain: got {hash:#018x}");
}

#[test]
fn snow_round_trip_verdicts_match_the_parent_build() {
    let phases = [
        (Weather::Daytime, 40),
        (Weather::Snow, 48),
        (Weather::Daytime, 48),
    ];
    let frames = footage(&phases, 22);
    let (n, hash) = process(&frames);
    assert_eq!(n, frames.len() - 31);
    assert_eq!(hash, SNOW_ROUND_TRIP, "snow round trip: got {hash:#018x}");
}

#[test]
fn promotion_verdicts_match_the_parent_build() {
    // A rain challenger with other weights (and its own non-zero biases
    // and BN statistics) goes into the session's store and is promoted
    // mid-stream, once rain is the classified scene: every later rain
    // verdict comes from the promoted weights.
    let frames = footage(&[(Weather::Daytime, 40), (Weather::Rain, 72)], 25);
    let mut sc = session();
    let challenger = model(&mut TensorRng::seed_from(1));
    sc.model_store()
        .register_model("rain-challenger", &challenger.state_groups());
    for (i, f) in frames.iter().enumerate() {
        if i == 64 {
            assert_eq!(sc.current_scene(), Weather::Rain);
            let bound = sc
                .bind_scene_model(Weather::Rain, "rain-challenger")
                .expect("the challenger is stored");
            assert!(bound, "rain is the classified scene, so the bind is live");
        }
        sc.process_frame(f);
    }
    assert_eq!(
        sc.scene_model_name(Weather::Rain).as_deref(),
        Some("rain-challenger")
    );
    let (n, hash) = summary(&sc);
    assert_eq!(n, frames.len() - 31);
    assert_eq!(hash, PROMOTION, "promotion: got {hash:#018x}");
}

#[test]
fn mixed_precision_fleet_verdicts_match_the_parent_build() {
    let feeds = [
        footage(&[(Weather::Daytime, 40), (Weather::Rain, 40)], 23),
        footage(&[(Weather::Snow, 40), (Weather::Daytime, 40)], 24),
    ];
    let config = ServeConfig::builder()
        .shards(2)
        .shedding(false)
        .build()
        .expect("valid serve configuration");
    let mut fleet = FleetServer::new(config).expect("valid serve configuration");
    for (w, m) in models() {
        fleet.register_model(w, m).expect("models first");
    }
    for precision in [Precision::F32, Precision::Int8] {
        fleet
            .open_stream(StreamSpec::new().with_precision(precision))
            .expect("models are registered");
    }
    let report = fleet
        .run(
            feeds
                .iter()
                .map(|f| paced_feed(f.clone(), Duration::ZERO))
                .collect(),
        )
        .expect("lossless run");
    assert_eq!(report.shed, 0);
    let hashes: Vec<u64> = fleet
        .handles()
        .iter()
        .map(|h| {
            let s = h.session(&fleet);
            assert_eq!(s.verdicts().len(), 80 - 31);
            s.with_switch_log(|log| fold(s.verdicts(), log))
        })
        .collect();
    assert_eq!(
        hashes,
        [FLEET_F32, FLEET_INT8],
        "fleet: got [{:#018x}, {:#018x}]",
        hashes[0],
        hashes[1]
    );
}

// Printed by the parent build (dense eval forward: every position of
// every layer lowered and multiplied).
const DAY_TO_RAIN: u64 = 0x3b4a_9438_47c6_44b5;
const SNOW_ROUND_TRIP: u64 = 0x3e14_bd3b_e27d_1f4d;
const FLEET_F32: u64 = 0x1862_4d08_88a6_d88c;
const FLEET_INT8: u64 = 0xbd52_007c_e429_eac7;
// Printed by the build whose planned eval forward still multiplied a
// lowered panel.
const PROMOTION: u64 = 0xee65_1035_6a78_7461;
