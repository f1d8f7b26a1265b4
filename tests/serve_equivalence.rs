//! The serving layer's core contract: multiplexing N streams over a
//! shared batched-inference pool must not change a single bit of any
//! stream's output. Every stream's verdict sequence, switch log, frame
//! counter, and final scene must match a standalone sequential
//! `process_frame` loop over the same frames with the same models —
//! in the deterministic single-threaded reference mode AND in the real
//! threaded mode with shedding disabled (lossless serving). One camera
//! is a fleet of one: the same contract holds for a lone stream at any
//! shard count, where the spare shards are pure executors.

use safecross::{FrameOutcome, SafeCross, SafeCrossConfig};
use safecross_serve::{paced_feed, FleetServer, ServeConfig, StreamSpec};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::SlowFastLite;
use safecross_vision::GrayFrame;
use std::time::Duration;

/// One shared model per weather, built deterministically. The fleet and
/// every standalone comparator register clones of these same models in
/// the same order — the precondition for bit-identity.
fn shared_models() -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(0);
    Weather::ALL
        .iter()
        .map(|&w| (w, SlowFastLite::new(2, &mut rng)))
        .collect()
}

fn standalone(models: &[(Weather, SlowFastLite)], telemetry: bool) -> SafeCross {
    let config = SafeCrossConfig::builder()
        .telemetry(telemetry)
        .build()
        .expect("valid configuration");
    let mut sc = SafeCross::try_new(config).expect("validated configuration");
    for (w, m) in models {
        sc.register_model(*w, m.clone());
    }
    sc
}

/// Renders `frames` frames of one weather's footage.
fn rendered(weather: Weather, frames: usize, seed: u64) -> Vec<GrayFrame> {
    let mut sim = Simulator::new(Scenario::new(weather, true, 0.15), seed);
    let mut renderer = Renderer::new(RenderConfig::default(), weather, seed);
    (0..frames)
        .map(|_| {
            sim.step(DT);
            renderer.render(&sim)
        })
        .collect()
}

fn stream(phases: &[(Weather, usize)], seed: u64) -> Vec<GrayFrame> {
    phases
        .iter()
        .enumerate()
        .flat_map(|(i, &(weather, frames))| rendered(weather, frames, seed * 100 + i as u64))
        .collect()
}

/// Four streams in distinct regimes: steady daytime, a rain transition,
/// a snow round trip, and rain-from-the-start (early switch away from
/// the initial scene).
fn fleet_feeds() -> Vec<Vec<GrayFrame>> {
    vec![
        stream(&[(Weather::Daytime, 50)], 1),
        stream(&[(Weather::Daytime, 30), (Weather::Rain, 30)], 2),
        stream(
            &[
                (Weather::Daytime, 26),
                (Weather::Snow, 26),
                (Weather::Daytime, 26),
            ],
            3,
        ),
        stream(&[(Weather::Rain, 40)], 4),
    ]
}

/// Runs every feed through a standalone sequential system and returns
/// the per-stream expected states.
fn expected_states(models: &[(Weather, SlowFastLite)], feeds: &[Vec<GrayFrame>]) -> Vec<SafeCross> {
    feeds
        .iter()
        .map(|frames| {
            let mut sc = standalone(models, false);
            for f in frames {
                sc.process_frame(f);
            }
            sc
        })
        .collect()
}

fn assert_streams_match(fleet: &FleetServer, expected: &[SafeCross]) {
    let handles = fleet.handles();
    for (i, want) in expected.iter().enumerate() {
        let got = handles[i].session(fleet);
        assert_eq!(
            got.verdicts(),
            want.verdicts(),
            "stream {i} verdicts diverged"
        );
        assert_eq!(
            got.frames_seen(),
            want.frames_seen(),
            "stream {i} frame count diverged"
        );
        assert_eq!(
            got.current_scene(),
            want.current_scene(),
            "stream {i} final scene diverged"
        );
        got.with_switch_log(|got_log| {
            want.with_switch_log(|want_log| {
                assert_eq!(got_log, want_log, "stream {i} switch log diverged");
            });
        });
    }
}

fn fleet(models: &[(Weather, SlowFastLite)], streams: usize) -> FleetServer {
    let config = ServeConfig::builder()
        .shards(2)
        .shedding(false)
        .build()
        .expect("valid serve configuration");
    let mut fleet = FleetServer::new(config).expect("valid serve configuration");
    for (w, m) in models {
        fleet.register_model(*w, m.clone()).expect("models first");
    }
    for _ in 0..streams {
        fleet
            .open_stream(StreamSpec::new())
            .expect("models are registered");
    }
    fleet
}

#[test]
fn reference_mode_is_bit_identical_to_standalone() {
    let models = shared_models();
    let feeds = fleet_feeds();
    let expected = expected_states(&models, &feeds);

    let mut served = fleet(&models, feeds.len());
    let total: usize = feeds.iter().map(Vec::len).sum();
    let report = served.run_reference(feeds).expect("reference run succeeds");

    assert_eq!(
        report.completed as usize, total,
        "reference mode is lossless"
    );
    assert_eq!(report.shed, 0);
    assert_streams_match(&served, &expected);
}

#[test]
fn threaded_lossless_mode_is_bit_identical_to_standalone() {
    let models = shared_models();
    let feeds = fleet_feeds();
    let expected = expected_states(&models, &feeds);

    let mut served = fleet(&models, feeds.len());
    let total: usize = feeds.iter().map(Vec::len).sum();
    let report = served
        .run(
            feeds
                .into_iter()
                .map(|frames| paced_feed(frames, Duration::ZERO))
                .collect(),
        )
        .expect("threaded run succeeds");

    assert_eq!(
        report.completed as usize, total,
        "shedding disabled means every frame completes"
    );
    assert_eq!(report.shed, 0);
    assert!(report.batches > 0, "the executor actually batched");
    assert_streams_match(&served, &expected);
}

#[test]
fn threaded_equivalence_is_shard_count_independent() {
    // Shard count and queue entry size change executor interleaving and
    // which clips share an entry, never per-stream results. At one shard
    // every stream's clips share one queue, so entries mix weathers and
    // go out both full and when the queue runs dry.
    let models = shared_models();
    let feeds: Vec<Vec<GrayFrame>> = vec![
        stream(&[(Weather::Daytime, 20), (Weather::Snow, 22)], 7),
        stream(&[(Weather::Daytime, 40)], 8),
        stream(&[(Weather::Rain, 34)], 9),
        stream(&[(Weather::Snow, 18), (Weather::Daytime, 18)], 10),
    ];
    let expected = expected_states(&models, &feeds);

    for batch_max in [1, 3, 8] {
        for shards in [1, 4] {
            let config = ServeConfig::builder()
                .shards(shards)
                .shedding(false)
                .batch_max(batch_max)
                .build()
                .expect("valid serve configuration");
            let mut served = FleetServer::new(config).expect("valid serve configuration");
            for (w, m) in &models {
                served.register_model(*w, m.clone()).expect("models first");
            }
            for _ in 0..feeds.len() {
                served
                    .open_stream(StreamSpec::new())
                    .expect("models are registered");
            }
            let report = served
                .run(
                    feeds
                        .iter()
                        .map(|frames| paced_feed(frames.clone(), Duration::ZERO))
                        .collect(),
                )
                .expect("threaded run succeeds");
            assert!(
                report.max_batch <= batch_max,
                "batch_max {batch_max}: an entry of {} clips",
                report.max_batch
            );
            assert_streams_match(&served, &expected);
        }
    }
}

#[test]
fn reference_and_threaded_agree_with_each_other() {
    let models = shared_models();
    let feeds = fleet_feeds();

    let mut reference = fleet(&models, feeds.len());
    reference
        .run_reference(feeds.clone())
        .expect("reference run succeeds");

    let mut threaded = fleet(&models, feeds.len());
    threaded
        .run(
            feeds
                .into_iter()
                .map(|frames| paced_feed(frames, Duration::ZERO))
                .collect(),
        )
        .expect("threaded run succeeds");

    let ref_handles = reference.handles();
    let thr_handles = threaded.handles();
    for i in 0..reference.streams() {
        assert_eq!(
            ref_handles[i].verdicts(&reference),
            thr_handles[i].verdicts(&threaded),
            "stream {i} diverged between modes"
        );
    }
}

/// A lossless fleet serving one camera over `shards` shard threads,
/// with fleet and session telemetry both on or both off.
fn one_camera_fleet(
    models: &[(Weather, SlowFastLite)],
    shards: usize,
    telemetry: bool,
) -> FleetServer {
    let stream = SafeCrossConfig::builder()
        .telemetry(telemetry)
        .build()
        .expect("valid configuration");
    let config = ServeConfig::builder()
        .shards(shards)
        .shedding(false)
        .telemetry(telemetry)
        .stream(stream)
        .build()
        .expect("valid serve configuration");
    let mut fleet = FleetServer::new(config).expect("valid serve configuration");
    for (w, m) in models {
        fleet.register_model(*w, m.clone()).expect("models first");
    }
    fleet
        .open_stream(StreamSpec::new())
        .expect("models are registered");
    fleet
}

fn snow_round_trip() -> Vec<GrayFrame> {
    stream(
        &[
            (Weather::Daytime, 36),
            (Weather::Snow, 36),
            (Weather::Daytime, 36),
        ],
        11,
    )
}

#[test]
fn one_camera_fleet_is_bit_identical_at_any_shard_count() {
    // Streams < shards: the shards that own no stream settle at once
    // and execute stolen batches, overlapping the camera's VP with its
    // classification. Verdicts, frame count, final scene and the switch
    // log (two mid-stream switches, model reuse) must not notice.
    let models = shared_models();
    let frames = snow_round_trip();
    let expected = expected_states(&models, std::slice::from_ref(&frames));

    for shards in [1, 2, 4] {
        let mut served = one_camera_fleet(&models, shards, false);
        let report = served
            .run(vec![paced_feed(frames.clone(), Duration::ZERO)])
            .expect("one-camera run succeeds");
        assert_eq!(report.completed as usize, frames.len(), "shards {shards}");
        assert_eq!(report.shed, 0);
        assert_streams_match(&served, &expected);
    }
}

#[test]
fn instrumentation_does_not_perturb_outcomes() {
    // The bit-identity guarantee must survive live telemetry: an
    // instrumented sequential loop and a fully instrumented one-camera
    // fleet both agree with the uninstrumented sequential loop.
    let models = shared_models();
    let frames = snow_round_trip();

    let mut plain = standalone(&models, false);
    let expected: Vec<FrameOutcome> = frames.iter().map(|f| plain.process_frame(f)).collect();

    let mut timed = standalone(&models, true);
    let timed_outcomes: Vec<FrameOutcome> = frames.iter().map(|f| timed.process_frame(f)).collect();
    assert_eq!(
        timed_outcomes, expected,
        "sequential diverged under telemetry"
    );
    assert_eq!(
        timed
            .telemetry()
            .snapshot()
            .histogram("stage.classify.step_ms")
            .map(|h| h.count),
        Some(frames.len() as u64)
    );

    let plain = [plain];
    let mut fleets = Vec::new();
    for shards in [1, 2, 4] {
        let mut served = one_camera_fleet(&models, shards, true);
        served
            .run(vec![paced_feed(frames.clone(), Duration::ZERO)])
            .expect("one-camera run succeeds");
        assert_streams_match(&served, &plain);
        assert_eq!(
            served.telemetry().snapshot().counter("serve.completed"),
            Some(frames.len() as u64)
        );
        fleets.push(served);
    }

    // And the instrumentation actually recorded the run: every driver
    // counted every frame through the scene and VP stages, and saw the
    // initial daytime switch plus the two mid-stream ones.
    let served_sessions = fleets.iter().map(|f| f.handles()[0].session(f));
    for sc in std::iter::once(&timed).chain(served_sessions) {
        let snap = sc.telemetry().snapshot();
        assert_eq!(
            snap.counter("stage.scene.frames"),
            Some(frames.len() as u64)
        );
        assert_eq!(snap.counter("vp.frames"), Some(frames.len() as u64));
        assert_eq!(snap.counter("ms.switches"), Some(3));
    }
}

#[test]
fn idle_shard_executes_for_a_lone_stream() {
    // A flooded single camera at two shards: the shard that owns no
    // stream must pick up batches, or the second core is wasted.
    let models = shared_models();
    let frames: Vec<GrayFrame> = (0..240)
        .map(|i| GrayFrame::filled(320, 240, 70 + (i % 40) as u8))
        .collect();
    let mut served = one_camera_fleet(&models, 2, false);
    let report = served
        .run(vec![paced_feed(frames, Duration::ZERO)])
        .expect("one-camera run succeeds");
    assert_eq!(report.completed, 240);
    assert!(report.steals > 0, "the idle shard never executed a batch");
}
