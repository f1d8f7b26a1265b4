//! Integration of the scene detector with the model-switching runtime:
//! a weather transition in the rendered stream must flip the active
//! model exactly once, with pipelined (<10 ms) latency.

use safecross::{SafeCross, SafeCrossConfig};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{Renderer, RenderConfig, Scenario, Simulator, Weather};
use safecross_videoclass::SlowFastLite;

fn system() -> SafeCross {
    let mut rng = TensorRng::seed_from(0);
    let mut sc = SafeCross::try_new(SafeCrossConfig::default()).expect("default configuration is valid");
    for w in Weather::ALL {
        sc.register_model(w, SlowFastLite::new(2, &mut rng));
    }
    sc
}

fn feed(sc: &mut SafeCross, weather: Weather, frames: usize, seed: u64) -> Vec<(Weather, f64)> {
    let mut sim = Simulator::new(Scenario::new(weather, true, 0.15), seed);
    let mut renderer = Renderer::new(RenderConfig::default(), weather, seed);
    let mut switches = Vec::new();
    for _ in 0..frames {
        sim.step(DT);
        let out = sc.process_frame(&renderer.render(&sim));
        if let Some((scene, report)) = out.scene_switch {
            switches.push((scene, report.switch_overhead_ms));
        }
    }
    switches
}

#[test]
fn weather_transitions_switch_models_once_each() {
    let mut sc = system();
    // Daytime start: the detector already believes daytime, no switch.
    let s1 = feed(&mut sc, Weather::Daytime, 30, 1);
    assert!(s1.is_empty(), "unexpected switches {s1:?}");
    // Snow arrives: exactly one switch, pipelined latency.
    let s2 = feed(&mut sc, Weather::Snow, 30, 2);
    assert_eq!(s2.len(), 1, "switches {s2:?}");
    assert_eq!(s2[0].0, Weather::Snow);
    assert!(s2[0].1 < 10.0, "switch overhead {} ms", s2[0].1);
    // Back to daytime: one more switch.
    let s3 = feed(&mut sc, Weather::Daytime, 30, 3);
    assert_eq!(s3.len(), 1);
    assert_eq!(s3[0].0, Weather::Daytime);
    assert_eq!(sc.current_scene(), Weather::Daytime);
    // The switch log saw: initial daytime registration, snow, daytime —
    // each attributed to the absolute index of the frame whose vote
    // flipped the scene, so no switch lands before its transition.
    assert_eq!(sc.switch_count(), 3);
    sc.with_switch_log(|log| {
        assert_eq!(log[0].frame, 0, "initial registration switch is frame 0");
        assert!((30..60).contains(&log[1].frame), "snow switch at {}", log[1].frame);
        assert!((60..90).contains(&log[2].frame), "daytime switch at {}", log[2].frame);
    });
}

#[test]
fn rain_scene_is_detected_and_served() {
    let mut sc = system();
    let switches = feed(&mut sc, Weather::Rain, 40, 4);
    assert_eq!(switches.len(), 1);
    assert_eq!(switches[0].0, Weather::Rain);
    // Verdicts after the switch carry the rain model's identity.
    let last = sc.verdicts().last().expect("full buffer produced verdicts");
    assert_eq!(last.weather, Weather::Rain);
}
