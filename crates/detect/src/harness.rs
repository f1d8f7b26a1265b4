//! The end-to-end detection shoot-out (Table II / Fig. 8).

use crate::bgs::BgsDetector;
use crate::detector::Detector;
use crate::flow::{DenseFlowDetector, SparseFlowDetector};
use crate::yolo::{YoloLiteDetector, YoloProfile};
use crate::zone::DangerZone;
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{
    Renderer, RenderConfig, Scenario, Simulator, VehicleKind, Weather,
};
use safecross_vision::GrayFrame;
use std::time::Instant;

/// Shoot-out configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShootoutConfig {
    /// Frames fed before measurement (background settling).
    pub warmup_frames: usize,
    /// Measured frames (the hidden vehicle crosses the zone in these).
    pub eval_frames: usize,
    /// YOLO-lite training epochs (not counted in per-frame time).
    pub yolo_epochs: usize,
    /// Weather scene.
    pub weather: Weather,
    /// YOLO-lite network size (Paper for Table II timings, Small for
    /// quick tests).
    pub yolo_profile: YoloProfile,
    /// Extra Gaussian sensor noise (sigma, intensity units) layered on
    /// every frame — the paper's "decades-old camera" degradation. The
    /// weather model's own noise comes on top of this.
    pub legacy_noise: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for ShootoutConfig {
    fn default() -> Self {
        ShootoutConfig {
            warmup_frames: 12,
            eval_frames: 36,
            yolo_epochs: 10,
            weather: Weather::Daytime,
            yolo_profile: YoloProfile::Paper,
            legacy_noise: 20.0,
            seed: 7,
        }
    }
}

/// One Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name.
    pub name: &'static str,
    /// Mean wall-clock per measured frame, milliseconds.
    pub mean_ms_per_frame: f64,
    /// Whether the method flagged the vehicle on at least half of the
    /// frames where ground truth places it inside the danger zone.
    pub detected: bool,
    /// Fraction of ground-truth-occupied frames that were flagged.
    pub detection_rate: f64,
    /// False-positive rate on frames with an empty zone.
    pub false_positive_rate: f64,
}

/// Runs the four-method comparison on a scripted blind-area scene and
/// returns one row per method, in the paper's column order.
pub fn shootout(config: &ShootoutConfig) -> Vec<MethodResult> {
    let (frames, truth, zone, width, height) = build_scene(config);
    let yolo = build_trained_yolo(config, width, height);

    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(BgsDetector::new(width, height)),
        Box::new(SparseFlowDetector::new()),
        Box::new(DenseFlowDetector::new()),
        Box::new(yolo),
    ];

    let mut results = Vec::with_capacity(detectors.len());
    for det in detectors.iter_mut() {
        det.reset();
        // Warm-up (uncounted: background model settling).
        for frame in &frames[..config.warmup_frames] {
            det.detect(frame, &zone);
        }
        let mut hits = 0usize;
        let mut occupied = 0usize;
        let mut false_pos = 0usize;
        let mut empty = 0usize;
        let start = Instant::now();
        for (frame, &in_zone) in frames[config.warmup_frames..]
            .iter()
            .zip(&truth[config.warmup_frames..])
        {
            let flagged = det.detect(frame, &zone);
            if in_zone {
                occupied += 1;
                if flagged {
                    hits += 1;
                }
            } else {
                empty += 1;
                if flagged {
                    false_pos += 1;
                }
            }
        }
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let eval_frames = (frames.len() - config.warmup_frames) as f64;
        let detection_rate = if occupied > 0 {
            hits as f64 / occupied as f64
        } else {
            0.0
        };
        results.push(MethodResult {
            name: det.name(),
            mean_ms_per_frame: elapsed_ms / eval_frames,
            detected: detection_rate >= 0.5,
            detection_rate,
            false_positive_rate: if empty > 0 {
                false_pos as f64 / empty as f64
            } else {
                0.0
            },
        });
    }
    results
}

/// Renders the scripted scene: an occluded intersection where a hidden
/// vehicle crosses the danger zone mid-sequence. Returns frames, the
/// per-frame zone-occupancy ground truth, and the pixel danger zone.
fn build_scene(
    config: &ShootoutConfig,
) -> (Vec<GrayFrame>, Vec<bool>, DangerZone, usize, usize) {
    let render_cfg = RenderConfig::default();
    let mut sim = Simulator::new(Scenario::new(config.weather, true, 0.0), config.seed);
    let mut renderer = Renderer::new(render_cfg, config.weather, config.seed);
    let mut noise_rng = TensorRng::seed_from(config.seed ^ 0xdead);
    let zone = DangerZone::from_scene(renderer.camera(), sim.intersection(), VehicleKind::Van);
    let (lo, hi) = sim
        .intersection()
        .blind_interval(VehicleKind::Van)
        .expect("van occludes");

    // Time the injected vehicle to enter the blind interval right after
    // warm-up: it starts one warm-up-duration upstream of the interval.
    let params = config.weather.params();
    let speed = params.desired_speed;
    let start_s = (lo - speed * config.warmup_frames as f64 * DT).max(0.0);
    sim.inject_oncoming(VehicleKind::Car, start_s, speed);

    let total = config.warmup_frames + config.eval_frames;
    let mut frames = Vec::with_capacity(total);
    let mut truth = Vec::with_capacity(total);
    for _ in 0..total {
        sim.step(DT);
        let mut frame = renderer.render(&sim);
        degrade(&mut frame, config.legacy_noise, &mut noise_rng);
        frames.push(frame);
        let in_zone = sim
            .oncoming_vehicles()
            .iter()
            .any(|v| v.s >= lo && v.s <= hi);
        truth.push(in_zone);
    }
    (frames, truth, zone, render_cfg.width, render_cfg.height)
}

/// Applies the legacy-camera degradation: optical blur (3x3 box) plus
/// Gaussian sensor noise, on top of the weather artefacts.
fn degrade(frame: &mut GrayFrame, sigma: f64, rng: &mut TensorRng) {
    if sigma <= 0.0 {
        return;
    }
    let (w, h) = (frame.width(), frame.height());
    let mut blurred = GrayFrame::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut sum = 0u32;
            let mut n = 0u32;
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    let nx = x as i32 + dx;
                    let ny = y as i32 + dy;
                    if nx >= 0 && ny >= 0 && (nx as usize) < w && (ny as usize) < h {
                        sum += frame.at(nx as usize, ny as usize) as u32;
                        n += 1;
                    }
                }
            }
            blurred.set(x, y, (sum / n) as u8);
        }
    }
    *frame = blurred;
    let noise = rng.normal(&[w * h], sigma as f32);
    for (px, &n) in frame.pixels_mut().iter_mut().zip(noise.data()) {
        *px = (*px as f32 + n).clamp(0.0, 255.0) as u8;
    }
}

/// Trains YOLO-lite on a separate clear daytime scene with simulator
/// ground truth (mirroring "we re-trained the weights" in the paper).
fn build_trained_yolo(config: &ShootoutConfig, width: usize, height: usize) -> YoloLiteDetector {
    let render_cfg = RenderConfig::default();
    let mut sim = Simulator::new(Scenario::new(Weather::Daytime, false, 0.4), config.seed + 1);
    let mut renderer = Renderer::new(render_cfg, Weather::Daytime, config.seed + 1);
    let mut samples = Vec::new();
    let mut noise_rng = TensorRng::seed_from(config.seed ^ 0xbeef);
    for i in 0..120 {
        sim.step(DT);
        if i % 6 != 0 {
            continue;
        }
        let mut frame = renderer.render(&sim);
        degrade(&mut frame, config.legacy_noise, &mut noise_rng);
        let frame = frame;
        let centres: Vec<(usize, usize)> = sim
            .render_footprints()
            .iter()
            .filter_map(|(rect, _)| renderer.camera().world_to_pixel(rect.center))
            .collect();
        samples.push((frame, centres));
    }
    let mut rng = TensorRng::seed_from(config.seed + 2);
    let mut yolo =
        YoloLiteDetector::with_profile(width, height, config.yolo_profile, &mut rng);
    yolo.train(&samples, config.yolo_epochs, 0.08);
    yolo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ShootoutConfig {
        ShootoutConfig {
            warmup_frames: 10,
            eval_frames: 20,
            yolo_epochs: 2,
            yolo_profile: YoloProfile::Small,
            legacy_noise: 10.0,
            ..ShootoutConfig::default()
        }
    }

    #[test]
    fn shootout_produces_four_rows() {
        let rows = shootout(&quick_config());
        assert_eq!(rows.len(), 4);
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "background_subtraction",
                "sparse_optical_flow",
                "dense_optical_flow",
                "yolo_lite"
            ]
        );
        assert!(rows.iter().all(|r| r.mean_ms_per_frame > 0.0));
    }

    #[test]
    fn bgs_detects_and_beats_the_flow_methods() {
        // The full Table II ordering (including the paper-size YOLO) is
        // printed by `paper_tables table2`; here the Small YOLO keeps
        // the test fast, so only the flow comparisons are meaningful.
        let rows = shootout(&quick_config());
        let bgs = &rows[0];
        assert!(bgs.detected, "BGS must find the hidden vehicle: {bgs:?}");
        for other in &rows[1..3] {
            assert!(
                bgs.mean_ms_per_frame < other.mean_ms_per_frame,
                "BGS ({:.3} ms) should beat {} ({:.3} ms)",
                bgs.mean_ms_per_frame,
                other.name,
                other.mean_ms_per_frame
            );
        }
    }

    #[test]
    fn dense_flow_detects_but_costs_more_than_sparse() {
        let rows = shootout(&quick_config());
        let sparse = &rows[1];
        let dense = &rows[2];
        assert!(dense.detected, "{dense:?}");
        assert!(dense.mean_ms_per_frame > sparse.mean_ms_per_frame);
    }

    #[test]
    fn ground_truth_has_occupied_frames() {
        let cfg = quick_config();
        let (frames, truth, zone, _, _) = build_scene(&cfg);
        assert_eq!(frames.len(), truth.len());
        let occupied = truth.iter().filter(|&&b| b).count();
        assert!(occupied >= 5, "vehicle spends {occupied} frames in zone");
        assert!(zone.area() > 0);
    }
}
