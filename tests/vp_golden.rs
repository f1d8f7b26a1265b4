//! Cross-build pin of the frame path's front half.
//!
//! Every other equivalence suite compares two paths of *one* build
//! (fleet vs `process_frame`, replay vs live, packed vs per-pixel
//! reference). This one compares this build with the build before it:
//! the constants below were printed by the commit that still kept
//! `BinaryFrame` as a `Vec<bool>` and walked it pixel by pixel, and any
//! rewrite of background subtraction, opening, remap, the photometric
//! features or the scene vote has to reproduce them bit for bit.
//!
//! If a change moves one of them **on purpose**, say so in DESIGN.md and
//! replace the constant with what the failing assertion prints. One has
//! moved so far: `FEATURES`, when the scene statistics became exact
//! integer moments and `stddev`'s bits changed (DESIGN §6, "The scene
//! vote reads exact integer moments"); every vote stayed.

use safecross::{SceneDetector, SceneFeatures};
use safecross_tensor::ContentHasher;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_vision::{BinaryFrame, GrayFrame, PreprocessConfig, Preprocessor};

const FRAMES_PER_SCENE: usize = 64;
const SCENES: [(Weather, u64); 3] = [
    (Weather::Daytime, 11),
    (Weather::Rain, 12),
    (Weather::Snow, 13),
];

/// 3 × 64 rendered 320×240 frames: daytime, then rain, then snow.
fn footage() -> Vec<GrayFrame> {
    let mut frames = Vec::with_capacity(SCENES.len() * FRAMES_PER_SCENE);
    for (weather, seed) in SCENES {
        let mut sim = Simulator::new(Scenario::new(weather, true, 0.3), seed);
        let mut renderer = Renderer::new(RenderConfig::default(), weather, seed);
        for _ in 0..FRAMES_PER_SCENE {
            sim.step(DT);
            frames.push(renderer.render(&sim));
        }
    }
    frames
}

/// Folds a mask through the public accessors only, so the hash does not
/// depend on how the mask is stored.
fn fold_mask(h: &mut ContentHasher, mask: &BinaryFrame) {
    h.update_u64(mask.width() as u64);
    h.update_u64(mask.height() as u64);
    h.update_u64(mask.count() as u64);
    h.update(mask.to_gray().pixels());
}

/// Runs `Preprocessor::stages` over `frames` and returns the hashes of
/// (raw masks, opened masks, grids).
fn vp_hashes(frames: &[GrayFrame], config: PreprocessConfig) -> (u64, u64, u64) {
    let mut vp = Preprocessor::new(frames[0].width(), frames[0].height(), config);
    let (mut raw_h, mut opened_h, mut grid_h) = (
        ContentHasher::new(),
        ContentHasher::new(),
        ContentHasher::new(),
    );
    let mut opened_bits = 0;
    for frame in frames {
        let (raw, opened, grid) = vp.stages(frame);
        fold_mask(&mut raw_h, &raw);
        fold_mask(&mut opened_h, &opened);
        grid_h.update_tensor(&grid);
        opened_bits += opened.count();
    }
    assert!(
        opened_bits > 0,
        "the opening erased everything: the pin would be vacuous"
    );
    (raw_h.finish(), opened_h.finish(), grid_h.finish())
}

#[test]
fn full_frame_vp_matches_the_parent_build() {
    let frames = footage();
    let (raw, opened, grid) = vp_hashes(&frames, PreprocessConfig::default());
    assert_eq!(
        (raw, opened, grid),
        (FULL_RAW, FULL_OPENED, FULL_GRID),
        "320x240 r=1 20x20: got ({raw:#018x}, {opened:#018x}, {grid:#018x})"
    );
}

#[test]
fn cropped_vp_matches_the_parent_build() {
    // 201 = 3·64 + 9 and 131 = 2·64 + 3: neither side is a multiple of
    // the word size, the grid does not divide the frame, radius 2.
    let frames: Vec<GrayFrame> = footage().iter().map(|f| f.crop(37, 29, 201, 131)).collect();
    let config = PreprocessConfig {
        morph_radius: 2,
        grid_width: 7,
        grid_height: 9,
        ..PreprocessConfig::default()
    };
    let (raw, opened, grid) = vp_hashes(&frames, config);
    assert_eq!(
        (raw, opened, grid),
        (CROP_RAW, CROP_OPENED, CROP_GRID),
        "201x131 r=2 7x9: got ({raw:#018x}, {opened:#018x}, {grid:#018x})"
    );
}

#[test]
fn scene_features_and_votes_match_the_parent_build() {
    let mut detector = SceneDetector::new(8);
    let (mut features_h, mut votes_h) = (ContentHasher::new(), ContentHasher::new());
    let mut switches = Vec::new();
    for (i, frame) in footage().iter().enumerate() {
        let f = SceneFeatures::measure(frame);
        for v in [f.mean, f.stddev, f.speckle, f.streaks] {
            features_h.update(&v.to_bits().to_le_bytes());
        }
        let switched = detector.observe(frame);
        let code = |w: Weather| Weather::ALL.iter().position(|&a| a == w).expect("in ALL") as u64;
        votes_h.update_u64(code(f.classify()));
        votes_h.update_u64(switched.map_or(u64::MAX, code));
        votes_h.update_u64(code(detector.current()));
        if let Some(w) = switched {
            switches.push((i, w));
        }
    }
    // The switch sequence in the clear as well, so a failure says what moved.
    assert_eq!(switches, [(68, Weather::Rain), (132, Weather::Snow)]);
    let (features, votes) = (features_h.finish(), votes_h.finish());
    assert_eq!(
        (features, votes),
        (FEATURES, VOTES),
        "scene: got ({features:#018x}, {votes:#018x})"
    );
}

// Printed by the parent build (PR 22, `Vec<bool>` masks, per-pixel sweeps).
const FULL_RAW: u64 = 0x54e6_4b48_834f_7867;
const FULL_OPENED: u64 = 0xd4d0_8a51_9704_c4c9;
const FULL_GRID: u64 = 0x13c3_00d4_84aa_54c5;
const CROP_RAW: u64 = 0xb126_93cf_d14b_5946;
const CROP_OPENED: u64 = 0x6bac_85f3_a29f_c111;
const CROP_GRID: u64 = 0x6828_37a5_ee9f_ce72;
// Printed once `stddev` became √(n·Q − S²) / n from exact integer sums.
const FEATURES: u64 = 0x7b18_f2f3_33da_edde;
const VOTES: u64 = 0x7ab5_aee6_2409_8156;
