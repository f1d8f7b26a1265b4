//! Property-based tests on the scene detector's voting invariants and
//! on the bit-identity of the feature sweeps with their per-pixel
//! reference.
//!
//! The detector debounces per-frame weather votes over a sliding
//! window. Whatever frames it sees — including adversarial noise — its
//! agreed scene must always be explainable by the votes actually in the
//! window: no weather it never observed, no switch without a strict
//! majority, no flip announced when the scene did not change.

use crate::scene::{SceneDetector, SceneFeatures};
use proptest::prelude::*;
use safecross_trafficsim::Weather;
use safecross_vision::GrayFrame;

fn arb_frame() -> impl Strategy<Value = GrayFrame> {
    (4usize..12, 4usize..12).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |px| GrayFrame::from_pixels(w, h, px))
    })
}

/// Widths 1–199, with the packed scan's word-boundary cases drawn six
/// times as often.
fn arb_scan_width() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 6] = [63, 64, 65, 127, 128, 129];
    (0usize..199 + 6 * EDGES.len()).prop_map(|i| match i.checked_sub(199) {
        None => i + 1,
        Some(edge) => EDGES[edge % EDGES.len()],
    })
}

/// Frames of every shape the scan has an edge case for — 1×N, N×1, 2×2,
/// one word wide and a bit either side, two words — either uniform
/// noise or a flat ambient level with sparse bright pixels (what rain
/// and snow look like).
fn arb_scene_frame() -> impl Strategy<Value = GrayFrame> {
    (arb_scan_width(), 1usize..14, any::<bool>(), 0u8..200).prop_flat_map(
        |(w, h, flat, ambient)| {
            proptest::collection::vec(any::<u8>(), w * h).prop_map(move |mut px| {
                if flat {
                    for p in &mut px {
                        *p = if *p < 10 {
                            190 + *p * 7
                        } else {
                            ambient + *p % 16
                        };
                    }
                }
                GrayFrame::from_pixels(w, h, px)
            })
        },
    )
}

fn feature_bits(f: SceneFeatures) -> [u32; 4] {
    [f.mean, f.stddev, f.speckle, f.streaks].map(f32::to_bits)
}

#[test]
fn measure_matches_the_reference_on_edge_frames() {
    let mut frames = Vec::new();
    for w in [1usize, 2, 3, 63, 64, 65, 129] {
        // Heights 1–3: no interior row, no interior row, one.
        for h in 1..=3 {
            let px = (0..w * h)
                .map(|i| if i % 3 == 0 { 250 } else { 40 })
                .collect();
            frames.push(GrayFrame::from_pixels(w, h, px));
        }
        // Uniform frames: all-zero gives `bright` = 0 and all-255 gives
        // 235, so every pixel is bright and none is lone.
        frames.push(GrayFrame::filled(w, 5, 0));
        frames.push(GrayFrame::filled(w, 5, 255));
        // Bright pixels only on the border (columns 0 and w − 1, rows 0
        // and h − 1): never counted, but read as the neighbours of the
        // isolated interior pixels next to them.
        let h = 6;
        let mut f = GrayFrame::filled(w, h, 30);
        for y in 0..h {
            f.set(0, y, 255);
            f.set(w - 1, y, 255);
        }
        for x in 0..w {
            f.set(x, 0, 255);
            f.set(x, h - 1, 255);
        }
        for (x, y) in [
            (2, 1),
            (w.saturating_sub(3), h - 2),
            (1, 3),
            (w.saturating_sub(2), 2),
        ] {
            f.set(x.min(w - 1), y, 255);
        }
        frames.push(f);
        // Horizontal bright pairs straddling each word boundary: neither
        // pixel is lone, which only the carry between words can tell.
        let mut f = GrayFrame::filled(w, 3, 30);
        for x in (64..w).step_by(64) {
            f.set(x - 1, 1, 255);
            f.set(x, 1, 255);
        }
        frames.push(f);
    }
    for frame in &frames {
        assert_eq!(
            feature_bits(SceneFeatures::measure(frame)),
            feature_bits(SceneFeatures::measure_reference(frame)),
            "{}×{} frame",
            frame.width(),
            frame.height()
        );
    }
}

proptest! {
    #[test]
    fn measure_matches_the_per_pixel_reference_bit_for_bit(frame in arb_scene_frame()) {
        prop_assert_eq!(
            feature_bits(SceneFeatures::measure(&frame)),
            feature_bits(SceneFeatures::measure_reference(&frame))
        );
    }

    #[test]
    fn measure_matches_the_reference_past_the_exact_integer_range(
        depth in 1u8..40,
        noise in proptest::collection::vec(any::<u8>(), 400 * 200),
    ) {
        // 400 × 200 pixels near 255 sum past 2²⁴, where the f32 fold
        // starts rounding and `mean` has to fall back to it; `depth` 1 is
        // the all-255 frame.
        let px = noise.into_iter().map(|r| 255 - r % depth).collect();
        let frame = GrayFrame::from_pixels(400, 200, px);
        prop_assert_eq!(
            feature_bits(SceneFeatures::measure(&frame)),
            feature_bits(SceneFeatures::measure_reference(&frame))
        );
    }

    #[test]
    fn detector_never_agrees_on_an_unobserved_weather(
        frames in proptest::collection::vec(arb_frame(), 1..40),
        window in 1usize..9,
    ) {
        let mut det = SceneDetector::new(window);
        // Independently recompute each frame's vote the same way the
        // detector does, and keep the sliding window ourselves.
        let mut votes: Vec<Weather> = Vec::new();
        for frame in &frames {
            let vote = SceneFeatures::measure(frame).classify();
            votes.push(vote);
            let switched = det.observe(frame);
            let tail_start = votes.len().saturating_sub(window);
            let in_window = &votes[tail_start..];

            if let Some(new_scene) = switched {
                // A switch target must be a vote inside the current
                // window — never a weather the detector did not observe.
                prop_assert!(
                    in_window.contains(&new_scene),
                    "switched to {new_scene} but window holds {in_window:?}"
                );
                // And it must hold a strict majority of a full window.
                let count = in_window.iter().filter(|&&v| v == new_scene).count();
                prop_assert!(in_window.len() == window);
                prop_assert!(
                    2 * count > window,
                    "switch without majority: {count}/{window}"
                );
                prop_assert_eq!(det.current(), new_scene);
            }

            // The agreed scene is always the daytime start or something
            // that actually appeared in the vote stream.
            prop_assert!(
                det.current() == Weather::Daytime || votes.contains(&det.current()),
                "current {} never voted ({votes:?})",
                det.current()
            );
        }
    }

    #[test]
    fn unanimous_votes_always_win(
        frames in proptest::collection::vec(arb_frame(), 1..10),
        window in 1usize..6,
    ) {
        // Feed each frame `window` times: once the window is saturated
        // with a unanimous vote, the detector must agree with it.
        let mut det = SceneDetector::new(window);
        for frame in &frames {
            let vote = SceneFeatures::measure(frame).classify();
            for _ in 0..window {
                det.observe(frame);
            }
            prop_assert_eq!(det.current(), vote);
        }
    }

    #[test]
    fn switch_fires_exactly_once_per_flip(
        frame in arb_frame(),
        window in 1usize..6,
    ) {
        // Repeating one frame forever can flip the detector at most once.
        let mut det = SceneDetector::new(window);
        let mut switches = 0;
        for _ in 0..window * 3 {
            if det.observe(&frame).is_some() {
                switches += 1;
            }
        }
        prop_assert!(switches <= 1, "same frame switched {switches} times");
    }
}
