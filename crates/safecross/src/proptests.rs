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

/// Frames of every shape the scan has an edge case for — 1×N, N×1, 2×2,
/// wider than one scan chunk — either uniform noise or a flat ambient
/// level with sparse bright pixels (what rain and snow look like).
fn arb_scene_frame() -> impl Strategy<Value = GrayFrame> {
    (1usize..90, 1usize..14, any::<bool>(), 0u8..200).prop_flat_map(|(w, h, flat, ambient)| {
        proptest::collection::vec(any::<u8>(), w * h).prop_map(move |mut px| {
            if flat {
                for p in &mut px {
                    *p = if *p < 10 { 190 + *p * 7 } else { ambient + *p % 16 };
                }
            }
            GrayFrame::from_pixels(w, h, px)
        })
    })
}

fn feature_bits(f: SceneFeatures) -> [u32; 4] {
    [f.mean, f.stddev, f.speckle, f.streaks].map(f32::to_bits)
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
