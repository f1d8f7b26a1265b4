//! Property-based tests on the scene detector's voting invariants, on
//! the exactness of the scene features against a brute-force
//! reference, and on the verdict's fail-safe for non-finite logits.
//!
//! The detector debounces per-frame weather votes over a sliding
//! window. Whatever frames it sees — including adversarial noise — its
//! agreed scene must always be explainable by the votes actually in the
//! window: no weather it never observed, no switch without a strict
//! majority, no flip announced when the scene did not change.

use crate::framework::top_class_from_logits;
use crate::scene::{bright, moments, SceneDetector, SceneFeatures};
use proptest::prelude::*;
use safecross_dataset::Class;
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

/// What `measure` must compute, brute force: `n`, `S` and `Q` summed
/// pixel by pixel in `i128`; `bright` the first `b` from 235 down with
/// `b·n ≤ S` or `4(b·n − S)² ≤ 25(n·Q − S²)`; and the lone bright
/// interior pixels found by testing each one's four neighbours.
struct Reference {
    n: i128,
    sum: i128,
    squares: i128,
    bright: u8,
    speckle: usize,
    streaks: usize,
}

fn reference(frame: &GrayFrame) -> Reference {
    let (mut n, mut sum, mut squares) = (0i128, 0i128, 0i128);
    for &p in frame.pixels() {
        n += 1;
        sum += i128::from(p);
        squares += i128::from(p) * i128::from(p);
    }
    let spread = n * squares - sum * sum;
    let bright = (0..=235u8)
        .rev()
        .find(|&b| {
            let d = i128::from(b) * n - sum;
            d <= 0 || 4 * d * d <= 25 * spread
        })
        .expect("b = 0 always passes");
    let (w, h) = (frame.width(), frame.height());
    let lit = |x: usize, y: usize| frame.at(x, y) >= bright;
    let (mut speckle, mut streaks) = (0, 0);
    for y in 1..h.saturating_sub(1) {
        for x in 1..w.saturating_sub(1) {
            if !lit(x, y) || lit(x - 1, y) || lit(x + 1, y) {
                continue;
            }
            if lit(x, y - 1) || lit(x, y + 1) {
                streaks += 1;
            } else {
                speckle += 1;
            }
        }
    }
    Reference {
        n,
        sum,
        squares,
        bright,
        speckle,
        streaks,
    }
}

/// Holds `measure` to the brute-force reference: the exact moments and
/// threshold, the neighbour counts, `mean` rounded correctly from `S / n`
/// (no neighbouring `f32` is closer) and `stddev` from the exact spread.
fn assert_exact(frame: &GrayFrame) {
    let shape = format!("{}×{} frame", frame.width(), frame.height());
    let r = reference(frame);
    let (n, (sum, squares)) = (frame.pixels().len() as u64, moments(frame.pixels()));
    assert_eq!(
        [sum, squares].map(i128::from),
        [r.sum, r.squares],
        "{shape}"
    );
    assert_eq!(bright(n, sum, squares), r.bright, "{shape}");
    let f = SceneFeatures::measure(frame);
    let n = r.n as f32;
    assert_eq!(
        [f.speckle, f.streaks].map(f32::to_bits),
        [r.speckle as f32 / n, r.streaks as f32 / n].map(f32::to_bits),
        "{shape}"
    );
    // `mean · n` is exact in f64 below 2²⁹ pixels.
    let miss = |mean: f32| (f64::from(mean) * r.n as f64 - r.sum as f64).abs();
    let below = f32::from_bits(f.mean.to_bits().saturating_sub(1));
    let above = f32::from_bits(f.mean.to_bits() + 1);
    assert!(
        miss(f.mean) <= miss(below) && miss(f.mean) <= miss(above),
        "{shape}: mean {} is not S / n = {} / {} rounded",
        f.mean,
        r.sum,
        r.n
    );
    let spread = r.n * r.squares - r.sum * r.sum;
    let stddev = ((spread as f64).sqrt() / r.n as f64) as f32;
    assert_eq!(f.stddev.to_bits(), stddev.to_bits(), "{shape}");
}

/// The serial `f32` statistics `measure` computed before they were
/// exact: mean and the variance about it as left-to-right folds, and the
/// threshold truncated from them.
fn f32_statistics(frame: &GrayFrame) -> (f32, f32, u8) {
    let pixels = frame.pixels();
    let n = pixels.len() as f32;
    let mean = pixels.iter().map(|&p| p as f32).sum::<f32>() / n;
    let variance = pixels
        .iter()
        .map(|&p| {
            let d = p as f32 - mean;
            d * d
        })
        .sum::<f32>()
        / n;
    let stddev = variance.sqrt();
    (mean, stddev, (mean + 2.5 * stddev).min(235.0) as u8)
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
        // Uniform frames: σ = 0, so `bright` is the level itself up to
        // 235 — all-255 gives 235, every pixel is bright and none is lone.
        for level in [0, 1, 117, 234, 235, 236, 255] {
            frames.push(GrayFrame::filled(w, 5, level));
        }
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
    for level in [0, 100, 255] {
        frames.push(GrayFrame::filled(1, 1, level));
    }
    // mean + 2.5·stddev lands exactly on an integer: 2 + 2.5·2 = 7 for
    // [0, 4], and 2 + 2.5·2 = 7 again for [0, 0, 4, 4] as one row of four
    // and as a 2×2 square. Only `≤` in the second test keeps 7.
    frames.push(GrayFrame::from_pixels(2, 1, vec![0, 4]));
    frames.push(GrayFrame::from_pixels(4, 1, vec![0, 0, 4, 4]));
    frames.push(GrayFrame::from_pixels(2, 2, vec![0, 4, 4, 0]));
    for frame in &frames {
        assert_exact(frame);
    }
    assert_eq!(bright(2, 4, 16), 7);
    assert_eq!(bright(7, 7 * 255, 7 * 255 * 255), 235);
    assert_eq!(bright(7, 7 * 234, 7 * 234 * 234), 234);
}

#[test]
fn moments_are_exact_past_u32_on_a_2048_square_frame() {
    // 2²² pixels: Q reaches 2.7e11 for all-255 and about 1e11 for the
    // varied frame, far past 2³², while every chunk's u32 lanes stay
    // below it.
    let varied = (0..2048 * 2048)
        .map(|i: usize| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    for frame in [
        GrayFrame::filled(2048, 2048, 255),
        GrayFrame::from_pixels(2048, 2048, varied),
    ] {
        assert_exact(&frame);
    }
}

proptest! {
    #[test]
    fn measure_matches_the_per_pixel_reference_bit_for_bit(frame in arb_scene_frame()) {
        assert_exact(&frame);
        // These frames sum below 2²⁴, where `mean` is `GrayFrame::mean`.
        prop_assert_eq!(SceneFeatures::measure(&frame).mean.to_bits(), frame.mean().to_bits());
    }

    #[test]
    fn exact_statistics_stay_near_the_f32_formulation(frame in arb_scene_frame()) {
        let f = SceneFeatures::measure(&frame);
        let (mean, stddev, old_bright) = f32_statistics(&frame);
        let near = |exact: f32, old: f32| (exact - old).abs() <= 2e-4 * old.abs();
        prop_assert!(near(f.mean, mean), "mean {} against {mean}", f.mean);
        prop_assert!(near(f.stddev, stddev), "stddev {} against {stddev}", f.stddev);
        let (sum, squares) = moments(frame.pixels());
        let exact = bright(frame.pixels().len() as u64, sum, squares);
        prop_assert!(exact.abs_diff(old_bright) <= 1, "bright {exact} against {old_bright}");
    }

    #[test]
    fn measure_matches_the_reference_past_the_exact_integer_range(
        depth in 1u8..40,
        noise in proptest::collection::vec(any::<u8>(), 400 * 200),
    ) {
        // 400 × 200 pixels near 255 sum past 2²⁴, where an f32 sum
        // rounds; `depth` 1 is the all-255 frame.
        let px = noise.into_iter().map(|r| 255 - r % depth).collect();
        assert_exact(&GrayFrame::from_pixels(400, 200, px));
    }

    #[test]
    fn nonfinite_logits_fail_safe_to_danger(
        row in proptest::collection::vec(0usize..7, 2..6),
    ) {
        // One logit per class at least, drawn from a small pool so that
        // ties, NaN and ±inf are common.
        const POOL: [f32; 7] = [0.0, 1.0, -2.5, 1.0e-3, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let row: Vec<f32> = row.into_iter().map(|i| POOL[i]).collect();
        let mut probs = vec![0.0; row.len()];
        let (class, _) = top_class_from_logits(&row, &mut probs);
        let garbage = row.iter().any(|v| v.is_nan() || *v == f32::INFINITY)
            || row.iter().all(|&v| v == f32::NEG_INFINITY);
        if garbage {
            prop_assert!(class == Class::Danger.index(), "row {row:?} gave class {class}");
        } else {
            // Otherwise the first of the largest logits wins.
            let top = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let first = row.iter().position(|&v| v == top);
            prop_assert!(first == Some(class), "row {row:?} gave class {class}");
        }
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
