//! Weather-scene detection from frame statistics.
//!
//! The MS module needs a trigger: *which* scene model should be active?
//! SafeCross infers the scene from cheap photometric statistics of the
//! raw frame — no learned model required — and debounces the decision
//! over a voting window so a single odd frame cannot thrash the GPU with
//! switches.

use safecross_trafficsim::Weather;
use safecross_vision::GrayFrame;
use std::collections::VecDeque;

/// Photometric features of one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneFeatures {
    /// Mean intensity (snow scenes are bright, rain scenes dark).
    pub mean: f32,
    /// Population standard deviation of the intensity (contrast
    /// collapses in bad weather). Reported only: the vote reads the
    /// spread through the exact threshold of [`SceneFeatures::measure`],
    /// never through this rounded value.
    pub stddev: f32,
    /// Fraction of isolated bright pixels (snowflake speckle).
    pub speckle: f32,
    /// Fraction of bright short vertical runs (rain streaks).
    pub streaks: f32,
}

impl SceneFeatures {
    /// Measures a frame.
    ///
    /// Two sweeps. The first sums `S = Σp` and `Q = Σp²` in integers, and
    /// every statistic comes from those two exact sums: `mean` is `S / n`
    /// rounded once, `stddev` is `√(n·Q − S²) / n`, and the brightness
    /// threshold `⌊mean + 2.5·stddev⌋` (at most 235) is decided in integer
    /// arithmetic, so no rounding can move a vote. The second is the
    /// neighbour scan over packed bright-pixel rows, 64 pixels per word op.
    pub fn measure(frame: &GrayFrame) -> Self {
        Self::measure_with(frame, &mut Vec::new())
    }

    /// [`SceneFeatures::measure`] with the neighbour scan's three packed
    /// rows kept in `ring`, which grows to fit the frame once and is
    /// reused after that.
    pub(crate) fn measure_with(frame: &GrayFrame, ring: &mut Vec<u64>) -> Self {
        let pixels = frame.pixels();
        let (n, (sum, squares)) = (pixels.len() as u64, moments(pixels));
        let (speckle, streaks) = lone_bright_pixels(frame, bright(n, sum, squares), ring);
        let n_f32 = pixels.len() as f32;
        SceneFeatures {
            // S / n rounded correctly to f32: while S and n are at most
            // 2²⁴ both convert exactly, so this is `GrayFrame::mean`'s
            // value bit for bit — every 320×240 frame with a mean below
            // 218. The f64 quotient is within 2⁻⁵³ relative of S / n, and
            // a quotient that is not an f32 rounding midpoint lies at
            // least 2⁻²⁵ / n relative from one, so rounding it again is
            // still correct below 2²⁸ pixels.
            mean: (sum as f64 / n as f64) as f32,
            stddev: ((spread(n, sum, squares) as f64).sqrt() / n as f64) as f32,
            speckle: speckle as f32 / n_f32,
            streaks: streaks as f32 / n_f32,
        }
    }

    /// Classifies the features into a weather scene.
    pub fn classify(&self) -> Weather {
        // Snow: bright ambient and/or heavy isolated speckle.
        if self.mean > 115.0 || self.speckle > 0.004 {
            return Weather::Snow;
        }
        // Rain: darker ambient with vertical streak energy.
        if self.streaks > 0.0015 || self.mean < 80.0 {
            return Weather::Rain;
        }
        Weather::Daytime
    }
}

/// `(S, Q) = (Σp, Σp²)` in one pass: in `u32` lanes within each chunk
/// of 2¹⁶ pixels (2¹⁶ · 255² < 2³²), in `u64` across chunks.
pub(crate) fn moments(pixels: &[u8]) -> (u64, u64) {
    let (mut sum, mut squares) = (0u64, 0u64);
    for chunk in pixels.chunks(1 << 16) {
        let (s, q) = chunk.iter().fold((0u32, 0u32), |(s, q), &p| {
            let p = u32::from(p);
            (s + p, q + p * p)
        });
        sum += u64::from(s);
        squares += u64::from(q);
    }
    (sum, squares)
}

/// `n·Q − S² = n²σ²`, never negative (Cauchy–Schwarz).
fn spread(n: u64, sum: u64, squares: u64) -> i128 {
    i128::from(n) * i128::from(squares) - i128::from(sum).pow(2)
}

/// The neighbour scan's threshold for `n` pixels summing to `S` with
/// squares summing to `Q`: the largest `b ≤ 235` with
/// `b ≤ mean + 2.5·stddev`, that is `b·n ≤ S` or
/// `4(b·n − S)² ≤ 25(n·Q − S²)`, tested in exact integers. The `f64`
/// estimate is at most a step off, and the two loops correct it; `b = 0`
/// always passes, so the second stops there at the latest.
pub(crate) fn bright(n: u64, sum: u64, squares: u64) -> u8 {
    let spread = spread(n, sum, squares);
    let (n, s) = (i128::from(n), i128::from(sum));
    let within = |b: i128| {
        let d = b * n - s;
        d <= 0 || 4 * d * d <= 25 * spread
    };
    let estimate = (s as f64 + 2.5 * (spread as f64).sqrt()) / n as f64;
    // `as` saturates (and takes NaN to 0), so only the top needs a clamp.
    let mut b = (estimate as i128).min(235);
    while b < 235 && within(b + 1) {
        b += 1;
    }
    while b > 0 && !within(b) {
        b -= 1;
    }
    b as u8
}

/// Counts the interior pixels (`x ∈ 1..w−1`, `y ∈ 1..h−1`) at least
/// `bright` whose left and right neighbours are both below it, as
/// `(speckle, streaks)`: without a bright pixel above or below, and with
/// one. Rows are packed one bit per pixel into `ring`, three at a time,
/// so the neighbours of 64 pixels are three shifts and an or; edge
/// pixels are read as neighbours but never counted.
fn lone_bright_pixels(frame: &GrayFrame, bright: u8, ring: &mut Vec<u64>) -> (usize, usize) {
    let (w, h) = (frame.width(), frame.height());
    if h < 3 {
        return (0, 0);
    }
    let words = w.div_ceil(64);
    ring.resize(3 * words, 0);
    let slot = |y: usize| (y % 3) * words..(y % 3 + 1) * words;
    frame.pack_row_at_least(0, bright, &mut ring[slot(0)]);
    frame.pack_row_at_least(1, bright, &mut ring[slot(1)]);
    let last = (w - 1) / 64;
    let edge = |c: usize| u64::from(c == 0) | u64::from(c == last) << ((w - 1) % 64);
    let (mut speckle, mut streaks) = (0, 0);
    for y in 1..h - 1 {
        frame.pack_row_at_least(y + 1, bright, &mut ring[slot(y + 1)]);
        let (above, row, below) = (&ring[slot(y - 1)], &ring[slot(y)], &ring[slot(y + 1)]);
        for (c, &r) in row.iter().enumerate() {
            let prev = if c > 0 { row[c - 1] } else { 0 };
            let next = row.get(c + 1).copied().unwrap_or(0);
            let left = r << 1 | prev >> 63;
            let right = r >> 1 | next << 63;
            let lone = r & !left & !right & !edge(c);
            let vert = above[c] | below[c];
            speckle += (lone & !vert).count_ones() as usize;
            streaks += (lone & vert).count_ones() as usize;
        }
    }
    (speckle, streaks)
}

/// Debounced scene detector: majority vote over a sliding window.
#[derive(Debug, Clone)]
pub struct SceneDetector {
    window: VecDeque<Weather>,
    capacity: usize,
    current: Weather,
    /// The neighbour scan's packed rows, reused frame to frame.
    scan: Vec<u64>,
}

impl SceneDetector {
    /// Creates a detector voting over `window` frames, starting in
    /// daytime.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "voting window must be positive");
        SceneDetector {
            window: VecDeque::with_capacity(window),
            capacity: window,
            current: Weather::Daytime,
            scan: Vec::new(),
        }
    }

    /// The currently agreed scene.
    pub fn current(&self) -> Weather {
        self.current
    }

    /// Feeds one frame; returns `Some(new_scene)` when the vote flips.
    pub fn observe(&mut self, frame: &GrayFrame) -> Option<Weather> {
        let vote = SceneFeatures::measure_with(frame, &mut self.scan).classify();
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(vote);
        // On a tie the last of `Weather::ALL` wins — without effect on
        // the outcome, since only a strict majority can switch.
        let (winner, count) = Weather::ALL
            .iter()
            .map(|&w| (w, self.window.iter().filter(|&&v| v == w).count()))
            .max_by_key(|&(_, count)| count)
            .expect("ALL is non-empty");
        // Require a strict majority of the full window to switch.
        if winner != self.current && self.window.len() == self.capacity && 2 * count > self.capacity
        {
            self.current = winner;
            Some(winner)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator};

    fn rendered_frame(weather: Weather, seed: u64) -> GrayFrame {
        let mut sim = Simulator::new(Scenario::new(weather, true, 0.2), seed);
        sim.run(1.0);
        let mut renderer = Renderer::new(RenderConfig::default(), weather, seed);
        renderer.render(&sim)
    }

    #[test]
    fn classifies_rendered_scenes() {
        for (weather, seed) in [
            (Weather::Daytime, 1),
            (Weather::Rain, 2),
            (Weather::Snow, 3),
        ] {
            let frame = rendered_frame(weather, seed);
            let features = SceneFeatures::measure(&frame);
            assert_eq!(
                features.classify(),
                weather,
                "misclassified {weather}: {features:?}"
            );
        }
    }

    #[test]
    fn detector_needs_majority_to_switch() {
        let mut det = SceneDetector::new(5);
        assert_eq!(det.current(), Weather::Daytime);
        // Two snow frames in a window of five: no switch yet.
        let snow = rendered_frame(Weather::Snow, 4);
        let day = rendered_frame(Weather::Daytime, 5);
        det.observe(&day);
        det.observe(&day);
        det.observe(&day);
        assert_eq!(det.observe(&snow), None);
        assert_eq!(det.observe(&snow), None);
        assert_eq!(det.current(), Weather::Daytime);
        // Third snow frame gives snow 3/5: switch fires exactly once.
        assert_eq!(det.observe(&snow), Some(Weather::Snow));
        assert_eq!(det.observe(&snow), None);
        assert_eq!(det.current(), Weather::Snow);
    }

    #[test]
    fn tied_votes_never_switch() {
        // The winner of a tie is whichever weather `max_by_key` reaches
        // last, but no tie is a strict majority: however the votes are
        // split, the agreed scene only moves on more than half a window.
        let frames = [
            rendered_frame(Weather::Daytime, 5),
            rendered_frame(Weather::Rain, 6),
            rendered_frame(Weather::Snow, 4),
        ];
        for (a, b) in [(1, 2), (2, 1), (0, 1), (0, 2)] {
            let mut det = SceneDetector::new(4);
            for i in [a, a, b, b, a, a, b, b] {
                assert_eq!(det.observe(&frames[i]), None, "tie between {a} and {b}");
            }
            assert_eq!(det.current(), Weather::Daytime);
        }
    }

    #[test]
    fn detector_is_stable_within_a_scene() {
        let mut det = SceneDetector::new(5);
        let mut switches = 0;
        for seed in 0..30 {
            let frame = rendered_frame(Weather::Rain, 100 + seed);
            if det.observe(&frame).is_some() {
                switches += 1;
            }
        }
        assert_eq!(switches, 1, "rain should be detected exactly once");
        assert_eq!(det.current(), Weather::Rain);
    }
}
