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
    /// Intensity standard deviation (contrast collapses in bad weather).
    pub stddev: f32,
    /// Fraction of isolated bright pixels (snowflake speckle).
    pub speckle: f32,
    /// Fraction of bright short vertical runs (rain streaks).
    pub streaks: f32,
}

/// Pixels per skip test of the neighbour scan: long enough that the
/// test is one vector max, short enough that a lone streak does not drag
/// a whole row through the per-pixel branch.
const SCAN_CHUNK: usize = 32;

impl SceneFeatures {
    /// Measures a frame.
    ///
    /// Three sweeps, each as cheap as bit-identity with the original
    /// per-pixel formulation allows: the mean once (integer where exact,
    /// see [`GrayFrame::mean`]); the variance about it as the
    /// left-to-right `f32` fold of `(p − mean)²` that
    /// [`GrayFrame::stddev`] performs — every add rounds, so the order is
    /// part of the result and the fold stays serial; and the neighbour
    /// scan over row slices, skipping every stretch with no bright pixel
    /// in it.
    pub fn measure(frame: &GrayFrame) -> Self {
        let (w, h) = (frame.width(), frame.height());
        let pixels = frame.pixels();
        let n = pixels.len() as f32;
        let mean = frame.mean();
        let squares = pixels.iter().map(|&p| {
            let d = p as f32 - mean;
            d * d
        });
        let stddev = (squares.sum::<f32>() / n).sqrt();

        // In [0, 235], so the cast truncates exactly as a wider integer would.
        let bright = (mean + 2.5 * stddev).min(235.0) as u8;
        let mut speckle = 0usize;
        let mut streaks = 0usize;
        if w > 2 {
            for y in 1..h - 1 {
                let (above, rest) = pixels[(y - 1) * w..(y + 2) * w].split_at(w);
                let (row, below) = rest.split_at(w);
                for start in (1..w - 1).step_by(SCAN_CHUNK) {
                    let end = (start + SCAN_CHUNK).min(w - 1);
                    if row[start..end].iter().fold(0, |m, &p| m.max(p)) < bright {
                        continue;
                    }
                    for x in start..end {
                        if row[x] < bright {
                            continue;
                        }
                        let (up, down) = (above[x] >= bright, below[x] >= bright);
                        let (left, right) = (row[x - 1] >= bright, row[x + 1] >= bright);
                        if !up && !down && !left && !right {
                            speckle += 1;
                        } else if (up || down) && !left && !right {
                            streaks += 1;
                        }
                    }
                }
            }
        }
        SceneFeatures {
            mean,
            stddev,
            speckle: speckle as f32 / n,
            streaks: streaks as f32 / n,
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

/// Debounced scene detector: majority vote over a sliding window.
#[derive(Debug, Clone)]
pub struct SceneDetector {
    window: VecDeque<Weather>,
    capacity: usize,
    current: Weather,
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
        }
    }

    /// The currently agreed scene.
    pub fn current(&self) -> Weather {
        self.current
    }

    /// Feeds one frame; returns `Some(new_scene)` when the vote flips.
    pub fn observe(&mut self, frame: &GrayFrame) -> Option<Weather> {
        let vote = SceneFeatures::measure(frame).classify();
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
impl SceneFeatures {
    /// The per-pixel body `measure` replaced (with `GrayFrame::stddev`
    /// folding the mean a second and third time), kept as the reference
    /// the proptests compare against bit for bit.
    pub(crate) fn measure_reference(frame: &GrayFrame) -> Self {
        let pixels = frame.pixels();
        let n = pixels.len() as f32;
        let mean = pixels.iter().map(|&p| p as f32).sum::<f32>() / n;
        let stddev = (pixels
            .iter()
            .map(|&p| {
                let d = p as f32 - mean;
                d * d
            })
            .sum::<f32>()
            / n)
            .sqrt();
        let (w, h) = (frame.width(), frame.height());
        let bright = (mean + 2.5 * stddev).min(235.0) as i32;
        let mut speckle = 0usize;
        let mut streaks = 0usize;
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let v = frame.at(x, y) as i32;
                if v < bright {
                    continue;
                }
                let above = frame.at(x, y - 1) as i32 >= bright;
                let below = frame.at(x, y + 1) as i32 >= bright;
                let left = frame.at(x - 1, y) as i32 >= bright;
                let right = frame.at(x + 1, y) as i32 >= bright;
                if !above && !below && !left && !right {
                    speckle += 1;
                } else if (above || below) && !left && !right {
                    streaks += 1;
                }
            }
        }
        SceneFeatures {
            mean,
            stddev,
            speckle: speckle as f32 / n,
            streaks: streaks as f32 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_trafficsim::{Renderer, RenderConfig, Scenario, Simulator};

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
