//! Dynamic background subtraction.

use crate::frame::pack_flags;
use crate::{BinaryFrame, GrayFrame};

/// Running-average background subtraction with a dynamic background
/// model, the paper's chosen detection method (Sec. III-B).
///
/// The background is an exponentially weighted moving average of all
/// frames: `B <- (1 - alpha) * B + alpha * F`. A pixel is foreground when
/// `|F - B| > threshold`. Because the background keeps adapting, parked
/// vehicles melt into the background after `~1/alpha` frames — exactly
/// the behaviour the paper relies on to ignore the stationary occluder
/// while tracking vehicles moving through the blind area.
///
/// ```
/// use safecross_vision::{BackgroundSubtractor, GrayFrame};
///
/// let mut bgs = BackgroundSubtractor::new(4, 4, 0.1, 25.0);
/// let frame = GrayFrame::filled(4, 4, 80);
/// let mask = bgs.apply(&frame); // first frame initialises the model
/// assert_eq!(mask.count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct BackgroundSubtractor {
    background: Vec<f32>,
    width: usize,
    height: usize,
    alpha: f32,
    threshold: f32,
    initialised: bool,
}

impl BackgroundSubtractor {
    /// Creates a subtractor for `width x height` frames.
    ///
    /// `alpha` is the background adaptation rate in `(0, 1]`;
    /// `threshold` is the absolute intensity difference that marks
    /// foreground.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero, `alpha` is outside `(0, 1]`, or
    /// `threshold` is negative.
    pub fn new(width: usize, height: usize, alpha: f32, threshold: f32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(threshold >= 0.0, "threshold must be non-negative");
        BackgroundSubtractor {
            background: vec![0.0; width * height],
            width,
            height,
            alpha,
            threshold,
            initialised: false,
        }
    }

    /// Processes one frame: returns the foreground mask and updates the
    /// background model.
    ///
    /// The first frame initialises the model and yields an empty mask.
    ///
    /// # Panics
    ///
    /// Panics if the frame size differs from the configured size.
    pub fn apply(&mut self, frame: &GrayFrame) -> BinaryFrame {
        let mut mask = BinaryFrame::new(self.width, self.height);
        self.apply_into(frame, &mut mask);
        mask
    }

    /// [`BackgroundSubtractor::apply`] into a caller-owned mask of the
    /// configured size, every word of which is overwritten.
    pub(crate) fn apply_into(&mut self, frame: &GrayFrame, mask: &mut BinaryFrame) {
        assert_eq!(frame.width(), self.width, "frame width mismatch");
        assert_eq!(frame.height(), self.height, "frame height mismatch");
        assert!(
            (mask.width(), mask.height()) == (self.width, self.height),
            "mask size mismatch"
        );
        if !self.initialised {
            for (b, &p) in self.background.iter_mut().zip(frame.pixels()) {
                *b = p as f32;
            }
            self.initialised = true;
            mask.clear();
            return;
        }
        let (alpha, threshold) = (self.alpha, self.threshold);
        let rows = frame
            .pixels()
            .chunks_exact(self.width)
            .zip(self.background.chunks_exact_mut(self.width));
        for (words, (pixels, background)) in mask.rows_mut().zip(rows) {
            // One word per 64 pixels; a short last chunk leaves the
            // padding bits zero.
            let chunks = pixels.chunks(64).zip(background.chunks_mut(64));
            for (word, (pixels, background)) in words.iter_mut().zip(chunks) {
                // The arithmetic first, into one flag byte per pixel (a
                // loop the compiler vectorises), the packing after.
                let mut foreground = [0u8; 64];
                for ((flag, &p), b) in foreground.iter_mut().zip(pixels).zip(background) {
                    let step = p as f32 - *b;
                    *flag = u8::from(step.abs() > threshold);
                    *b += alpha * step;
                }
                *word = pack_flags(&foreground);
            }
        }
    }

    /// A snapshot of the current background estimate.
    pub fn background(&self) -> GrayFrame {
        let pixels = self
            .background
            .iter()
            .map(|&b| b.round().clamp(0.0, 255.0) as u8)
            .collect();
        GrayFrame::from_pixels(self.width, self.height, pixels)
    }

    /// Whether the model has seen at least one frame.
    pub fn is_initialised(&self) -> bool {
        self.initialised
    }

    /// Resets the model (e.g. after a scene change).
    pub fn reset(&mut self) {
        self.initialised = false;
        self.background.iter_mut().for_each(|b| *b = 0.0);
    }
}

#[cfg(test)]
impl BackgroundSubtractor {
    /// The per-pixel sweep `apply_into` replaced, kept as the reference
    /// the proptests compare against.
    pub(crate) fn apply_reference(&mut self, frame: &GrayFrame) -> BinaryFrame {
        assert_eq!(frame.width(), self.width, "frame width mismatch");
        assert_eq!(frame.height(), self.height, "frame height mismatch");
        let mut mask = BinaryFrame::new(self.width, self.height);
        if !self.initialised {
            for (b, &p) in self.background.iter_mut().zip(frame.pixels()) {
                *b = p as f32;
            }
            self.initialised = true;
            return mask;
        }
        for (i, (&p, b)) in frame
            .pixels()
            .iter()
            .zip(self.background.iter_mut())
            .enumerate()
        {
            let diff = (p as f32 - *b).abs();
            if diff > self.threshold {
                mask.put(i % self.width, i / self.width, true);
            }
            *b += self.alpha * (p as f32 - *b);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(bgs: &mut BackgroundSubtractor, frame: &GrayFrame, n: usize) {
        for _ in 0..n {
            bgs.apply(frame);
        }
    }

    #[test]
    fn static_scene_produces_empty_mask() {
        let mut bgs = BackgroundSubtractor::new(6, 6, 0.05, 25.0);
        let frame = GrayFrame::filled(6, 6, 120);
        settle(&mut bgs, &frame, 10);
        assert_eq!(bgs.apply(&frame).count(), 0);
    }

    #[test]
    fn moving_object_is_detected() {
        let mut bgs = BackgroundSubtractor::new(6, 6, 0.05, 25.0);
        let empty = GrayFrame::filled(6, 6, 100);
        settle(&mut bgs, &empty, 10);
        let mut with_car = empty.clone();
        with_car.set(2, 3, 240);
        with_car.set(3, 3, 240);
        let mask = bgs.apply(&with_car);
        assert!(mask.get(2, 3) && mask.get(3, 3));
        assert_eq!(mask.count(), 2);
    }

    #[test]
    fn parked_vehicle_fades_into_background() {
        let mut bgs = BackgroundSubtractor::new(4, 4, 0.2, 25.0);
        let empty = GrayFrame::filled(4, 4, 100);
        settle(&mut bgs, &empty, 5);
        let mut parked = empty.clone();
        parked.set(1, 1, 250);
        // Initially detected...
        assert!(bgs.apply(&parked).get(1, 1));
        // ...but after sitting still it becomes background (dynamic model).
        settle(&mut bgs, &parked, 40);
        assert!(!bgs.apply(&parked).get(1, 1));
    }

    #[test]
    fn sub_threshold_noise_ignored() {
        let mut bgs = BackgroundSubtractor::new(4, 4, 0.05, 30.0);
        let base = GrayFrame::filled(4, 4, 100);
        settle(&mut bgs, &base, 10);
        let noisy = GrayFrame::filled(4, 4, 120); // +20 < threshold 30
        assert_eq!(bgs.apply(&noisy).count(), 0);
    }

    #[test]
    fn background_snapshot_tracks_input() {
        let mut bgs = BackgroundSubtractor::new(2, 2, 0.5, 10.0);
        settle(&mut bgs, &GrayFrame::filled(2, 2, 200), 20);
        let bg = bgs.background();
        assert!(bg.pixels().iter().all(|&p| p >= 198));
    }

    #[test]
    fn reset_clears_model() {
        let mut bgs = BackgroundSubtractor::new(2, 2, 0.5, 10.0);
        bgs.apply(&GrayFrame::filled(2, 2, 200));
        assert!(bgs.is_initialised());
        bgs.reset();
        assert!(!bgs.is_initialised());
        // First frame after reset re-initialises silently.
        assert_eq!(bgs.apply(&GrayFrame::filled(2, 2, 10)).count(), 0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn invalid_alpha_panics() {
        BackgroundSubtractor::new(2, 2, 0.0, 10.0);
    }
}
