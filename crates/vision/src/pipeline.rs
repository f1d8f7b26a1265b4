//! The paper's Fig. 3 video pre-processing (VP) pipeline.
//!
//! Raw frame → dynamic background subtraction → morphological opening →
//! remap onto a coarse 2-D occupancy grid. The grid is what the video
//! classifier trains on: the paper argues that after this reduction the
//! model only has to learn *where moving things are*, not appearance.

use crate::morphology::opening_in_place;
use crate::{BackgroundSubtractor, BinaryFrame, GrayFrame};
use safecross_tensor::Tensor;
use safecross_telemetry::{Counter, Histogram, Registry};

/// Configuration of the VP pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PreprocessConfig {
    /// Background adaptation rate.
    pub bgs_alpha: f32,
    /// Foreground intensity threshold.
    pub bgs_threshold: f32,
    /// Opening structuring-element radius (0 disables morphology — used
    /// by the Table II ablation).
    pub morph_radius: usize,
    /// Occupancy grid width.
    pub grid_width: usize,
    /// Occupancy grid height.
    pub grid_height: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            bgs_alpha: 0.02,
            bgs_threshold: 35.0,
            morph_radius: 1,
            grid_width: 20,
            grid_height: 20,
        }
    }
}

/// Maps a binary foreground mask onto a coarse occupancy grid.
///
/// Each grid cell holds the fraction of its source pixels that are
/// foreground, so the representation stays differentiable-friendly and
/// resolution-independent.
#[derive(Debug, Clone, Copy)]
pub struct GridMapper {
    grid_width: usize,
    grid_height: usize,
}

impl GridMapper {
    /// Creates a mapper producing `grid_width x grid_height` grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(grid_width: usize, grid_height: usize) -> Self {
        assert!(grid_width > 0 && grid_height > 0, "grid dimensions must be positive");
        GridMapper {
            grid_width,
            grid_height,
        }
    }

    /// Produces a `[grid_height, grid_width]` occupancy tensor from a
    /// mask.
    pub fn map(&self, mask: &BinaryFrame) -> Tensor {
        let mut grid = Tensor::zeros(&[self.grid_height, self.grid_width]);
        let (w, h) = (mask.width(), mask.height());
        let cells = grid.data_mut();
        for gy in 0..self.grid_height {
            let y0 = gy * h / self.grid_height;
            let y1 = ((gy + 1) * h / self.grid_height).max(y0 + 1).min(h);
            for gx in 0..self.grid_width {
                let x0 = gx * w / self.grid_width;
                let x1 = ((gx + 1) * w / self.grid_width).max(x0 + 1).min(w);
                let set = mask.count_in(x0, x1, y0, y1);
                cells[gy * self.grid_width + gx] = set as f32 / ((x1 - x0) * (y1 - y0)) as f32;
            }
        }
        grid
    }
}

/// The complete VP pipeline with persistent background state.
///
/// ```
/// use safecross_vision::{GrayFrame, PreprocessConfig, Preprocessor};
///
/// let mut vp = Preprocessor::new(32, 32, PreprocessConfig::default());
/// let grid = vp.process(&GrayFrame::filled(32, 32, 90));
/// assert_eq!(grid.dims(), &[20, 20]);
/// ```
#[derive(Debug, Clone)]
pub struct Preprocessor {
    bgs: BackgroundSubtractor,
    mapper: GridMapper,
    config: PreprocessConfig,
    /// The current frame's mask: raw foreground after the BGS sweep,
    /// opened in place after the morphology step.
    mask: BinaryFrame,
    /// The opening's intermediate. With `mask` it is all the mask memory
    /// the pipeline ever touches: a frame allocates only its grid.
    scratch: BinaryFrame,
    telemetry: Option<VpTelemetry>,
}

/// Pre-fetched telemetry handles so the per-frame hot path never takes
/// the registry lock.
#[derive(Debug, Clone)]
struct VpTelemetry {
    frames: Counter,
    bgs_ms: Histogram,
    morph_ms: Histogram,
    remap_ms: Histogram,
}

/// Runs `f`, timed into the histogram `pick` selects when telemetry is
/// attached.
fn timed<R>(
    telemetry: &Option<VpTelemetry>,
    pick: impl FnOnce(&VpTelemetry) -> &Histogram,
    f: impl FnOnce() -> R,
) -> R {
    match telemetry {
        None => f(),
        Some(tel) => pick(tel).time(f),
    }
}

impl Preprocessor {
    /// Creates a pipeline for `width x height` input frames.
    pub fn new(width: usize, height: usize, config: PreprocessConfig) -> Self {
        Preprocessor {
            bgs: BackgroundSubtractor::new(width, height, config.bgs_alpha, config.bgs_threshold),
            mapper: GridMapper::new(config.grid_width, config.grid_height),
            config,
            mask: BinaryFrame::new(width, height),
            scratch: BinaryFrame::new(width, height),
            telemetry: None,
        }
    }

    /// Attaches a telemetry registry: every subsequent frame records
    /// per-stage wall time into the `vp.bgs_ms` / `vp.morph_ms` /
    /// `vp.remap_ms` histograms and counts into `vp.frames`. Timing
    /// never changes the pixel path, so instrumented and uninstrumented
    /// runs produce bit-identical grids.
    pub fn instrument(&mut self, registry: &Registry) {
        self.telemetry = Some(VpTelemetry {
            frames: registry.counter("vp.frames"),
            bgs_ms: registry.histogram("vp.bgs_ms"),
            morph_ms: registry.histogram("vp.morph_ms"),
            remap_ms: registry.histogram("vp.remap_ms"),
        });
    }

    /// Runs the full pipeline on one frame, returning the occupancy grid.
    pub fn process(&mut self, frame: &GrayFrame) -> Tensor {
        self.subtract(frame);
        self.open();
        self.remap()
    }

    /// Runs the pipeline, exposing every intermediate stage (the paper's
    /// Fig. 3): raw foreground mask, opened mask, occupancy grid.
    pub fn stages(&mut self, frame: &GrayFrame) -> (BinaryFrame, BinaryFrame, Tensor) {
        self.subtract(frame);
        let raw = self.mask.clone();
        self.open();
        (raw, self.mask.clone(), self.remap())
    }

    /// Background subtraction: `mask` becomes the raw foreground.
    fn subtract(&mut self, frame: &GrayFrame) {
        if let Some(tel) = &self.telemetry {
            tel.frames.inc();
        }
        timed(&self.telemetry, |t| &t.bgs_ms, || self.bgs.apply_into(frame, &mut self.mask));
    }

    /// Opening: `mask` is replaced by its opened version.
    fn open(&mut self) {
        timed(&self.telemetry, |t| &t.morph_ms, || {
            opening_in_place(&mut self.mask, self.config.morph_radius, &mut self.scratch)
        });
    }

    /// Remap of the current `mask` onto the occupancy grid.
    fn remap(&self) -> Tensor {
        timed(&self.telemetry, |t| &t.remap_ms, || self.mapper.map(&self.mask))
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PreprocessConfig {
        &self.config
    }

    /// Resets the background model (scene change).
    pub fn reset(&mut self) {
        self.bgs.reset();
    }
}

/// A sliding window that assembles per-frame grids into a
/// `[1, T, H, W]` clip tensor — the classifier's input format.
///
/// The window is one flat ring of `T` slots of `H · W` values. It grows
/// a slot per push until it holds a full segment (an idle stream pays
/// only for the frames it has seen); from then on a push overwrites the
/// oldest slot, and assembling the clip is one allocation filled by two
/// copies (oldest slot to the end of the ring, then the start of the
/// ring up to the newest).
#[derive(Debug, Clone)]
pub struct SegmentBuffer {
    /// The buffered grids back to back; in arrival order until full.
    ring: Vec<f32>,
    /// `[H, W]` of the buffered grids.
    grid_dims: [usize; 2],
    /// Slot of the oldest frame (0 until the buffer is full and slides).
    oldest: usize,
    capacity: usize,
}

impl SegmentBuffer {
    /// Creates a buffer holding `capacity` frames (the paper uses 32).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SegmentBuffer {
            ring: Vec::new(),
            grid_dims: [0; 2],
            oldest: 0,
            capacity,
        }
    }

    /// Appends a grid, evicting the oldest frame when full.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not `[H, W]`, or differs in shape from the
    /// frames already buffered (an empty buffer takes any `[H, W]`).
    pub fn push(&mut self, grid: Tensor) {
        let &[h, w] = grid.dims() else {
            panic!("segment frames must be [H, W] grids, got {:?}", grid.dims());
        };
        if self.ring.is_empty() {
            self.grid_dims = [h, w];
        }
        assert_eq!([h, w], self.grid_dims, "grid shape changed mid-segment");
        if self.is_full() {
            let slot = self.oldest * h * w;
            self.ring[slot..slot + h * w].copy_from_slice(grid.data());
            self.oldest = (self.oldest + 1) % self.capacity;
        } else {
            self.ring.extend_from_slice(grid.data());
        }
    }

    /// Number of buffered frames.
    pub fn len(&self) -> usize {
        let [h, w] = self.grid_dims;
        self.ring.len().checked_div(h * w).unwrap_or(0)
    }

    /// Frames per assembled clip (the `T` of the `[1, T, H, W]` output).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the buffer holds no frames.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether a full clip is available.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Assembles the clip as `[1, T, H, W]` (channel-leading, ready to be
    /// stacked into a batch), or `None` until the buffer is full.
    pub fn as_clip(&self) -> Option<Tensor> {
        if !self.is_full() {
            return None;
        }
        let [h, w] = self.grid_dims;
        let (newer, older) = self.ring.split_at(self.oldest * h * w);
        let mut clip = Vec::with_capacity(self.ring.len());
        clip.extend_from_slice(older);
        clip.extend_from_slice(newer);
        Some(Tensor::from_vec(clip, &[1, self.capacity, h, w]))
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.oldest = 0;
    }
}

#[cfg(test)]
impl GridMapper {
    /// The per-pixel count `map` replaced, kept as the reference the
    /// proptests compare against.
    pub(crate) fn map_reference(&self, mask: &BinaryFrame) -> Tensor {
        let mut grid = Tensor::zeros(&[self.grid_height, self.grid_width]);
        let (w, h) = (mask.width(), mask.height());
        for gy in 0..self.grid_height {
            let y0 = gy * h / self.grid_height;
            let y1 = ((gy + 1) * h / self.grid_height).max(y0 + 1).min(h);
            for gx in 0..self.grid_width {
                let x0 = gx * w / self.grid_width;
                let x1 = ((gx + 1) * w / self.grid_width).max(x0 + 1).min(w);
                let mut set = 0usize;
                for y in y0..y1 {
                    for x in x0..x1 {
                        if mask.get(x, y) {
                            set += 1;
                        }
                    }
                }
                grid.set(&[gy, gx], set as f32 / ((x1 - x0) * (y1 - y0)) as f32);
            }
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_mapper_localises_mass() {
        let mut mask = BinaryFrame::new(20, 20);
        for y in 0..10 {
            for x in 0..10 {
                mask.put(x, y, true); // top-left quadrant fully set
            }
        }
        let grid = GridMapper::new(2, 2).map(&mask);
        assert_eq!(grid.at(&[0, 0]), 1.0);
        assert_eq!(grid.at(&[0, 1]), 0.0);
        assert_eq!(grid.at(&[1, 0]), 0.0);
        assert_eq!(grid.at(&[1, 1]), 0.0);
    }

    #[test]
    fn grid_mapper_handles_non_divisible_sizes() {
        let mut mask = BinaryFrame::new(7, 5);
        mask.put(6, 4, true);
        let grid = GridMapper::new(3, 3).map(&mask);
        assert!(grid.at(&[2, 2]) > 0.0);
        assert!((grid.sum() - grid.at(&[2, 2])).abs() < 1e-6);
    }

    #[test]
    fn preprocessor_detects_motion_in_grid() {
        let mut vp = Preprocessor::new(40, 40, PreprocessConfig::default());
        let empty = GrayFrame::filled(40, 40, 90);
        for _ in 0..10 {
            vp.process(&empty);
        }
        let mut with_car = empty.clone();
        for y in 4..10 {
            for x in 4..12 {
                with_car.set(x, y, 230);
            }
        }
        let (raw, opened, grid) = vp.stages(&with_car);
        assert!(raw.count() >= opened.count());
        assert!(opened.count() > 0);
        // Mass is concentrated in the top-left of the grid.
        let top_left: f32 = (0..6)
            .flat_map(|gy| (0..7).map(move |gx| (gy, gx)))
            .map(|(gy, gx)| grid.at(&[gy, gx]))
            .sum();
        assert!((grid.sum() - top_left).abs() < 1e-6);
    }

    #[test]
    fn morphology_ablation_changes_noise_handling() {
        let noisy_cfg = PreprocessConfig { morph_radius: 0, ..Default::default() };
        let clean_cfg = PreprocessConfig::default();
        let mut vp_noisy = Preprocessor::new(30, 30, noisy_cfg);
        let mut vp_clean = Preprocessor::new(30, 30, clean_cfg);
        let empty = GrayFrame::filled(30, 30, 90);
        for _ in 0..10 {
            vp_noisy.process(&empty);
            vp_clean.process(&empty);
        }
        let mut speckled = empty.clone();
        speckled.set(5, 5, 250); // single-pixel noise
        let g_noisy = vp_noisy.process(&speckled);
        let g_clean = vp_clean.process(&speckled);
        assert!(g_noisy.sum() > 0.0);
        assert_eq!(g_clean.sum(), 0.0);
    }

    /// The safecross staged pipeline moves frames and VP state across
    /// threads; this pins the Send + Sync guarantee at the type level so
    /// a non-thread-safe field can never sneak in unnoticed.
    #[test]
    fn vp_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GrayFrame>();
        assert_send_sync::<BinaryFrame>();
        assert_send_sync::<Preprocessor>();
        assert_send_sync::<SegmentBuffer>();
        assert_send_sync::<GridMapper>();
    }

    #[test]
    fn instrumented_preprocessor_is_bit_identical_to_plain() {
        let registry = Registry::new();
        let mut plain = Preprocessor::new(40, 40, PreprocessConfig::default());
        let mut timed = Preprocessor::new(40, 40, PreprocessConfig::default());
        timed.instrument(&registry);
        for i in 0..12u8 {
            let frame = GrayFrame::filled(40, 40, 80 + i * 3);
            assert_eq!(plain.process(&frame), timed.process(&frame), "frame {i}");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("vp.frames"), Some(12));
        for stage in ["vp.bgs_ms", "vp.morph_ms", "vp.remap_ms"] {
            assert_eq!(snap.histogram(stage).map(|h| h.count), Some(12), "{stage}");
        }
    }

    #[test]
    fn segment_buffer_reports_capacity() {
        let buf = SegmentBuffer::new(7);
        assert_eq!(buf.capacity(), 7);
        assert!(buf.is_empty());
    }

    #[test]
    fn segment_buffer_slides() {
        let mut buf = SegmentBuffer::new(3);
        assert!(buf.as_clip().is_none());
        for i in 0..5 {
            buf.push(Tensor::full(&[2, 2], i as f32));
        }
        assert!(buf.is_full());
        let clip = buf.as_clip().unwrap();
        assert_eq!(clip.dims(), &[1, 3, 2, 2]);
        // Oldest two frames were evicted: values 2, 3, 4 remain.
        assert_eq!(clip.at(&[0, 0, 0, 0]), 2.0);
        assert_eq!(clip.at(&[0, 2, 1, 1]), 4.0);
        buf.clear();
        assert!(buf.is_empty());
    }
}
