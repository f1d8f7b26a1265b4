//! Grayscale and binary frame types.

use std::fmt;

/// A dense 8-bit grayscale image, row-major.
///
/// The camera substrate renders into this type and every detection method
/// consumes it. Coordinates are `(x, y)` with the origin at the top-left,
/// matching the usual image convention.
///
/// ```
/// use safecross_vision::GrayFrame;
///
/// let mut f = GrayFrame::new(4, 3);
/// f.set(1, 2, 200);
/// assert_eq!(f.at(1, 2), 200);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct GrayFrame {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl GrayFrame {
    /// Creates an all-black frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        GrayFrame::filled(width, height, 0)
    }

    /// Creates a frame filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        GrayFrame {
            width,
            height,
            pixels: vec![value; width * height],
        }
    }

    /// Wraps an existing pixel buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not `width * height`.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel buffer length mismatch");
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        GrayFrame {
            width,
            height,
            pixels,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel intensity at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn at(&self, x: usize, y: usize) -> u8 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[y * self.width + x] = value;
    }

    /// Immutable pixel buffer (row-major).
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Mutable pixel buffer (row-major).
    pub fn pixels_mut(&mut self) -> &mut [u8] {
        &mut self.pixels
    }

    /// Mean intensity (useful as a cheap day/weather statistic).
    ///
    /// The result is, bit for bit, the left-to-right `f32` sum of the
    /// pixels divided by their count — the renderer's contrast step hangs
    /// off these bits, so every rendered frame does. An `f32` add of integers
    /// is exact while the running sum stays ≤ 2²⁴, so that prefix of the
    /// fold is done in integers (any order, so it vectorises) and only
    /// what is left — nothing, for a 320×240 frame with mean < 218 — is
    /// folded serially in `f32`.
    pub fn mean(&self) -> f32 {
        const CHUNK: usize = 256;
        const EXACT: u32 = 1 << 24;
        let mut sum = 0u32;
        let mut done = 0;
        for chunk in self.pixels.chunks(CHUNK) {
            if sum + (CHUNK as u32) * 255 > EXACT {
                break;
            }
            sum += chunk.iter().map(|&p| u32::from(p)).sum::<u32>();
            done += chunk.len();
        }
        let total = self.pixels[done..]
            .iter()
            .fold(sum as f32, |acc, &p| acc + p as f32);
        total / self.pixels.len() as f32
    }

    /// Packs row `y`'s flags `pixel >= threshold` into words, pixel `x`
    /// to bit `x % 64` of `words[x / 64]` — a [`BinaryFrame`] row's
    /// layout — leaving the last word's padding bits zero.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds or `words` is not one word per 64
    /// pixels of a row.
    pub fn pack_row_at_least(&self, y: usize, threshold: u8, words: &mut [u64]) {
        assert!(y < self.height, "row {y} out of bounds");
        assert_eq!(
            words.len(),
            self.width.div_ceil(64),
            "one word per 64 pixels"
        );
        let row = &self.pixels[y * self.width..(y + 1) * self.width];
        for (word, pixels) in words.iter_mut().zip(row.chunks(64)) {
            // The compares first, into one flag byte per pixel (a loop the
            // compiler vectorises), the packing after.
            let mut flags = [0u8; 64];
            for (flag, &p) in flags.iter_mut().zip(pixels) {
                *flag = u8::from(p >= threshold);
            }
            *word = pack_flags(&flags);
        }
    }

    /// Nearest-neighbour resampling to a new size.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn resize(&self, new_width: usize, new_height: usize) -> GrayFrame {
        assert!(
            new_width > 0 && new_height > 0,
            "target dimensions must be positive"
        );
        let mut out = GrayFrame::new(new_width, new_height);
        for y in 0..new_height {
            let sy = y * self.height / new_height;
            for x in 0..new_width {
                let sx = x * self.width / new_width;
                out.set(x, y, self.at(sx, sy));
            }
        }
        out
    }

    /// Crops a rectangle; the rectangle is clamped to the frame bounds.
    ///
    /// # Panics
    ///
    /// Panics if the clamped rectangle is empty.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> GrayFrame {
        let x1 = (x0 + w).min(self.width);
        let y1 = (y0 + h).min(self.height);
        assert!(x0 < x1 && y0 < y1, "empty crop region");
        let mut out = GrayFrame::new(x1 - x0, y1 - y0);
        for y in y0..y1 {
            for x in x0..x1 {
                out.set(x - x0, y - y0, self.at(x, y));
            }
        }
        out
    }

    /// Renders the frame as coarse ASCII art (for examples and debugging).
    pub fn to_ascii(&self, max_width: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let scale = (self.width / max_width.max(1)).max(1);
        let mut s = String::new();
        let mut y = 0;
        while y < self.height {
            let mut x = 0;
            while x < self.width {
                let v = self.at(x, y) as usize * (RAMP.len() - 1) / 255;
                s.push(RAMP[v] as char);
                x += scale;
            }
            s.push('\n');
            y += 2 * scale; // characters are ~2x taller than wide
        }
        s
    }
}

/// Packs 64 flag bytes (each 0 or 1) into a word, flag `i` to bit `i`.
/// Eight flags at a time: read as a little-endian `u64` they sit at bits
/// 0, 8, …, 56, and the multiplication adds shifted copies that land
/// flag `j` on bit `56 + j` — no two partial products meet on one bit, so
/// nothing carries — leaving the packed byte on top.
pub(crate) fn pack_flags(flags: &[u8; 64]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    flags
        .chunks_exact(8)
        .enumerate()
        .fold(0, |word, (i, eight)| {
            let lanes = u64::from_le_bytes(eight.try_into().expect("chunks of 8"));
            word | (lanes.wrapping_mul(GATHER) >> 56) << (8 * i)
        })
}

impl fmt::Debug for GrayFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GrayFrame({}x{}, mean {:.1})",
            self.width,
            self.height,
            self.mean()
        )
    }
}

/// A 1-bit mask, the output of background subtraction and morphology,
/// packed 64 pixels to a `u64`.
///
/// Rows are padded to a whole number of words (`stride = ⌈width / 64⌉`);
/// pixel `(x, y)` is bit `x % 64` of word `y * stride + x / 64`. The
/// padding bits past `width` in each row's last word are **always
/// zero**. Everything else leans on that invariant: the derived `Eq`
/// compares pixels only, [`BinaryFrame::count`] is a plain popcount, and
/// the word-wide morphology sees "outside the frame" as background
/// without a single bounds test.
#[derive(Clone, PartialEq, Eq)]
pub struct BinaryFrame {
    width: usize,
    height: usize,
    words: Vec<u64>,
}

impl BinaryFrame {
    /// Creates an all-false mask.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        BinaryFrame {
            width,
            height,
            words: vec![0; width.div_ceil(64) * height],
        }
    }

    /// Mask width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mask height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Bit at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> bool {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.words[y * self.stride() + x / 64] >> (x % 64) & 1 != 0
    }

    /// Sets the bit at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn put(&mut self, x: usize, y: usize, value: bool) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        let index = y * self.stride() + x / 64;
        let word = &mut self.words[index];
        *word = *word & !(1 << (x % 64)) | u64::from(value) << (x % 64);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits in a rectangular region (clamped to bounds).
    pub fn density_in(&self, x0: usize, y0: usize, w: usize, h: usize) -> f32 {
        let x1 = x0.saturating_add(w).min(self.width);
        let y1 = y0.saturating_add(h).min(self.height);
        if x0 >= x1 || y0 >= y1 {
            return 0.0;
        }
        self.count_in(x0, x1, y0, y1) as f32 / ((x1 - x0) * (y1 - y0)) as f32
    }

    /// Converts to a grayscale frame (255 for set bits).
    pub fn to_gray(&self) -> GrayFrame {
        let pixels = (0..self.height)
            .flat_map(|y| (0..self.width).map(move |x| if self.get(x, y) { 255 } else { 0 }))
            .collect();
        GrayFrame::from_pixels(self.width, self.height, pixels)
    }

    /// Words per row.
    pub(crate) fn stride(&self) -> usize {
        self.width.div_ceil(64)
    }

    /// The valid bits of each row's last word (all ones when `width` is
    /// a multiple of 64). Whoever writes whole words ANDs the last one
    /// with this to keep the padding zero.
    pub(crate) fn tail_mask(&self) -> u64 {
        !0 >> (self.stride() * 64 - self.width)
    }

    /// The packed rows, `stride` words each.
    pub(crate) fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.stride())
    }

    /// The packed rows, mutably. The caller keeps the padding bits zero.
    pub(crate) fn rows_mut(&mut self) -> std::slice::ChunksExactMut<'_, u64> {
        let stride = self.stride();
        self.words.chunks_exact_mut(stride)
    }

    /// Clears every bit.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Set bits in the non-empty, in-bounds rectangle `[x0, x1) × [y0, y1)`:
    /// a popcount of each row's word range with the two end words masked.
    pub(crate) fn count_in(&self, x0: usize, x1: usize, y0: usize, y1: usize) -> usize {
        debug_assert!(x0 < x1 && x1 <= self.width && y0 < y1 && y1 <= self.height);
        let (first, last) = (x0 / 64, (x1 - 1) / 64);
        let first_mask = !0u64 << (x0 % 64);
        let last_mask = !0u64 >> (63 - (x1 - 1) % 64);
        let mut set = 0;
        for row in self.rows().skip(y0).take(y1 - y0) {
            set += if first == last {
                (row[first] & first_mask & last_mask).count_ones()
            } else {
                (row[first] & first_mask).count_ones()
                    + row[first + 1..last]
                        .iter()
                        .map(|w| w.count_ones())
                        .sum::<u32>()
                    + (row[last] & last_mask).count_ones()
            } as usize;
        }
        set
    }
}

impl fmt::Debug for BinaryFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BinaryFrame({}x{}, {} set)",
            self.width,
            self.height,
            self.count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_frame_accessors() {
        let mut f = GrayFrame::new(3, 2);
        f.set(2, 1, 77);
        assert_eq!(f.at(2, 1), 77);
        assert_eq!(f.width(), 3);
        assert_eq!(f.height(), 2);
        assert_eq!(f.pixels().len(), 6);
    }

    #[test]
    fn statistics() {
        let f = GrayFrame::from_pixels(2, 1, vec![0, 100]);
        assert_eq!(f.mean(), 50.0);
    }

    #[test]
    fn pack_row_at_least_sets_exactly_the_bright_pixels() {
        // Widths around one and two words; threshold 0 sets every pixel,
        // so only the padding bits can stay clear.
        for w in [1usize, 63, 64, 65, 127, 128, 129] {
            let f =
                GrayFrame::from_pixels(w, 2, (0..2 * w).map(|i| (i * 37 % 256) as u8).collect());
            let mut words = vec![!0u64; w.div_ceil(64)];
            for threshold in [0u8, 100, 255] {
                f.pack_row_at_least(1, threshold, &mut words);
                for x in 0..64 * words.len() {
                    let bit = words[x / 64] >> (x % 64) & 1 == 1;
                    assert_eq!(
                        bit,
                        x < w && f.at(x, 1) >= threshold,
                        "w={w} x={x} t={threshold}"
                    );
                }
            }
        }
    }

    #[test]
    fn resize_preserves_constant_frames() {
        let f = GrayFrame::filled(10, 10, 42);
        let r = f.resize(3, 7);
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 7);
        assert!(r.pixels().iter().all(|&p| p == 42));
    }

    #[test]
    fn resize_downsamples_structure() {
        let mut f = GrayFrame::new(8, 8);
        // Bright right half.
        for y in 0..8 {
            for x in 4..8 {
                f.set(x, y, 255);
            }
        }
        let r = f.resize(2, 2);
        assert_eq!(r.at(0, 0), 0);
        assert_eq!(r.at(1, 0), 255);
    }

    #[test]
    fn crop_clamps() {
        let f = GrayFrame::filled(5, 5, 9);
        let c = f.crop(3, 3, 10, 10);
        assert_eq!(c.width(), 2);
        assert_eq!(c.height(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        GrayFrame::new(2, 2).at(2, 0);
    }

    #[test]
    fn binary_count_and_density() {
        let mut m = BinaryFrame::new(4, 4);
        m.put(0, 0, true);
        m.put(1, 1, true);
        assert_eq!(m.count(), 2);
        assert_eq!(m.density_in(0, 0, 2, 2), 0.5);
        assert_eq!(m.density_in(2, 2, 2, 2), 0.0);
    }

    #[test]
    fn binary_to_gray() {
        let mut m = BinaryFrame::new(2, 1);
        m.put(1, 0, true);
        let g = m.to_gray();
        assert_eq!(g.pixels(), &[0, 255]);
    }

    #[test]
    fn ascii_rendering_nonempty() {
        let f = GrayFrame::filled(16, 8, 128);
        let art = f.to_ascii(8);
        assert!(art.contains('\n'));
        assert!(!art.trim().is_empty());
    }
}
