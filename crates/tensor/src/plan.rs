//! Occupancy plans: which outputs of an eval-mode convolution stack a
//! sparse clip can move, and which of the others share a value.
//!
//! A clip cell is *active* when its bits are not those of `+0.0`; a conv
//! output is active when its window reads an active input. Every other
//! output holds a value fixed by the weights and by its *border class*,
//! per axis the interned tuple of input classes (or padding) under the
//! kernel's taps, so one representative per class triple stands for all
//! of them, bit for bit, whatever the weights (DESIGN.md §9,
//! "Occupancy-planned forward"). A plan reads no weights, so nothing in
//! it ever needs invalidating, and its buffers are reused clip to clip.

use crate::{Conv3dGeom, KernelScratch, Tensor};
use std::ops::Range;

/// A kernel tap that reads zero padding, in a per-axis class tuple.
const PAD: u32 = u32::MAX;

/// The occupancy plan of one `[T, H, W]` grid: its active cells and the
/// per-axis border class of every index.
///
/// ```
/// use safecross_tensor::{Conv3dGeom, GridPlan};
///
/// // One active cell in an otherwise empty 1x1x8x8 clip.
/// let mut clip = vec![0.0f32; 64];
/// clip[3 * 8 + 4] = 1.0;
/// let mut input = GridPlan::default();
/// input.fill(&clip, 1, 8, 8);
/// let g = Conv3dGeom {
///     in_channels: 1, frames: 1, height: 8, width: 8,
///     kernel_t: 1, kernel_s: 3, stride_t: 1, stride_s: 1, pad_t: 0, pad_s: 1,
/// };
/// let mut output = GridPlan::default();
/// input.conv_into(&g, &mut output);
/// // The 3x3 neighbourhood of the cell, then one representative for
/// // each of the 3x3 border classes (corner, edge, interior per axis).
/// let cols = output.columns().expect("most of the grid is empty");
/// assert_eq!(cols.len(), 9 + 9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GridPlan {
    /// `[T, H, W]`.
    dims: [usize; 3],
    /// `u64` words per `(t, y)` row.
    words: usize,
    /// Bit `x % 64` of word `(t·H + y)·words + x / 64` is set when
    /// `(t, y, x)` is active; padding bits stay clear.
    active: Vec<u64>,
    /// Per axis, the border class id of every index.
    class: [Vec<u32>; 3],
    /// Per axis, how many class ids there are.
    classes: [usize; 3],
    /// Filled by `columns`: the active positions in order, then one
    /// representative position per class triple present.
    cols: Vec<u32>,
    /// Filled by `columns`: class triple → its representative's column.
    /// While a plan is derived, each class id's first index.
    table: Vec<u32>,
    /// Filled by `columns`: the column every position takes its value
    /// from; empty until then.
    source: Vec<u32>,
}

impl GridPlan {
    fn positions(&self) -> usize {
        self.dims.iter().product()
    }

    /// Resizes to `dims` with nothing active; classes are the caller's.
    fn reset(&mut self, dims: [usize; 3]) {
        self.dims = dims;
        self.words = dims[2].div_ceil(64);
        self.active.clear();
        self.active.resize(dims[0] * dims[1] * self.words, 0);
        self.source.clear();
    }

    fn count_active(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Marks every position active, padding bits left clear.
    fn set_all(&mut self) {
        let tail = self.dims[2] % 64;
        for row in self.active.chunks_exact_mut(self.words) {
            row.fill(!0);
            if tail != 0 {
                row[row.len() - 1] = (1 << tail) - 1;
            }
        }
    }

    /// Plans a clip: the `[C, T, H, W]` data of one batch item, a cell
    /// active when any channel's value there is not `+0.0` by bits.
    /// Every inactive cell is then exactly `+0.0`, so all of them share
    /// one class per axis.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of `T × H × W` grids.
    pub fn fill(&mut self, data: &[f32], frames: usize, height: usize, width: usize) {
        let cells = frames * height * width;
        assert!(
            cells > 0 && data.len().is_multiple_of(cells),
            "{} values are not whole {frames}x{height}x{width} grids",
            data.len()
        );
        self.reset([frames, height, width]);
        for (a, extent) in [frames, height, width].into_iter().enumerate() {
            self.class[a].clear();
            self.class[a].resize(extent, 0);
            self.classes[a] = 1;
        }
        let words = self.words;
        for channel in data.chunks_exact(cells) {
            for (row, values) in self
                .active
                .chunks_exact_mut(words)
                .zip(channel.chunks_exact(width))
            {
                for (word, chunk) in row.iter_mut().zip(values.chunks(64)) {
                    // Runs with no active cell (most of an occupancy
                    // clip) or no inactive one are settled by one sweep.
                    let active = chunk.iter().filter(|v| v.to_bits() != 0).count();
                    *word |= if active == chunk.len() {
                        !0 >> (64 - chunk.len())
                    } else if active == 0 {
                        0
                    } else {
                        chunk.iter().enumerate().fold(0, |bits, (bit, v)| {
                            bits | u64::from(v.to_bits() != 0) << bit
                        })
                    };
                }
            }
        }
    }

    /// Derives into `out` the plan of a convolution's output over this
    /// grid: an output is active when its window holds an active cell,
    /// and its class on each axis is the interned tuple of input classes
    /// (or padding) under that axis's taps.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s input extents are not this plan's.
    pub fn conv_into(&self, g: &Conv3dGeom, out: &mut GridPlan) {
        assert_eq!(
            [g.frames, g.height, g.width],
            self.dims,
            "geometry does not match the planned grid"
        );
        let od = [g.out_frames(), g.out_height(), g.out_width()];
        out.reset(od);
        let windows = [
            (g.kernel_t, g.stride_t, g.pad_t),
            (g.kernel_s, g.stride_s, g.pad_s),
            (g.kernel_s, g.stride_s, g.pad_s),
        ];
        for (a, &(k, s, p)) in windows.iter().enumerate() {
            let input = &self.class[a];
            let tap = |i: usize| match i.checked_sub(p) {
                Some(i) if i < input.len() => input[i],
                _ => PAD,
            };
            out.classes[a] = intern(od[a], &mut out.class[a], &mut out.table, |o, r| {
                (0..k).all(|d| tap(o * s + d) == tap(r * s + d))
            });
        }
        // A full grid is a full output when every window reaches into
        // it: the shortcut that keeps a fully occupied clip's plan cheap.
        let reaches =
            |a: usize| (0..od[a]).all(|o| !window(o, windows[a], self.dims[a]).is_empty());
        if self.count_active() == self.positions() && (0..3).all(reaches) {
            out.set_all();
            return;
        }
        let [h, w] = [self.dims[1], self.dims[2]];
        let (wi, (_, sx, _)) = (self.words, windows[2]);
        // One-word rows whose windows all start inside the word are
        // ORed, dilated and strided as words; others test each window.
        let narrow = wi == 1 && (od[2] - 1) * sx < 64;
        for (r, dst) in out.active.chunks_exact_mut(out.words).enumerate() {
            let rows = || {
                let ys = window(r % od[1], windows[1], h);
                window(r / od[1], windows[0], self.dims[0]).flat_map(move |it| {
                    ys.clone()
                        .map(move |iy| &self.active[(it * h + iy) * wi..][..wi])
                })
            };
            if narrow {
                let e = dilate_word(rows().fold(0, |acc, row| acc | row[0]), windows[2]);
                for ox in 0..od[2] {
                    dst[0] |= (e >> (ox * sx) & 1) << ox;
                }
                continue;
            }
            for ox in 0..od[2] {
                if rows().any(|row| any_in(row, window(ox, windows[2], w))) {
                    dst[ox / 64] |= 1 << (ox % 64);
                }
            }
        }
    }

    /// Derives into `out` the plan of every `stride`-th frame of this
    /// grid, the way a temporal subsample selects them.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or does not divide the frame count.
    pub fn subsample_into(&self, stride: usize, out: &mut GridPlan) {
        let [t, h, w] = self.dims;
        assert!(
            stride > 0 && t.is_multiple_of(stride),
            "stride {stride} must divide T={t}"
        );
        out.reset([t / stride, h, w]);
        out.class[0].clear();
        out.class[0].extend(self.class[0].iter().step_by(stride));
        out.class[1].clone_from(&self.class[1]);
        out.class[2].clone_from(&self.class[2]);
        out.classes = self.classes;
        let frame = h * self.words;
        for (dst, src) in out
            .active
            .chunks_exact_mut(frame)
            .zip(self.active.chunks_exact(frame * stride))
        {
            dst.copy_from_slice(&src[..frame]);
        }
    }

    /// Derives into `out` the plan of this grid's channels concatenated
    /// with `other`'s: a cell is active when it is active in either, and
    /// its class on each axis is the interned pair of their classes.
    ///
    /// # Panics
    ///
    /// Panics if the two grids differ in extent.
    pub fn concat_into(&self, other: &GridPlan, out: &mut GridPlan) {
        assert_eq!(self.dims, other.dims, "concatenated grids must match");
        out.reset(self.dims);
        for a in 0..3 {
            let (ca, cb) = (&self.class[a], &other.class[a]);
            out.classes[a] = intern(self.dims[a], &mut out.class[a], &mut out.table, |i, r| {
                ca[i] == ca[r] && cb[i] == cb[r]
            });
        }
        for ((o, &x), &y) in out.active.iter_mut().zip(&self.active).zip(&other.active) {
            *o = x | y;
        }
    }

    /// The flat `(t, y, x)` positions a layer producing this grid has to
    /// compute: every active position in order, then one representative
    /// per class triple that some inactive position has. `None` when
    /// every position is active — the layer is then the dense one.
    pub fn columns(&mut self) -> Option<&[u32]> {
        let positions = self.positions();
        let n_active = self.count_active();
        self.source.clear();
        if n_active == positions {
            return None;
        }
        let [_, h, w] = self.dims;
        let [_, ny, nx] = self.classes;
        self.table.clear();
        self.table.resize(self.classes.iter().product(), u32::MAX);
        self.cols.clear();
        self.cols.resize(n_active, 0);
        self.cols.reserve(positions - n_active);
        self.source.reserve(positions);
        let (mut k, mut p) = (0, 0);
        for (row, words) in self.active.chunks_exact(self.words).enumerate() {
            let base =
                (self.class[0][row / h] as usize * ny + self.class[1][row % h] as usize) * nx;
            for x in 0..w {
                let col = if words[x / 64] >> (x % 64) & 1 != 0 {
                    self.cols[k] = p;
                    k += 1;
                    k as u32 - 1
                } else {
                    let slot = &mut self.table[base + self.class[2][x] as usize];
                    if *slot == u32::MAX {
                        *slot = self.cols.len() as u32;
                        self.cols.push(p);
                    }
                    *slot
                };
                self.source.push(col);
                p += 1;
            }
        }
        Some(&self.cols)
    }

    /// Spreads a layer's compact output — `[1, C, n]` with its columns in
    /// [`GridPlan::columns`] order — over the dense `[1, C, T, H, W]`
    /// grid, in a scratch-pooled tensor: every active position takes its
    /// own column, every other position its class representative's.
    ///
    /// # Panics
    ///
    /// Panics unless [`GridPlan::columns`] last listed this plan's
    /// columns (and not `None`) and `compact` has that many.
    pub fn scatter(&self, compact: &Tensor, scratch: &mut KernelScratch) -> Tensor {
        let (n, positions) = (self.cols.len(), self.positions());
        assert_eq!(
            self.source.len(),
            positions,
            "scatter needs the columns of a partly active plan"
        );
        let d = compact.dims();
        assert_eq!(
            (d.len(), d[0], d[2]),
            (3, 1, n),
            "compact output must be [1, C, columns]"
        );
        let [t, h, w] = self.dims;
        let mut out = scratch.take_tensor(&[1, d[1], t, h, w]);
        for (dst, src) in out
            .data_mut()
            .chunks_exact_mut(positions)
            .zip(compact.data().chunks_exact(n))
        {
            for (o, &j) in dst.iter_mut().zip(&self.source) {
                *o = src[j as usize];
            }
        }
        out
    }
}

/// The in-bounds input indices under output `o`'s window of `(kernel,
/// stride, pad)` over an axis of `extent` cells.
fn window(o: usize, (k, s, p): (usize, usize, usize), extent: usize) -> Range<usize> {
    let first = o * s;
    first.saturating_sub(p)..(first + k).min(extent + p).saturating_sub(p)
}

/// A one-word row dilated by a `(kernel, stride, pad)` window: bit `x`
/// of the result is set when a bit in `[x − pad, x − pad + kernel)` is.
fn dilate_word(row: u64, (k, _, p): (usize, usize, usize)) -> u64 {
    (0..k).fold(0, |e, d| {
        e | if d >= p {
            row.checked_shr((d - p) as u32).unwrap_or(0)
        } else {
            row.checked_shl((p - d) as u32).unwrap_or(0)
        }
    })
}

/// Whether any bit in `range` is set in a row of words.
fn any_in(row: &[u64], range: Range<usize>) -> bool {
    if range.is_empty() {
        return false;
    }
    let (first, last) = (range.start, range.end - 1);
    (first / 64..=last / 64).any(|i| {
        let mut mask = !0u64;
        if i == first / 64 {
            mask &= !0 << (first % 64);
        }
        if i == last / 64 {
            mask &= !0 >> (63 - last % 64);
        }
        row[i] & mask != 0
    })
}

/// Gives each of `n` indices the id of the first earlier index that
/// `same` equates with it, or a fresh id, writing them to `ids`;
/// `reps` keeps each id's first index. Returns the id count.
fn intern(
    n: usize,
    ids: &mut Vec<u32>,
    reps: &mut Vec<u32>,
    same: impl Fn(usize, usize) -> bool,
) -> usize {
    ids.clear();
    reps.clear();
    for i in 0..n {
        let id = match reps.iter().position(|&r| same(i, r as usize)) {
            Some(id) => id,
            None => {
                reps.push(i as u32);
                reps.len() - 1
            }
        };
        ids.push(id as u32);
    }
    reps.len()
}
